(* Traced wrappers around the program's layer seams, for the per-layer
   run. Each wrapper times one public call with a {!Tracer} span and counts
   the work it did; nothing here changes what the call computes.

   - [engine]: {!Interproc.default_analyze_fn}, the per-function engine
     run, with the exact counts the engine reports and the minor words
     allocated during the call (per domain, so pool tasks count their own).
   - [memo]: the summary cache as {!Summary_cache.memoized} keys it (same
     digests, slots and stamps), but built on the public
     {!Summary_cache.find_or_compute} so the engine run inside a miss gets
     its own span and a miss's cache cost is separable from its analysis.
     Its digest precomputation is the memoized set-up.
   - [runner]: {!Wavefront.runner} over a pool, timing each wave and the
     tasks in it, for tasks per wave and parallel efficiency. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Summary_cache = Vrp_cache.Summary_cache
module Digest_key = Vrp_cache.Digest_key
module Wavefront = Vrp_sched.Wavefront

type counts = {
  mutable engine_calls : int;
  mutable evaluations : int;
  mutable fuel : int;
  mutable widenings : int;
  mutable minor_words : float;
  mutable hits : int;
  mutable hit_s : float;  (** summed duration of cache hits *)
  mutable misses : int;
  mutable miss_s : float;  (** summed duration of misses, engine excluded *)
  mutable waves : int;
  mutable tasks : int;
  mutable task_s : float;  (** summed task run time *)
  mutable wave_s : float;  (** summed wave wall time *)
}

let c =
  {
    engine_calls = 0; evaluations = 0; fuel = 0; widenings = 0; minor_words = 0.0;
    hits = 0; hit_s = 0.0; misses = 0; miss_s = 0.0;
    waves = 0; tasks = 0; task_s = 0.0; wave_s = 0.0;
  }

let lock = Mutex.create ()

(* Counts are kept only while the tracer is on, so untraced rounds of a
   traced run leave them alone. *)
let locked f =
  if Tracer.on () then begin
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  end

let engine : Interproc.analyze_fn =
 fun ~config ~report ~call_oracle ~param_values fn ->
  Tracer.span "engine" (fun () ->
      let w0 = Gc.minor_words () in
      let r = Interproc.default_analyze_fn ~config ~report ~call_oracle ~param_values fn in
      let words = Gc.minor_words () -. w0 in
      locked (fun () ->
          c.engine_calls <- c.engine_calls + 1;
          c.evaluations <- c.evaluations + r.Engine.evaluations;
          c.fuel <- c.fuel + r.Engine.fuel_spent;
          c.widenings <- c.widenings + r.Engine.widenings;
          c.minor_words <- c.minor_words +. words);
      r)

(* The keying of {!Summary_cache.memoized}: slot = prefix ^ function name,
   stamp = IR digest ^ config digest, key = {!Digest_key.task_key}. *)
let memo ?(slot_prefix = "") cache (program : Ir.program) : Interproc.analyze_fn =
  let info =
    Tracer.span "digest_key" (fun () ->
        let info = Hashtbl.create 16 in
        List.iter
          (fun (fn : Ir.fn) ->
            Hashtbl.replace info fn.Ir.fname
              (Digest_key.fn_digest fn, Digest_key.static_callees fn))
          program.Ir.fns;
        info)
  in
  fun ~config ~report ~call_oracle ~param_values fn ->
    let t0 = Unix.gettimeofday () in
    let engine_s = ref None in
    let r =
      Tracer.span "summary_cache" (fun () ->
          let ir_digest, callees = Hashtbl.find info fn.Ir.fname in
          let config_digest = Digest_key.config_digest config in
          let key =
            Digest_key.task_key ~fn_digest:ir_digest ~config_digest ~param_values
              ~callee_returns:(List.map (fun callee -> (callee, call_oracle callee [])) callees)
          in
          Summary_cache.find_or_compute cache ~slot:(slot_prefix ^ fn.Ir.fname)
            ~stamp:(ir_digest ^ config_digest) ~key (fun () ->
              let e0 = Unix.gettimeofday () in
              let r = engine ~config ~report ~call_oracle ~param_values fn in
              engine_s := Some (Unix.gettimeofday () -. e0);
              r))
    in
    let dt = Unix.gettimeofday () -. t0 in
    locked (fun () ->
        match !engine_s with
        | None ->
          c.hits <- c.hits + 1;
          c.hit_s <- c.hit_s +. dt
        | Some e ->
          c.misses <- c.misses + 1;
          c.miss_s <- c.miss_s +. (dt -. e));
    r

let runner pool : Interproc.runner =
  let inner = Wavefront.runner pool in
  fun tasks ->
    Tracer.span "wavefront" (fun () ->
        let adopt = Tracer.adopt () in
        let busy = ref 0.0 in
        let wrap (t : Interproc.task) =
          {
            t with
            Interproc.run =
              (fun () ->
                adopt (fun () ->
                    Tracer.span "wavefront.task" (fun () ->
                        let t0 = Unix.gettimeofday () in
                        let r = t.Interproc.run () in
                        let dt = Unix.gettimeofday () -. t0 in
                        locked (fun () -> busy := !busy +. dt);
                        r)));
          }
        in
        let t0 = Unix.gettimeofday () in
        let r = inner (Array.map wrap tasks) in
        let wall = Unix.gettimeofday () -. t0 in
        locked (fun () ->
            c.waves <- c.waves + 1;
            c.tasks <- c.tasks + Array.length tasks;
            c.task_s <- c.task_s +. !busy;
            c.wave_s <- c.wave_s +. wall);
        r)
