(* Workload batch-j1: [vrpc batch DIR --jobs 1], no cache, repeated for the
   run length over the seeded corpus. Sequential and engine-heavy: no
   domains are spawned, and the child's allocation repeats exactly, so an
   engine change shows here more strongly than anywhere else.

   Untraced run: set-up (corpus generation, in-process reference report,
   one warm-up invocation) [setup_reps] times, median reported; then the timed
   loop of child invocations, each report byte-compared with the
   in-process [Batch.render] at jobs 1. Accuracy is scored once from the
   warm-up report, outside the timed loop.

   Traced run: the same corpus through the same layer calls [vrpc batch]
   makes per file, from this process with a span around each call; the
   report they produce must equal the reference too. *)

open Common
module Batch = Vrp_sched.Batch
module Callgraph = Vrp_sched.Callgraph
module Pipeline = Vrp_core.Pipeline
module Interproc = Vrp_core.Interproc
module Engine = Vrp_core.Engine
module Front = Vrp_lang.Front
module Diag = Vrp_diag.Diag
module Ir = Vrp_ir.Ir

type setup = {
  dir : string;
  files : Corpus.file list;
  sources : (string * string) list;  (** (path as vrpc names it, source) *)
  expected : string;
  functions : int;
  warm_out : string;
}

let invoke ~work vrpc dir =
  let out = Filename.concat work "vrpc.out" and err = Filename.concat work "vrpc.err" in
  let t0 = now () in
  let ex = Proc.wait (Proc.spawn ~stdout:out ~stderr:err vrpc [ "batch"; dir; "--jobs"; "1" ]) in
  let wall = now () -. t0 in
  (ex, wall, Proc.read_file out, Proc.read_file err)

let setup ~work ~seed ~tally vrpc =
  let dir = Filename.concat work "corpus" in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let files = Corpus.corpus ~seed in
  List.iter (fun (f : Corpus.file) -> write_file (Filename.concat dir f.name) f.source) files;
  let sources = List.map (fun (f : Corpus.file) -> (Filename.concat dir f.name, f.source)) files in
  let results = Batch.analyze_sources ~jobs:1 sources in
  let expected = Batch.render results in
  let ex, _, out, _ = invoke ~work vrpc dir in
  check tally (ex.Proc.code = 0 && out = expected)
    "warm-up vrpc batch report differs from in-process Batch.render";
  { dir; files; sources; expected; functions = (Batch.aggregate results).Batch.functions;
    warm_out = out }

(* Accuracy of the shipped report on the suite programs. *)
let accuracy st =
  let per_file = Accuracy.of_batch_report st.warm_out in
  Accuracy.score ~domains:(nproc ())
    (List.filter_map
       (fun (f : Corpus.file) ->
         Option.map
           (fun b -> (b, Option.value ~default:(Hashtbl.create 1)
                           (Hashtbl.find_opt per_file (Filename.concat st.dir f.name))))
           f.bench)
       st.files)

let run ~seed ~seconds =
  let vrpc = binary "vrpc" in
  let work = work_dir "batch-j1" in
  let tally = tally () in
  let reps = List.init setup_reps (fun _ -> time (fun () -> setup ~work ~seed ~tally vrpc)) in
  let st = fst (List.nth reps (setup_reps - 1)) in
  let setup_s = Pct.median (List.map snd reps) in
  let walls = ref [] and rss = ref [] and allocs = ref [] in
  let t_end = now () +. seconds in
  while !walls = [] || now () < t_end do
    let ex, wall, out, err = invoke ~work vrpc st.dir in
    check tally (ex.Proc.code = 0 && out = st.expected)
      "vrpc batch report differs from in-process Batch.render";
    walls := wall :: !walls;
    rss := float_of_int ex.Proc.maxrss_kb /. 1024.0 :: !rss;
    allocs := Option.value ~default:Float.nan (Proc.allocated_words err) :: !allocs
  done;
  let n = List.length !walls in
  let busy = List.fold_left ( +. ) 0.0 !walls in
  let alloc = List.hd !allocs in
  check tally (List.for_all (fun a -> a = alloc) !allocs)
    "child allocation differs between identical invocations";
  let err_pp, err_w_pp, branches = accuracy st in
  let lat p =
    match Pct.percentile p (List.map (fun w -> 1000.0 *. w) !walls) with
    | Ok r -> (r.Pct.value, Printf.sprintf "%s of n=%d invocations" r.Pct.label r.Pct.n)
    | Error msg -> failwith ("batch-j1 latency: " ^ msg)
  in
  let p50, p50_basis = lat 50.0 in
  let fns = float_of_int (n * st.functions) in
  let metrics =
    Report.
      [
        metric "setup_s" "s" setup_s ~basis:(Printf.sprintf "median of %d set-ups" setup_reps);
        metric "functions_per_s" "1/s" (fns /. busy)
          ~basis:(Printf.sprintf "%d invocations x %d functions" n st.functions);
        metric "requests_per_s" "1/s" (float_of_int n /. busy)
          ~basis:(Printf.sprintf "n=%d vrpc batch invocations" n);
        metric "latency_p50_ms" "ms" p50 ~basis:p50_basis;
        metric "latency_tail_ms" "ms" p50
          ~basis:(p50_basis ^ "; p90 needs >=100 invocations");
        metric "peak_rss_mb" "MB" (Pct.median !rss) ~basis:(Printf.sprintf "median of n=%d" n);
        metric "alloc_words_per_fn" "words" (alloc /. float_of_int st.functions)
          ~basis:(Printf.sprintf "%.0f words / %d functions, every invocation" alloc st.functions);
        metric "branch_error_pp" "pp" err_pp ~basis:(Printf.sprintf "%d suite branches" branches);
        metric "branch_error_weighted_pp" "pp" err_w_pp
          ~basis:(Printf.sprintf "%d suite branches" branches);
      ]
  in
  Proc.rm_rf work;
  (tally, metrics)

(* --- traced run --- *)

(* The fallback markers [vrpc batch] prints: (fn, block) -> degraded. *)
let markers report =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Diag.diag) ->
      match (d.Diag.kind, d.Diag.loc.Diag.fn, d.Diag.loc.Diag.block) with
      | Diag.Fallback_heuristic, Some fn, Some bid ->
        let degraded = d.Diag.severity <> Diag.Info in
        let prev = Option.value ~default:false (Hashtbl.find_opt tbl (fn, bid)) in
        Hashtbl.replace tbl (fn, bid) (degraded || prev)
      | _ -> ())
    (Diag.to_list report);
  tbl

(* One file through the layers, as [Batch.analyze_sources ~jobs:1] runs it. *)
let analyze_file ~rounds (name, source) : Batch.file_result =
  let _ast = Tracer.span "front" (fun () -> Front.parse_and_check source) in
  let c = Tracer.span "pipeline" (fun () -> Pipeline.compile source) in
  let ssa = c.Pipeline.ssa in
  let groups = Tracer.span "callgraph" (fun () -> Callgraph.scc_groups ssa) in
  let report = Diag.create () in
  let vrp, ipa =
    Tracer.span "interproc" (fun () ->
        Pipeline.vrp_predictions ~config:Engine.default_config ~report ~groups
          ~analyze_fn:Layers.engine ssa)
  in
  let ipa = Option.get ipa in
  if Tracer.on () then rounds := !rounds + ipa.Interproc.rounds;
  let mk = markers report in
  let predictions =
    Hashtbl.fold
      (fun key p acc ->
        let m =
          match Hashtbl.find_opt mk key with Some true -> "!" | Some false -> "*" | None -> ""
        in
        (key, p, m) :: acc)
      vrp []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  {
    Batch.name;
    error = None;
    functions = List.length ssa.Ir.fns;
    predictions;
    demoted = List.sort compare (Hashtbl.fold (fun f w acc -> (f, w) :: acc) ipa.Interproc.failed []);
    report;
    evaluations = 0;
    resumed = false;
  }

let traced ~seed ~seconds =
  let work = work_dir "batch-j1" in
  let tally = tally () in
  let st = setup ~work ~seed ~tally (binary "vrpc") in
  let nfiles = List.length st.sources in
  let rounds = ref 0 and fallbacks = ref 0 and branches = ref 0 in
  let one_pass () =
    let results =
      List.mapi
        (fun i src -> Tracer.span ~req:(i + 1) "root" (fun () -> analyze_file ~rounds src))
        st.sources
    in
    let out =
      Tracer.span ~req:0 "root" (fun () ->
          Tracer.span "batch.render" (fun () -> Batch.render results))
    in
    check tally (out = st.expected) "traced layer calls render a different report";
    if Tracer.on () then begin
      let a = Batch.aggregate results in
      fallbacks := !fallbacks + a.Batch.fallbacks;
      branches := !branches + a.Batch.branches
    end
  in
  let n_passes, untraced_s, traced_s = alternate ~seconds one_pass in
  let spans = Tracer.spans () in
  let self = Tracer.self_by_name spans in
  let s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let files = float_of_int (n_passes * nfiles) in
  let per_file v = 1000.0 *. v /. files in
  let c = Layers.c in
  let calls = float_of_int c.Layers.engine_calls in
  let fns = float_of_int (n_passes * st.functions) in
  Printf.printf "%d passes of %d files in each phase\n" n_passes nfiles;
  let metrics =
    Report.
      [
        metric "front.ms_per_file" "ms" (per_file (s "front"));
        metric "pipeline.lower_ms_per_file" "ms" (per_file (s "pipeline" -. s "front"));
        metric "callgraph.ms_per_file" "ms" (per_file (s "callgraph"));
        metric "engine.self_ms_per_call" "ms" (1000.0 *. ratio (s "engine") calls);
        metric "engine.calls_per_fn" "count" (ratio calls fns);
        metric "engine.minor_words_per_call" "words" (ratio c.Layers.minor_words calls);
        metric "engine.evaluations_per_call" "count" (ratio (float_of_int c.Layers.evaluations) calls);
        metric "engine.fuel_per_call" "count" (ratio (float_of_int c.Layers.fuel) calls);
        metric "engine.widenings" "count" (float_of_int c.Layers.widenings /. files)
          ~basis:"per file";
        metric "interproc.self_ms_per_file" "ms" (per_file (s "interproc"));
        metric "interproc.rounds_per_file" "count" (float_of_int !rounds /. files);
        metric "predict.fallback_ratio" "ratio" (ratio (float_of_int !fallbacks) (float_of_int !branches));
        metric "batch.render_ms_per_file" "ms" (per_file (s "batch.render"));
      ]
  in
  Proc.rm_rf work;
  (tally, metrics @ trace_summary ~workload:"batch-j1" ~tally ~traced_s ~untraced_s spans)
