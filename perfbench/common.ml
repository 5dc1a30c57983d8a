(* Shared plumbing of the workloads: the binaries under test, the run's
   scratch directory, timing and the correctness tally. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The benchmark runs from the repository root, after run.sh has built
   these with dune. *)
let binary name =
  let p = Filename.concat "_build/default/bin" (name ^ ".exe") in
  if not (Sys.file_exists p) then failwith (p ^ " is missing: build it with run.sh");
  p

(* Every file a run writes lives under .perfbench/ in the checkout. The
   directory name is fixed per workload (no pid), because file paths end
   up inside reports and so inside the allocation counts. *)
let work_dir workload =
  let d = Filename.concat ".perfbench" workload in
  Proc.rm_rf d;
  Proc.mkdir_p d;
  d

(* Set-up is repeated this many times per run and its median reported. *)
let setup_reps = 7

let nproc () = max 1 (Domain.recommended_domain_count ())

(* Operations whose output the benchmark checked, and how many were wrong
   (mismatched output, error response or busy shed). Thread-safe. *)
type tally = { attempted : int Atomic.t; failed : int Atomic.t; first : string option Atomic.t }

let tally () = { attempted = Atomic.make 0; failed = Atomic.make 0; first = Atomic.make None }

let check t ok what =
  Atomic.incr t.attempted;
  if not ok then begin
    Atomic.incr t.failed;
    ignore (Atomic.compare_and_set t.first None (Some what))
  end

let report_failures t =
  match Atomic.get t.first with
  | Some what ->
    Printf.printf "FAILED %d of %d checked operations; first: %s\n" (Atomic.get t.failed)
      (Atomic.get t.attempted) what
  | None -> ()

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Alternate untraced and traced rounds for the run length, ending on a
   traced one: both sides see the same inputs and the same co-tenant load,
   so their wall times compare. Returns (rounds per side, untraced s,
   traced s). [round] must count its work only while the tracer is on. *)
let alternate ~seconds round =
  let t_end = now () +. seconds in
  let untraced = ref 0.0 and traced = ref 0.0 and k = ref 0 in
  while !k mod 2 = 1 || !k = 0 || now () < t_end do
    let on = !k mod 2 = 1 in
    Tracer.set_enabled on;
    let (), dt = time round in
    if on then traced := !traced +. dt else untraced := !untraced +. dt;
    incr k
  done;
  Tracer.set_enabled false;
  (!k / 2, !untraced, !traced)

(* Close a traced run: write the spans as Chrome trace_event JSON, check
   that the per-layer self times account for the traced wall time within
   10% (the spans cover the blocking steps), and report the coverage and
   the tracing overhead against the untraced rounds of the same run. *)
let trace_summary ~workload ~tally ~traced_s ~untraced_s spans =
  let file = Filename.concat ".perfbench" ("trace-" ^ workload ^ ".json") in
  write_file file (Tracer.to_chrome spans);
  let layers, wall = Tracer.coverage spans in
  let cov = ratio layers wall in
  check tally (cov >= 0.9 && cov <= 1.1)
    (Printf.sprintf "layer self times cover %.1f%% of the traced wall time" (100.0 *. cov));
  Printf.printf
    "trace: %d spans in %s; layers %.3fs of %.3fs in requests; wall traced %.3fs vs \
     untraced %.3fs\n"
    (List.length spans) file layers wall traced_s untraced_s;
  Report.
    [
      metric "trace.coverage" "ratio" cov ~basis:"layer self time / request wall time";
      metric "trace.overhead_pct" "%" (100.0 *. (ratio traced_s untraced_s -. 1.0))
        ~basis:(Printf.sprintf "%.3fs traced vs %.3fs untraced" traced_s untraced_s);
    ]
