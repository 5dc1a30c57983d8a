(* perfbench: the repository's end-to-end benchmark.

   bench.exe --workload batch-j1|serve-warm|serve-edit --seed N --seconds S --trace 0|1

   Run from the repository root through perfbench/run.sh, which builds the
   binaries under test first. The metrics reported, their names and units,
   are the ones BENCHMARK.json declares. With --trace 0 it measures the shipped
   binaries end to end; with --trace 1 it makes the per-layer traced run.
   Human-readable lines come first; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}. The exit code is 0 when
   every checked output was correct, 1 when one was not, 2 when the run
   could not be made at all (no result line then). *)

open Perfbench

let usage =
  "usage: bench.exe --workload batch-j1|serve-warm|serve-edit --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> die usage);
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> die usage);
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | _ -> die usage
  in
  go (List.tl (Array.to_list Sys.argv));
  (!workload, !seed, !seconds, !trace)

(* The metrics BENCHMARK.json declares under [key], as (name, unit). *)
let declared key =
  let module Json = Vrp_server.Json in
  let doc =
    match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error msg -> die ("BENCHMARK.json: " ^ msg)
    | exception Sys_error msg -> die msg
  in
  match Json.mem_list key doc with
  | Some ms ->
    List.map
      (fun m ->
        match (Json.mem_string "name" m, Json.mem_string "unit" m) with
        | Some name, Some unit_ -> (name, unit_)
        | _ -> die ("BENCHMARK.json: a metric of " ^ key ^ " lacks a name or unit"))
      ms
  | None -> die ("BENCHMARK.json has no " ^ key)

(* Order the metrics as declared. A metric a layer never reached on this
   workload reads 0; an end-to-end metric may not be missing. *)
let complete ~declared ~optional metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Report.metric) -> m.Report.name = name) metrics with
      | Some m when m.Report.unit_ = unit_ -> m
      | Some m -> die (Printf.sprintf "%s is measured in %s, declared in %s" name m.Report.unit_ unit_)
      | None when optional -> Report.metric name unit_ 0.0 ~basis:"not exercised"
      | None -> die ("no value for end-to-end metric " ^ name))
    declared

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace = parse_args () in
  let run =
    match (workload, trace) with
    | "batch-j1", false -> Batch_j1.run
    | "batch-j1", true -> Batch_j1.traced
    | "serve-warm", false -> Serve.run ~edit:false
    | "serve-warm", true -> Serve.traced ~edit:false
    | "serve-edit", false -> Serve.run ~edit:true
    | "serve-edit", true -> Serve.traced ~edit:true
    | _ -> die usage
  in
  let tally, metrics =
    try run ~seed ~seconds
    with e -> die (Printf.sprintf "%s failed: %s" workload (Printexc.to_string e))
  in
  let metrics =
    if trace then complete ~declared:(declared "per_layer") ~optional:true metrics
    else complete ~declared:(declared "end_to_end") ~optional:false metrics
  in
  let attempted = Atomic.get tally.Common.attempted
  and failed = Atomic.get tally.Common.failed in
  Printf.printf "workload %s, seed %d, %gs, trace %b: %d checked operations, %d failed\n"
    workload seed seconds trace attempted failed;
  Report.print_lines ~title:(if trace then "per-layer" else "end-to-end") metrics;
  Common.report_failures tally;
  let correct = failed = 0 && attempted > 0 in
  print_endline (Report.result_line ~correct ~attempted ~failed metrics);
  exit (if correct && Report.finite metrics then 0 else 1)
