(* Tests of the benchmark's own code: input generation, the percentile
   rule and the self-time computation. *)

open Perfbench
module Server = Vrp_server.Server
module Protocol = Vrp_server.Protocol
module Json = Vrp_server.Json
module Pipeline = Vrp_core.Pipeline
module Interproc = Vrp_core.Interproc

(* --- corpus --- *)

let test_corpus_deterministic () =
  let a = Corpus.corpus ~seed:7 and b = Corpus.corpus ~seed:7 in
  Alcotest.(check (list (pair string string)))
    "same seed, same files"
    (List.map (fun (f : Corpus.file) -> (f.name, f.source)) a)
    (List.map (fun (f : Corpus.file) -> (f.name, f.source)) b);
  let names seed = List.map (fun (f : Corpus.file) -> f.name) (Corpus.corpus ~seed) in
  Alcotest.(check bool) "another seed, another order" true (names 7 <> names 8)

let test_corpus_compiles () =
  let files = Corpus.corpus ~seed:3 in
  Alcotest.(check int) "22 suite programs + 8 synthetic" 30 (List.length files);
  List.iter
    (fun (f : Corpus.file) ->
      match Pipeline.compile_result f.source with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "%s does not compile: %s" f.name d.Vrp_diag.Diag.message)
    files

(* --- edits --- *)

let edits ~seed ~client ~clients n =
  let s = Corpus.stream ~seed ~client ~clients in
  List.init n (fun _ -> Corpus.next s)

let test_edits_novel () =
  let all =
    List.concat_map (fun client -> edits ~seed:5 ~client ~clients:3 200) [ 0; 1; 2 ]
  in
  let ds = List.map (fun ((e : Corpus.edit), _) -> e.d) all in
  Alcotest.(check int) "every stored constant is fresh" (List.length ds)
    (List.length (List.sort_uniq compare ds));
  let srcs = List.map snd (edits ~seed:5 ~client:0 ~clients:1 200) in
  Alcotest.(check int) "no source repeats within a stream" 200
    (List.length (List.sort_uniq compare srcs));
  Alcotest.(check (list string)) "streams replay from the seed"
    (List.map snd (edits ~seed:9 ~client:1 ~clients:2 20))
    (List.map snd (edits ~seed:9 ~client:1 ~clients:2 20))

(* Each edit changes one function, which is the one cache miss, and the
   analysis does the same work whatever the edit. *)
let test_edits_one_function () =
  let server = Server.create () in
  Fun.protect ~finally:(fun () -> Server.shutdown server) @@ fun () ->
  let analyze source =
    Server.handle server
      { Protocol.id = 1; op = "analyze"; params = Serve.analyze_params ~client:0 source }
  in
  ignore (analyze (Corpus.edit_program (Corpus.edit_base ())));
  let evaluations source =
    let c = Pipeline.compile source in
    let _, ipa = Pipeline.vrp_predictions c.Pipeline.ssa in
    let ipa = Option.get ipa in
    Hashtbl.fold (fun _ (r : Vrp_core.Engine.t) acc -> acc + r.evaluations) ipa.Interproc.results 0
  in
  let cost = evaluations (Corpus.edit_program (Corpus.edit_base ())) in
  List.iter
    (fun ((e : Corpus.edit), source) ->
      let r = analyze source in
      Alcotest.(check bool) (Printf.sprintf "edit of leaf%d: one change, one miss" e.leaf) true
        (Serve.one_function_edit e r);
      Alcotest.(check int) "same analysis work" cost (evaluations source))
    (edits ~seed:2 ~client:0 ~clients:1 12)

(* --- percentiles --- *)

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile_refusal () =
  (match Pct.percentile 99.0 (floats 1009) with
  | Ok r ->
    Alcotest.(check int) "sample count carried" 1009 r.Pct.n;
    Alcotest.(check (float 0.0)) "nearest rank" 999.0 r.Pct.value
  | Error m -> Alcotest.fail m);
  (match Pct.percentile 99.0 (floats 1000) with
  | Ok r -> Alcotest.(check (float 0.0)) "p99 of 1000: 10 beyond" 990.0 r.Pct.value
  | Error m -> Alcotest.fail m);
  (match Pct.percentile 99.0 (floats 999) with
  | Ok _ -> Alcotest.fail "p99 of 999 samples has 9 beyond it"
  | Error _ -> ());
  (match Pct.percentile 50.0 (floats 20) with
  | Ok r -> Alcotest.(check (float 0.0)) "p50 of 20" 10.0 r.Pct.value
  | Error m -> Alcotest.fail m);
  (match Pct.percentile 50.0 (floats 19) with
  | Ok _ -> Alcotest.fail "p50 of 19 samples has 9 beyond it"
  | Error _ -> ());
  match Pct.percentile 50.0 [] with
  | Ok _ -> Alcotest.fail "no samples"
  | Error _ -> ()

(* A burst in one second does not move the median rate. *)
let test_window_rates () =
  (* 4 whole seconds from t0 = 100: 10, 10, 40 (a burst) and 12 events of
     weight 2; one event past the last whole second is not counted. *)
  let at sec n = List.init n (fun i -> (100.0 +. float_of_int sec +. (float_of_int i /. 100.0), 2)) in
  let events = at 0 10 @ at 1 10 @ at 2 40 @ at 3 12 @ [ (104.5, 2) ] in
  let r, w, windows = Pct.window_rates ~t0:100.0 ~elapsed:4.6 events in
  Alcotest.(check int) "whole seconds" 4 windows;
  Alcotest.(check (float 0.0)) "median events per second" 11.0 r;
  Alcotest.(check (float 0.0)) "median weight per second" 22.0 w;
  let r, _, windows = Pct.window_rates ~t0:100.0 ~elapsed:2.0 (at 0 10 @ at 1 10) in
  Alcotest.(check int) "short run: one window" 1 windows;
  Alcotest.(check (float 0.0)) "short run: whole-run rate" 10.0 r

(* --- self time --- *)

let span id ?(parent = 0) start stop =
  { Tracer.id; name = string_of_int id; start; stop; parent; req = 0; tid = 0 }

let self_of spans id =
  List.assoc id (List.map (fun ((s : Tracer.span), self) -> (s.id, self)) (Tracer.self_times spans))

let test_self_time () =
  (* root [0,10] with children [1,3] and [2,6] overlapping (parallel
     tasks) and [8,12] running past its end; [2,6] has a child [3,4]. *)
  let spans =
    [ span 1 0.0 10.0; span 2 ~parent:1 1.0 3.0; span 3 ~parent:1 2.0 6.0;
      span 4 ~parent:1 8.0 12.0; span 5 ~parent:3 3.0 4.0 ]
  in
  let eq = Alcotest.(check (float 1e-9)) in
  eq "root: 10 minus the union [1,6] and [8,10]" 3.0 (self_of spans 1);
  eq "leaf child keeps its duration" 2.0 (self_of spans 2);
  eq "nested child subtracted" 3.0 (self_of spans 3);
  eq "grandchild" 1.0 (self_of spans 5);
  let layers, wall = Tracer.coverage spans in
  eq "root wall" 10.0 wall;
  eq "non-root self time" 10.0 layers

let test_chrome_export () =
  let json = Tracer.to_chrome [ span 1 0.0 0.5; span 2 ~parent:1 0.1 0.2 ] in
  match Json.parse json with
  | Error m -> Alcotest.fail m
  | Ok doc -> (
    match Json.member "traceEvents" doc with
    | Some (Json.List [ a; _ ]) ->
      Alcotest.(check (option string)) "complete event" (Some "X") (Json.mem_string "ph" a)
    | _ -> Alcotest.fail "two trace events expected")

let () =
  Alcotest.run "perfbench"
    [
      ( "corpus",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_corpus_deterministic;
          Alcotest.test_case "every program compiles" `Quick test_corpus_compiles;
        ] );
      ( "edits",
        [
          Alcotest.test_case "never repeat" `Quick test_edits_novel;
          Alcotest.test_case "one function, one miss, same cost" `Quick test_edits_one_function;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "refuses thin tails" `Quick test_percentile_refusal;
          Alcotest.test_case "median rate over whole seconds" `Quick test_window_rates;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "self time, nested and overlapping" `Quick test_self_time;
          Alcotest.test_case "chrome trace_event export" `Quick test_chrome_export;
        ] );
    ]
