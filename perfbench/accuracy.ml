(* Branch-prediction accuracy of a shipped report, scored the paper's way
   (§5): mean |predicted − observed| in percentage points over the suite
   programs' branches that execute on their reference input, unweighted
   and weighted by execution count. Observed behaviour comes from the
   reference interpreter, never from the analysis under test. *)

module Suite = Vrp_suite.Suite
module Pipeline = Vrp_core.Pipeline
module Interp = Vrp_profile.Interp
module Error_analysis = Vrp_evaluation.Error_analysis

(* "fn.B12" -> ("fn", 12) *)
let parse_key s =
  match String.rindex_opt s '.' with
  | Some i when i + 2 <= String.length s && s.[i + 1] = 'B' -> (
    match int_of_string_opt (String.sub s (i + 2) (String.length s - i - 2)) with
    | Some bid -> Some (String.sub s 0 i, bid)
    | None -> None)
  | _ -> None

(* "45.0%*" -> 0.45 *)
let parse_pct s =
  match String.index_opt s '%' with
  | Some i -> Option.map (fun v -> v /. 100.0) (float_of_string_opt (String.sub s 0 i))
  | None -> None

let words line = String.split_on_char ' ' line |> List.filter (( <> ) "")

(* Predictions of one program from a [vrpc predict] table: the vrp column
   is the third field from the right ([vrp ball-larus 90/50]). *)
let of_predict_table out =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun line ->
      match List.rev (words line) with
      | _nf :: _bl :: vrp :: _ :: _ as ws -> (
        match (parse_key (List.nth ws (List.length ws - 1)), parse_pct vrp) with
        | Some key, Some p -> Hashtbl.replace tbl key p
        | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' out);
  tbl

(* Predictions per file from a [vrpc batch] report ("== NAME ==" sections
   of "  fn.Bn  P%marker" rows). *)
let of_batch_report out =
  let files = Hashtbl.create 32 in
  let current = ref None in
  List.iter
    (fun line ->
      let n = String.length line in
      if n > 6 && String.sub line 0 3 = "== " && String.sub line (n - 3) 3 = " ==" then begin
        let tbl = Hashtbl.create 32 in
        Hashtbl.replace files (String.sub line 3 (n - 6)) tbl;
        current := Some tbl
      end
      else
        match (!current, words line) with
        | Some tbl, [ key; pct ] -> (
          match (parse_key key, parse_pct pct) with
          | Some k, Some p -> Hashtbl.replace tbl k p
          | _ -> ())
        | _ -> ())
    (String.split_on_char '\n' out);
  files

let observed_profile (b : Suite.benchmark) =
  let c = Pipeline.compile b.Suite.source in
  (Interp.run c.Pipeline.ssa ~args:b.Suite.ref_args).Interp.profile

(* (unweighted, weighted, branches): mean |error| in pp over the pooled
   branches of every (suite program, predictions) pair, pooled in program
   name order so the sums round alike whatever produced the pairs. The
   reference runs are split over [domains] domains; they take seconds. *)
let score ~domains pairs =
  let pairs =
    List.sort (fun ((a : Suite.benchmark), _) (b, _) -> String.compare a.Suite.name b.Suite.name) pairs
  in
  let errors (b, pred) = Error_analysis.branch_errors ~observed:(observed_profile b) pred in
  let shares =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            List.concat (List.filteri (fun i _ -> i mod domains = d) pairs |> List.map errors)))
  in
  let errs = List.concat_map Domain.join shares in
  ( Error_analysis.mean_error ~weighted:false errs,
    Error_analysis.mean_error ~weighted:true errs,
    List.length errs )
