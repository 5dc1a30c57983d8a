(* Metric reporting: one human-readable line per metric (value, unit and
   what it was computed from), then the machine-readable result as the last
   line of stdout. *)

type metric = { name : string; unit_ : string; value : float; basis : string }

let metric ?(basis = "") name unit_ value = { name; unit_; value; basis }

let print_lines ~title metrics =
  Printf.printf "-- %s --\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %14.6g %-6s %s\n" m.name m.value m.unit_
        (if m.basis = "" then "" else "(" ^ m.basis ^ ")"))
    metrics

(* JSON has no NaN or infinity; a metric that is not finite makes the run
   incorrect rather than producing an unparseable line. *)
let finite metrics = List.for_all (fun m -> Float.is_finite m.value) metrics

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct && finite metrics)
    attempted failed
    (String.concat ", " fields)
