(* Order statistics for the benchmark's reports.

   Every latency percentile goes through [percentile], which refuses to
   report a percentile that has fewer than [min_beyond] samples above its
   rank: with fewer, the "tail" is one or two unlucky requests and reads the
   same at p90 and p99. The sample count travels with every value so the
   report can print it. *)

type t = { label : string; value : float; n : int }

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the sample at 1-based rank [ceil (p/100 * n)].
   [Error] when fewer than [min_beyond] samples lie beyond that rank. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
  let label = Printf.sprintf "p%g" p in
  if n = 0 || n - rank < min_beyond then
    Error
      (Printf.sprintf "%s refused: %d sample%s, %d beyond rank %d (needs %d)" label n
         (if n = 1 then "" else "s")
         (max 0 (n - rank)) rank min_beyond)
  else Ok { label; value = a.(rank - 1); n }

(* Median of any non-empty sample (interpolated for even sizes). Used for
   per-run aggregates such as the set-up repetitions, not for latency
   tails, so it carries no refusal rule. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: empty sample"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Per-second rates robust to a burst of load from elsewhere on the
   machine: [events] are (completion time, weight) pairs of a run that
   started at [t0] and lasted [elapsed] seconds. Each whole second of the
   run is a window; the result is (median events per window, median weight
   per window, windows). With fewer than 3 whole windows it falls back to
   the rates over the whole run, in 1 window. *)
let window_rates ~t0 ~elapsed events =
  let nwin = int_of_float elapsed in
  if nwin < 3 then begin
    let n = List.length events and w = List.fold_left (fun acc (_, w) -> acc + w) 0 events in
    (float_of_int n /. elapsed, float_of_int w /. elapsed, 1)
  end
  else begin
    let counts = Array.make nwin 0 and weights = Array.make nwin 0 in
    List.iter
      (fun (t, w) ->
        let k = int_of_float (t -. t0) in
        if k >= 0 && k < nwin then begin
          counts.(k) <- counts.(k) + 1;
          weights.(k) <- weights.(k) + w
        end)
      events;
    let med a = median (Array.to_list (Array.map float_of_int a)) in
    (med counts, med weights, nwin)
  end
