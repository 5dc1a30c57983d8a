(* Benchmark inputs: the batch/predict corpus and the serve-edit edit stream.

   Corpus. The 22 hand-written suite programs (the paper's Figures 7/8
   inputs, so accuracy is scored on them) plus synthetic programs spread
   in size ([units] 2..24) and statement mix (one [Synth.weights] profile
   each: loops, arrays, data loops, branches, calls, affine). The program
   texts are fixed: their sizes and mixes are what the engine's cost
   depends on, and keeping them fixed keeps allocation exactly repeatable
   from run to run. The seed decides each file's name prefix, and so the
   order in which [vrpc batch] visits the files.

   Edit stream. Every serve-edit client owns a session on one program
   ([edit_base]) whose editable functions [leafK] each store into a global
   behind one comparison. An edit rewrites exactly one leaf: the compared
   constant [c] (cycled through a fixed set inside the argument's range, so
   both arms stay reachable and the analysis does the same work) and the
   stored constant [d] (drawn fresh per edit, so no edit repeats within a
   run). The leaf's return value does not depend on either constant, so
   no caller's cache key moves: one changed function, one cache miss. *)

module Suite = Vrp_suite.Suite
module Synth = Vrp_suite.Synth
module Prng = Vrp_util.Prng

(* (units, synth seed, weights): a fixed ladder of sizes and mixes. *)
let synth_shapes =
  let w counted_loops nested_arrays data_loops branchy calls affine =
    { Synth.counted_loops; nested_arrays; data_loops; branchy; calls; affine }
  in
  [
    (2, 11, Synth.default_weights);
    (4, 12, w 3 1 0 1 0 0);
    (6, 13, w 1 3 0 1 0 0);
    (8, 14, w 0 1 3 1 0 0);
    (10, 15, w 1 0 1 3 0 0);
    (12, 16, w 1 1 1 1 2 0);
    (16, 17, w 1 1 0 1 0 2);
    (24, 18, w 1 1 1 1 1 1);
  ]

(* A seeded permutation of [0 .. n-1] (Fisher–Yates on splitmix64). *)
let permutation ~seed n =
  let a = Array.init n Fun.id in
  let rng = Prng.create seed in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type file = {
  name : string;  (** file name, e.g. ["07_qsort.mc"] *)
  source : string;
  bench : Suite.benchmark option;  (** the suite program it is, if any *)
}

(* The corpus in name order (the order [vrpc batch] visits it). *)
let corpus ~seed =
  let base =
    List.map (fun (b : Suite.benchmark) -> (b.Suite.name, b.Suite.source, Some b))
      Suite.benchmarks
    @ List.map
        (fun (units, s, weights) ->
          (Printf.sprintf "synth%d" units, Synth.generate ~weights ~units ~seed:s (), None))
        synth_shapes
  in
  let perm = permutation ~seed (List.length base) in
  List.mapi
    (fun i (stem, source, bench) ->
      { name = Printf.sprintf "%02d_%s.mc" perm.(i) stem; source; bench })
    base
  |> List.sort (fun a b -> String.compare a.name b.name)

(* --- serve-edit --- *)

let leaves = 4

(* Compared constants: inside the range of [x + i] ([-1, 70]), where the
   engine does the same number of evaluations whichever one is set. *)
let c_values = [| 3; 9; 17; 24; 31; 40; 48; 57 |]

type edit = { leaf : int; c : int; d : int }

let leaf_name k = Printf.sprintf "leaf%d" k

let leaf_src { leaf; c; d } =
  Printf.sprintf
    "int %s(int x) {\n\
    \  int acc = 0;\n\
    \  for (int i = 0; i < 32; i = i + 1) {\n\
    \    if (x + i > %d) { sink[%d] = sink[%d] + %d; }\n\
    \    acc = acc + i %% 3;\n\
    \  }\n\
    \  return acc;\n\
     }\n\n"
    (leaf_name leaf) c leaf leaf d

(* The program a session holds after the edits [state] (one per leaf). *)
let edit_program (state : edit array) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "int rng;\nint sink[8];\n\n";
  Array.iter (fun e -> Buffer.add_string buf (leaf_src e)) state;
  for j = 0 to (leaves / 2) - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "int mid%d(int n) {\n\
         \  int m = n %% 40;\n\
         \  if (m < 0) { m = 0 - m; }\n\
         \  return %s(m) + %s(m - 1);\n\
          }\n\n"
         j (leaf_name (2 * j)) (leaf_name ((2 * j) + 1)))
  done;
  Buffer.add_string buf "int main(int n, int seed) {\n  rng = seed;\n  int t = 0;\n";
  Buffer.add_string buf "  for (int r = 0; r < n; r = r + 1) {\n";
  for j = 0 to (leaves / 2) - 1 do
    Buffer.add_string buf (Printf.sprintf "    t = t + mid%d(r + rng);\n" j)
  done;
  Buffer.add_string buf "  }\n  return t;\n}\n";
  Buffer.contents buf

let edit_base () = Array.init leaves (fun k -> { leaf = k; c = c_values.(0); d = k + 1 })

(* The edit stream of one client: [next] returns the edit to apply and the
   whole new source. [d] is unique across clients and edits: client [i] of
   [clients] draws [d = base + (count * clients + i)], with [base] past
   every [d] of [edit_base]. The leaf and the compared constant come from
   the seed. *)
type stream = {
  state : edit array;
  rng : Prng.t;
  client : int;
  clients : int;
  mutable count : int;
}

let stream ~seed ~client ~clients =
  { state = edit_base (); rng = Prng.create ((seed * 7919) + client); client; clients;
    count = 0 }

let next s =
  let prev = s.state in
  let leaf = Prng.int s.rng leaves in
  let c =
    (* always a different comparison than the leaf holds now *)
    let k = ref (Prng.int s.rng (Array.length c_values)) in
    if c_values.(!k) = prev.(leaf).c then k := (!k + 1) mod Array.length c_values;
    c_values.(!k)
  in
  let d = 1000 + (s.count * s.clients) + s.client in
  s.count <- s.count + 1;
  let e = { leaf; c; d } in
  s.state.(leaf) <- e;
  (e, edit_program s.state)
