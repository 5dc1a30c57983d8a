(** The 90/50 rule and the Ball–Larus heuristic set with Wu–Larus hit-rate
    probabilities — the paper's baselines and its fallback for branches
    whose value range is ⊥. Each heuristic returns [Some p] (probability of
    the true edge) when it applies. See the implementation header for how
    "backward branch" is interpreted structurally and why the pointer
    heuristic is absent in MiniC. *)

module Ir = Vrp_ir.Ir

type ctx = { fn : Ir.fn; loops : Vrp_ir.Loops.t; postdom : Vrp_ir.Dom.t }

val make_ctx : Ir.fn -> ctx

(** Block-shape predicates shared with the learned predictor's feature
    extractor, so both tiers read the same structural signals. *)
val block_has_call : ctx -> int -> bool

val block_has_store : ctx -> int -> bool
val block_returns : ctx -> int -> bool

(** [postdominates ctx a b]: does block [a] postdominate block [b]? *)
val postdominates : ctx -> int -> int -> bool

(** The individual heuristics the tests exercise one by one. *)
val loop_branch : ctx -> src:int -> Ir.branch -> float option

val loop_header : ctx -> src:int -> Ir.branch -> float option
val call : ctx -> src:int -> Ir.branch -> float option
val opcode : ctx -> src:int -> Ir.branch -> float option
val store : ctx -> src:int -> Ir.branch -> float option
val return : ctx -> src:int -> Ir.branch -> float option

(** Dempster–Shafer combination of every applicable heuristic. *)
val ball_larus : ctx -> src:int -> Ir.branch -> float

(** The 90/50 rule: structurally-backward branches 90%, else 50/50. *)
val ninety_fifty : ctx -> src:int -> Ir.branch -> float
