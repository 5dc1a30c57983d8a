(** Deterministic pseudo-random number generator (splitmix64), used wherever
    reproducible randomness is needed so that every run prints identical
    numbers. *)

type t

val create : int -> t

(** [int t bound] is uniform in [[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [[0, 1)]. *)
val float : t -> float

(** [range t lo hi] is uniform in [[lo, hi]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)
val range : t -> int -> int -> int
