(** Growable arrays (OCaml 5.1 has no [Dynarray]). *)

type 'a t

(** [create ~dummy] is an empty vector; [dummy] fills unused capacity. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** @raise Invalid_argument on out-of-bounds access. *)
val get : 'a t -> int -> 'a

(** @raise Invalid_argument on out-of-bounds access. *)
val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

(** @raise Invalid_argument when empty. *)
val pop : 'a t -> 'a

val clear : 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t
val map : dummy:'b -> ('a -> 'b) -> 'a t -> 'b t
