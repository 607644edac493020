(** A fixed-capacity ring that overwrites its oldest element once full.

    The one bounded-history core behind {!Span}'s span ring and
    {!Flight}'s log ring: [push] is one store plus a counter bump, the
    retained window replays in arrival order, and [dropped] counts what
    the ring has overwritten.  ({!Tracer} keeps its own packed int ring:
    a boxed-element ring costs several times more per event on its hot
    path.) *)

type 'a t

val create : capacity:int -> 'a -> 'a t
(** [create ~capacity fill] retains the last [max 1 capacity] elements;
    [fill] only initialises the unused slots. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append, overwriting the oldest element when full. *)

val length : 'a t -> int
(** Elements currently retained ([<= capacity]). *)

val total : 'a t -> int
(** Elements ever pushed. *)

val dropped : 'a t -> int
(** Elements overwritten ([total - length]). *)

val iter : 'a t -> f:('a -> unit) -> unit
(** Retained elements, oldest first. *)

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)
