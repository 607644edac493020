(** O(1) LRU set over integer keys.

    An intrusive doubly-linked recency list threaded through preallocated
    int arrays, plus an open-addressed key->slot table — no per-access
    allocation on the {!touch_hit} fast path.  Used as the replacement
    engine of the fully-associative cache; exposed separately so its
    invariants can be property-tested on their own. *)

type t

val create : capacity:int -> t
(** An empty LRU set holding at most [capacity] keys.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int
val size : t -> int

val evictions : t -> int
(** Entries displaced by replacement since creation — a monotone
    diagnostic counter for the telemetry layer.  {!clear} and
    {!restore_mru_first} do {e not} reset it (a flush is not an
    eviction). *)

val mem : t -> int -> bool
(** Membership test; does {e not} update recency. *)

val touch : t -> int -> [ `Hit | `Miss of int option ]
(** [touch t k] records a use of [k].  If [k] was present it moves to
    most-recently-used position and the result is [`Hit].  Otherwise [k] is
    inserted and the result is [`Miss evicted], where [evicted] is the
    least-recently-used key removed to make room (or [None] if the set was
    not yet full). *)

val touch_hit : t -> int -> bool
(** [touch_hit t k] is [touch t k = `Hit] but allocation-free: it performs
    the same recency update and (on miss) insertion/eviction, returning
    only whether the access hit.  This is the simulation hot path. *)

val least_recent : t -> int option
(** The least-recently-used key, or [None] if empty; does {e not} update
    recency. *)

val remove : t -> int -> bool
(** [remove t k] deletes [k]; returns whether it was present. *)

val clear : t -> unit

val to_list_mru_first : t -> int list
(** Keys in recency order, most recent first (for tests and
    checkpointing). *)

val resize : t -> capacity:int -> t
(** [resize t ~capacity] is a set with the new capacity holding the
    [min (size t, capacity)] most-recently-used keys of [t], in their exact
    recency order — the deterministic "keep the hottest residents" rule the
    adaptive cache uses when capacity shrinks under contention.  Keys that
    no longer fit count as evictions: the returned set's {!evictions}
    continues [t]'s monotone count plus the number dropped.  [t] itself is
    unchanged.
    @raise Invalid_argument if [capacity < 1]. *)

val restore_mru_first : t -> int array -> unit
(** [restore_mru_first t keys] clears [t] and reloads it so its recency
    order is exactly [keys] (most recent first) — the inverse of
    {!to_list_mru_first}.  Future replacement decisions are then
    bit-identical to the set the keys were dumped from.
    @raise Invalid_argument if [keys] exceeds capacity or holds
    duplicates. *)
