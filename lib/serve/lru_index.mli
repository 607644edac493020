(** Weighted LRU index over string keys.

    The plan store's in-memory index and the per-worker hot cache.
    Recency is kept by the cache simulator's own {!Ccs.Lru} over small
    int ids, one per live key; this module adds the key -> id table and
    each key's weight and value, and grows the recency set with
    {!Ccs.Lru.resize} when it is full.  The cache-conscious scheduler's
    own plan store is itself a bounded cache — eviction order here
    decides which [.ccsplan] records survive.

    Not thread-safe; each daemon worker owns its instances. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
(** Live entries. *)

val total_weight : 'a t -> int
(** Sum of live entries' weights (the store's byte total). *)

val find : 'a t -> string -> 'a option
(** Lookup without promoting. *)

val touch : 'a t -> string -> 'a option
(** Lookup and promote to most-recently-used. *)

val add : 'a t -> string -> weight:int -> 'a -> unit
(** Insert as most-recently-used; re-adding an existing key updates its
    weight/value and promotes it. *)

val remove : 'a t -> string -> bool

val evict_lru : 'a t -> (string * int * 'a) option
(** Pop the least-recently-used entry, or [None] if empty. *)

val to_list_mru_first : 'a t -> string list
(** Keys in recency order (for tests). *)
