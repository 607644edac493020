(** The daemon's persistent on-disk plan cache.

    One {!Ccs.Binio} framed/checksummed record per cached plan, named
    [<key-digest>.ccsplan] under the cache directory, where the digest is
    {!Ccs.Plan_key.digest} over the full composite key (graph digest,
    cache configuration, pinned capacities, planner version).  Each record
    embeds the key it was stored under and {!lookup} re-validates it with
    {!Ccs.Plan_key.check} — so even a renamed or colliding file is
    rejected with a structured [Checkpoint_mismatch] naming the offending
    field, never silently served for the wrong configuration.

    Records are written with the shared atomic-write discipline (unique
    temp file + rename), so concurrent workers racing to populate the
    same key are safe: the last complete record wins, and both are
    byte-identical anyway because planning is deterministic. *)

val magic : string
val version : int

val path : dir:string -> Ccs.Plan_key.t -> string
(** Where a key's record lives: [dir/<digest>.ccsplan]. *)

val store : dir:string -> key:Ccs.Plan_key.t -> Protocol.artifact -> unit
(** Persist an artifact under its key (creating [dir] if needed).
    @raise Sys_error on I/O failure. *)

val lookup :
  dir:string ->
  key:Ccs.Plan_key.t ->
  (Protocol.artifact option, Ccs.Error.t) result
(** [Ok None] if no record exists; [Error] on a corrupt frame
    ([Checkpoint_corrupt]), format skew ([Checkpoint_version]) or a
    record whose embedded key disagrees with [key]
    ([Checkpoint_mismatch]). *)

(** A size-bounded view of the store with LRU eviction and self-healing.

    The durable index is the directory itself — one file per record,
    mtime as recency (bumped on every hit) — so it is crash-safe by
    construction; {!Bounded.create} rebuilds an in-memory
    {!Lru_index} mirror with a startup sweep that validates every
    record and moves torn or mismatched ones to [dir/quarantine/].
    Eviction re-scans the directory first, so records written by
    sibling daemon workers count against the bound and the globally
    least-recent record goes first. *)
module Bounded : sig
  type bounds = { max_bytes : int; max_entries : int }
  (** [0] means unbounded on that axis. *)

  val unbounded : bounds

  type t

  val create : ?log:Ccs.Log.t -> dir:string -> bounds:bounds -> unit -> t
  (** Open (creating [dir] if needed), sweep, quarantine invalid
      records, and enforce [bounds] on what survives. *)

  val store : t -> key:Ccs.Plan_key.t -> Protocol.artifact -> unit
  (** Persist and enforce bounds (the new record is most-recent, so it
      survives unless it alone exceeds [max_bytes]).
      @raise Sys_error on I/O failure. *)

  val lookup : t -> key:Ccs.Plan_key.t -> Protocol.artifact option
  (** Hit bumps recency.  A corrupt, truncated or key-mismatched record
      is quarantined and reported as a miss: the caller rebuilds, and
      determinism makes the rebuilt record bit-identical to a healthy
      one. *)

  val bytes : t -> int
  (** Bytes of live records, per the mirror (feeds the store gauge). *)

  val entries : t -> int

  val evictions : t -> int
  (** Records evicted over this handle's lifetime. *)

  val quarantined : t -> int
  (** Records quarantined over this handle's lifetime. *)
end
