(** Versioned, checksummed machine checkpoints.

    A checkpoint captures {e everything} that determines a machine
    simulation's future behaviour: firing counts and channel cursors
    ({!Machine.persist}), the cache's per-set recency order and statistics
    ({!Ccs_cache.Cache.persist}), per-entity attribution counters, and the
    tracer's logical clock.  Restoring it into a machine built from the
    same graph, cache configuration and channel capacities therefore
    resumes the run {e bit-identically}: an interrupted-and-resumed run
    reports exactly the miss counts, attribution and sink outputs of an
    uninterrupted one (enforced by a QCheck property in the test suite).

    Files are framed by {!Ccs_sdf.Binio}: magic ["CCSCKPT1"], format
    version, payload length, FNV-1a checksum.  Corruption, truncation and
    version skew surface as structured [Checkpoint_corrupt] /
    [Checkpoint_version] errors; a checkpoint that is intact but belongs
    to a different graph, cache configuration or capacity vector is
    rejected with [Checkpoint_mismatch] naming the offending field. *)

type observers = {
  counters : (int array * int array) option;
      (** Per-entity (accesses, misses), when counters were attached. *)
  tracer : (int * int) option;
      (** Tracer (logical clock, dropped events), when a tracer was
          attached. *)
}

type t = {
  graph_digest : string;  (** Hex MD5 of the graph's canonical text form. *)
  plan_name : string;
  epoch : int;  (** Supervisor epoch at which the snapshot was taken. *)
  cache_config : Ccs_cache.Cache.config;
  capacities : int array;
  machine : Machine.persisted;
  cache : Ccs_cache.Cache.persisted;
  observers : observers;
}

val magic : string
val version : int

val graph_digest : Ccs_sdf.Graph.t -> string
(** The digest stored in (and checked against) a checkpoint. *)

val capture : plan_name:string -> epoch:int -> Machine.t -> t
(** Snapshot a machine's complete execution state. *)

val save : ?metrics:Ccs_obs.Metrics.t -> path:string -> t -> unit
(** Write atomically (unique temp file + rename, {!Ccs_sdf.Binio}).  With
    [metrics], bumps [ccs_checkpoint_saves_total] and observes
    [ccs_checkpoint_save_us] (encode+write wall-clock latency,
    microseconds, from {!Clock}) and [ccs_checkpoint_bytes] (payload
    size).
    @raise Sys_error on I/O failure. *)

val load :
  ?metrics:Ccs_obs.Metrics.t -> path:string -> unit -> (t, Ccs_sdf.Error.t) result
(** Read and fully validate a checkpoint file's framing and payload
    structure.  Errors: [Io], [Checkpoint_corrupt], [Checkpoint_version].
    With [metrics], successful loads bump [ccs_checkpoint_loads_total] and
    observe [ccs_checkpoint_load_us] / [ccs_checkpoint_bytes]. *)

val validate : path:string -> t -> Machine.t -> (unit, Ccs_sdf.Error.t) result
(** Check that a loaded checkpoint belongs to this machine: same graph
    digest, cache configuration, channel capacities and counter arity.
    [path] only labels the error. *)

val restore : path:string -> t -> Machine.t -> (unit, Ccs_sdf.Error.t) result
(** {!validate}, then overwrite the machine's execution state, cache
    recency/statistics, counters and tracer clock with the checkpoint's. *)

val load_into :
  ?metrics:Ccs_obs.Metrics.t ->
  path:string ->
  Machine.t ->
  (t, Ccs_sdf.Error.t) result
(** [load] followed by [restore]; returns the checkpoint (for its epoch). *)

(** {2 Payload codecs}

    The pieces {!save} writes, shared with the multiprocessor session
    snapshot ({!Ccs_multi.Multi_machine.save_session}).  Decoders raise
    [Checkpoint_corrupt] on malformed bytes. *)

val encode_machine : Ccs_sdf.Binio.W.t -> Machine.persisted -> unit
val decode_machine : Ccs_sdf.Binio.R.t -> Machine.persisted
val encode_cache : Ccs_sdf.Binio.W.t -> Ccs_cache.Cache.persisted -> unit

val decode_cache :
  path:string -> Ccs_sdf.Binio.R.t -> Ccs_cache.Cache.persisted

val observers_of : Machine.t -> observers
(** The machine's attached counters and tracer clock. *)

val encode_observers : Ccs_sdf.Binio.W.t -> observers -> unit
val decode_observers : Ccs_sdf.Binio.R.t -> observers

val validate_observers :
  path:string -> observers -> Machine.t -> (unit, Ccs_sdf.Error.t) result
(** The counter-arity check of {!validate}. *)

val restore_observers : observers -> Machine.t -> unit
(** The observer half of {!restore}: load the saved counters (or reset the
    machine's when none were saved) and the tracer clock.  Call after
    {!validate_observers}. *)
