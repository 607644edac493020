(** Crash-safe supervised execution of a plan: the one epoch loop.

    The supervisor drives any {!Plan.t} in {e epochs} — batch-aligned
    output quanta (one schedule period's worth of sink firings by default)
    — and checkpoints the complete machine state every [checkpoint_every]
    epochs through {!Ccs_exec.Checkpoint}.  The same loop runs under a
    chaos environment and, with [adapt], consults the {!Adapt} policy at
    every epoch boundary.  An epoch's steps run in a fixed order: chaos
    conditions, a due replan, the (burst-scaled) target, the drive, the
    checkpoint, and detection.

    Structured faults raised during an epoch ({!Ccs_sdf.Error.Fault},
    deadlocks, budget exhaustion) are caught; the run rolls back to its
    restore point — the last checkpoint it wrote or resumed from, with the
    adaptation state held in memory beside it, or else the start of the
    run — and the epoch is retried under an exponential {e logical-time}
    backoff.  A site that faults deterministically — same site, same
    firing index, twice in a row — or exhausts [max_retries] is
    {e quarantined}: the run stops with {!Ccs_sdf.Error.Quarantined}
    naming the site, firing index, attempt count and the restore point's
    checkpoint.

    Determinism invariant (QCheck properties over random graphs, chaos
    environments and kill points): a run killed at any epoch and resumed
    with [~resume:true] reports exactly the miss counts, per-entity
    attribution and sink outputs of an uninterrupted run.  Epoch targets
    and the cache configuration in force are a pure function of
    [(outputs, epoch_outputs, env)], so the resumed run replays the
    identical firing sequence.  Adaptation state is not in the checkpoint,
    so an adapting run cannot resume from disk. *)

type config = {
  checkpoint_every : int;  (** Epochs between checkpoints (default 4). *)
  max_retries : int;  (** Faults tolerated before quarantine (default 4). *)
  backoff_base : int;
      (** Logical delay unit; retry [k] adds [backoff_base * 2^(k-1)]
          (default 1). *)
  keep : int;  (** Checkpoint files retained on disk (default 2). *)
}

val default_config : config

type report = {
  result : Runner.result;  (** Measured on the final plan's machine. *)
  epochs : int;  (** Epochs the full run spans. *)
  epoch_outputs : int;  (** Sink outputs per epoch (before bursts). *)
  checkpoints_written : int;
  resumed_from : int option;  (** Epoch restored on [~resume:true]. *)
  retries : int;  (** Faulted epochs re-executed. *)
  logical_delay : int;  (** Total backoff charged, in logical units. *)
  chaos_events : int;  (** Cache configuration changes the run spans. *)
  io_faults : int;  (** Checkpoint writes lost to I/O-fault windows. *)
  adaptations : Adapt.event list;  (** Ladder steps, in order. *)
  final_plan : Plan.t;  (** The live plan at the end of the run. *)
}

val run :
  ?config:config ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?epoch_outputs:int ->
  ?env:Ccs_exec.Fault.env ->
  ?adapt:Adapt.t ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  ?log:Ccs_obs.Log.t ->
  ?prepare:(Ccs_exec.Machine.t -> unit) ->
  ?on_epoch:(epoch:int -> machine:Ccs_exec.Machine.t -> unit) ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  outputs:int ->
  unit ->
  (report, Ccs_sdf.Error.t) result
(** Drive [plan] to [outputs] sink firings under supervision.

    [checkpoint_dir] enables checkpointing (created if missing; the newest
    [config.keep] epoch checkpoints are retained).  [resume] restores the
    latest checkpoint in [checkpoint_dir] before running — rejecting it
    with [Checkpoint_mismatch] if it belongs to a different graph, cache
    configuration, capacity vector or plan — and is a no-op when there is
    none.  [prepare] runs on every machine the loop builds (initial, after
    each rollback, each migration target) — the place for fire hooks such
    as fault injection or a data-carrying engine.  [on_epoch] fires after
    each completed epoch, {e after} any checkpoint write, so killing the
    process inside it simulates a crash with the checkpoint durable.  The
    default epoch quantum is the sink's firings per schedule period (its
    repetition count for dynamic plans).

    [env] (default none) is the chaos environment: [cache] is the
    {e nominal} configuration, and each epoch's conditions resize the
    machine's cache, multiply its output quantum, or fail its checkpoint
    writes (counted in [io_faults]; the run continues).  [adapt] turns on
    the {!Adapt} ladder; [plan] must then be the planner's plan for
    [cache].  A migration writes a post-mortem [migrate-<epoch>.ccsckpt],
    which is never a restore point.

    [metrics] registers the [ccs_supervisor_*] series (and with [adapt]
    the [ccs_adapt_*] ones) and is threaded to the machine, the watchdog
    and checkpoint I/O; the machine's cache gauges are synced at every
    epoch boundary.  [log] receives one structured event per lifecycle
    step: [run_start], [resume], [chaos], [burst], [adaptation], [epoch],
    [checkpoint], [checkpoint_io_fault], [retry], [rollback],
    [quarantine], [run_end].  Neither changes the firing sequence.

    Errors: [Quarantined], checkpoint errors on resume, [Failure_msg] for
    [resume] with [adapt] or an invalid policy, and machine-construction
    errors.
    @raise Invalid_argument on non-positive [checkpoint_every], [keep] or
    [epoch_outputs], or negative [max_retries]. *)

val latest_checkpoint : string -> (int * string) option
(** The newest [(epoch, path)] checkpoint in a directory, if any. *)

val pp_report : Format.formatter -> report -> unit
