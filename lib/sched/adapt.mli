(** Adaptive resilience: detect sustained cache degradation from live miss
    telemetry and respond by degrading gracefully, then repartitioning
    online.

    The paper's bounds (Lemmas 4 and 8) hold for the cache a plan was built
    for.  This module is the policy that closes the loop when that
    assumption breaks at run time; {!Supervisor.run} is the epoch loop that
    consults it.  After every epoch the loop hands the measured misses and
    inputs to {!detect}, which compares an EWMA of the misses-per-input
    against the live plan's predicted bound.  A ratio above threshold for
    [patience] consecutive epochs climbs a two-rung ladder:

    + {b graceful degradation} — the next epochs run the partition-free
      latest-first fallback ({!epoch_plan}) on the {e same} machine: no
      planning latency, no buffered state lost;
    + {b online repartitioning} — [repartition_delay] epochs later the
      background replan is {!due} and {!migrate} moves execution onto a
      machine built for a plan for the estimated effective capacity —
      firing counts, channel contents and cumulative miss totals carry
      over; only cache residency is forfeit.

    The effective capacity is {e estimated}, never read from the chaos
    plan: each sustained breach halves the assumption, converging to
    within 2x of the truth — inside the constant-factor augmentation the
    paper's results already tolerate.  With [probe_restore], headroom far
    below the bound for [patience] epochs probes one doubling back up.

    The {!state} is an immutable value, so the loop can hold the state it
    had at a checkpoint and roll back to it after a fault.  It is not in
    the checkpoint file, which is why an adapting run cannot resume from
    disk. *)

type planned = { plan : Plan.t; predicted_mpi : float }
(** A plan together with its Lemma-4/8 predicted misses per input
    ({!Analysis.partition_cost_prediction}) — the yardstick degradation is
    measured against. *)

type planner = Ccs_cache.Cache.config -> planned
(** Invoked with the cache configuration to plan for.  Supplied by the
    caller (typically wrapping [Ccs.Auto.plan]) because the planning layer
    sits above this library. *)

type policy = {
  ewma_alpha : float;  (** EWMA smoothing for measured mpi (default 0.5). *)
  degrade_ratio : float;
      (** Breach threshold: measured EWMA over predicted bound
          (default 1.5). *)
  patience : int;  (** Consecutive breach epochs before acting (2). *)
  cooldown : int;  (** Detection-free epochs after an adaptation (2). *)
  repartition_delay : int;
      (** Epochs the background replan takes; the fallback covers them
          (1). *)
  max_adaptations : int;  (** Ladder-step budget per run (8). *)
  probe_restore : bool;
      (** Enable upward probing after sustained headroom (default off). *)
  restore_ratio : float;
      (** Headroom threshold for probing: EWMA below this fraction of the
          bound (0.25). *)
}

val default_policy : policy

type t = { policy : policy; planner : planner }
(** The adaptation argument of {!Supervisor.run}. *)

type action = Degrade | Repartition | Probe_restore

type event = {
  at_epoch : int;
  action : action;
  from_plan : string;  (** {!Plan.id} of the plan being left. *)
  to_plan : string;  (** {!Plan.id} of the plan taking over. *)
  assumed_words : int;  (** Effective capacity assumed after the step. *)
}

type state
(** The live plan, the assumed effective capacity, the EWMA detector, the
    ladder (degraded flag, pending replan, cooldown) and the events so far. *)

val start :
  ?metrics:Ccs_obs.Metrics.t ->
  ?log:Ccs_obs.Log.t ->
  t option ->
  graph:Ccs_sdf.Graph.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Plan.t ->
  state
(** The state at the start of a run of [plan] on the nominal [cache].
    With [None] the ladder never moves: {!live} stays [plan] and {!due} and
    {!detect} are no-ops.  Otherwise the planner is asked for [cache] to
    learn the plan's predicted bound, [metrics] registers the [ccs_adapt_*]
    series and [log] receives one [adaptation] event per ladder step.
    @raise Invalid_argument on an invalid policy, or when [plan] is not the
    planner's plan for [cache]. *)

val live : state -> planned
(** The plan the run is on (the fallback drives with its capacities while
    degraded). *)

val events : state -> event list
(** Ladder steps taken, in occurrence order. *)

val epoch_plan : state -> Plan.t
(** The plan to drive the next epoch with: the live plan, or while degraded
    the latest-first fallback at the live plan's capacities. *)

val due : state -> state * int option
(** Count the pending background replan down one epoch boundary; [Some
    words] when it completes at this boundary and {!migrate} must run with
    [Repartition] for [words]. *)

val detect :
  state -> epoch:int -> misses:int -> inputs:int -> state * int option
(** Feed one completed epoch's measured misses and source inputs to the
    detector.  May step the ladder (degrade, scheduling a replan).
    [Some words] asks the caller to {!migrate} with [Probe_restore] now.
    [epoch] labels events. *)

val migrate :
  state ->
  action ->
  words:int ->
  epoch:int ->
  post_mortem:(Ccs_exec.Machine.t -> unit) ->
  fresh:(Plan.t -> Ccs_exec.Machine.t) ->
  Ccs_exec.Machine.t ->
  state * Ccs_exec.Machine.t
(** Complete a replan for [words] of effective capacity: fire the machine
    to a whole period so every channel is back in its delay state, hand it
    to [post_mortem] (a checkpoint write), plan for [words], build the new
    machine with [fresh] (its capacities widened to hold the buffered
    tokens) and migrate execution onto it.  Returns the new state and the
    machine to continue on.
    @raise Ccs_sdf.Error.Error ([Deadlocked]) if the period cannot be
    completed. *)

val pp_event : Format.formatter -> event -> unit
