(** The data-carrying execution engine.

    Wraps a {!Ccs_exec.Machine} (which does legality checking and cache
    accounting) and moves {e real tokens} through per-channel FIFO queues
    by invoking each module's kernel whenever the machine fires it.  The
    coupling uses the machine's fire hook, so {e any} plan — static batch
    schedules or the dynamic half-full drivers — runs real data without
    modification: the scheduler neither knows nor cares that computation
    is attached.

    Tokens are floats; channels with initial delay start with that many
    zero tokens, matching the scheduling semantics.

    {2 Fault containment}

    The [_checked] constructors and runners contain misbehaving kernels
    (including those wrapped by {!Program.inject}) instead of crashing or
    corrupting downstream state: a kernel that raises, emits non-finite
    tokens (with [validate]), or initialises state of the wrong arity comes
    back as a structured {!Ccs_sdf.Error.Fault} naming the module.

    {2 Sink-stream oracle}

    An engine records one value per sink firing: a digest of the exact
    bits of the tokens consumed.  Each module's k-th firing consumes
    exactly what its producers' earlier firings pushed, so by Kahn
    determinism these streams depend only on the program — not on the
    schedule, the cache, or mid-run repartitioning.  A {!detached} engine
    {!attach}ed to every machine a run creates (e.g. through
    {!Ccs_sched.Supervisor.run}'s [prepare]) survives checkpointed migration,
    because {!Ccs_exec.Machine.migrate} carries channel token counts and
    the token values were never machine state; {!mismatches} against an
    undisturbed reference run is then the bit-exactness verdict. *)

type t

exception Out_of_sync of { node : string; edge : Ccs_sdf.Graph.edge }
(** Raised from the fire hook when, after module [node] fired, channel
    [edge] holds a different number of data tokens than the machine
    counts: some firing bypassed the engine (its machine ran without the
    engine's fire hook). *)

val create :
  ?record_trace:bool ->
  ?validate:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  capacities:int array ->
  unit ->
  t
(** With [validate] (default [false]) every firing's outputs are checked
    for non-finite tokens; a violation raises
    [Ccs_sdf.Error.Error (Fault _)].  [counters]/[tracer]/[metrics] are
    handed to the underlying {!Ccs_exec.Machine.create} for per-entity
    miss attribution, event tracing and registry metrics (cache gauges are
    synced when a plan run completes).
    @raise Invalid_argument if some kernel's [init] returns state of the
    wrong length. *)

val create_checked :
  ?record_trace:bool ->
  ?validate:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  capacities:int array ->
  unit ->
  (t, Ccs_sdf.Error.t) result
(** Like {!create} but [validate] defaults to [true] and every
    construction failure is a structured error: a wrong-arity [init] is a
    [Fault] with class [Bad_state_arity] naming the module, and capacity
    violations surface as [Failure_msg] rather than exceptions. *)

val detached : Program.t -> t
(** An engine with fresh kernel state and no machine yet: {!attach} one
    before firing.
    @raise Invalid_argument if some kernel's [init] returns state of the
    wrong length. *)

val attach : t -> Ccs_exec.Machine.t -> unit
(** Install the engine as the machine's fire hook and make it the
    engine's machine.  The machine must run the engine's graph with
    channel token counts matching the engine's queues — a fresh machine
    for a fresh engine, or the {!Ccs_exec.Machine.migrate} target of the
    engine's previous machine. *)

val machine : t -> Ccs_exec.Machine.t
(** The machine the engine is attached to (statistics, occupancies; the
    fire hook slot is owned by the engine — do not overwrite it).
    @raise Invalid_argument on a {!detached} engine never attached. *)

val fire : t -> Ccs_sdf.Graph.node -> unit
(** Fire one module: checks legality, moves cache blocks, and runs the
    kernel.
    @raise Out_of_sync if the engine missed earlier firings. *)

val run_plan : t -> Ccs_sched.Plan.t -> outputs:int -> Ccs_sched.Runner.result
(** Drive the engine's machine with the plan until the sink has fired
    [outputs] times, running every kernel along the way; returns the same
    measurement record as {!Ccs_sched.Runner.run}.
    @raise Invalid_argument if the plan's capacities differ from the
    engine's (they must be built from the same plan). *)

val run_plan_checked :
  ?budget:int ->
  t ->
  Ccs_sched.Plan.t ->
  outputs:int ->
  (Ccs_sched.Runner.result, Ccs_sdf.Error.t) result
(** {!run_plan} under the {!Ccs_sched.Watchdog}: kernel faults come back
    as [Fault] errors, stalls as [Deadlocked]/[Budget_exhausted] with a
    machine snapshot, and a capacity mismatch as [Plan_invalid] — no
    exception escapes for any of the fault classes under test. *)

val of_plan :
  ?record_trace:bool ->
  ?validate:bool ->
  ?counters:Ccs_obs.Counters.t ->
  ?tracer:Ccs_obs.Tracer.t ->
  ?metrics:Ccs_obs.Metrics.t ->
  program:Program.t ->
  cache:Ccs_cache.Cache.config ->
  plan:Ccs_sched.Plan.t ->
  unit ->
  t
(** Engine with the plan's own capacities. *)

val state : t -> Ccs_sdf.Graph.node -> float array
(** A module's live state vector (the kernel's working data). *)

val queue_length : t -> Ccs_sdf.Graph.edge -> int
(** Data tokens currently queued on a channel (always equals the machine's
    token count). *)

val mismatches : reference:t -> t -> int
(** Positions in the common prefix of each sink's value stream where the
    two engines disagree, plus every value of a sink unknown to
    [reference].  Comparing prefixes (not lengths) is deliberate:
    epoch-aligned runs overshoot a requested output count to a
    whole-period boundary, so two correct runs may differ in length but
    never in content. *)

val compared : reference:t -> t -> int
(** Number of sink values {!mismatches} actually compared (the summed
    common-prefix lengths) — guards against vacuous zero-mismatch
    verdicts. *)
