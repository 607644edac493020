(* Adaptation layer: close the loop from live miss telemetry back into the
   scheduler.

   The paper's bounds (Lemmas 4 and 8) are conditional on the cache the
   plan was built for.  When the environment breaks that assumption — a
   contending tenant shrinks the effective capacity, demand turns bursty —
   the plan's measured misses-per-input drift above its predicted bound.
   This module runs the epoch loop itself, watches the drift, and climbs a
   two-rung policy ladder:

   rung 1 (graceful degradation): switch the next epoch's driver to the
   partition-free latest-first fallback on the SAME machine — no planning
   latency, no buffered state lost — while the "background" replan runs;

   rung 2 (online repartitioning): one epoch later, plan for the estimated
   effective capacity, save a post-mortem checkpoint, build a machine for
   the new plan and migrate execution state onto it
   ({!Ccs_exec.Machine.migrate}), then resume under the new plan.

   Effective capacity is never read from the chaos plan — the adaptive
   system cannot see its adversary.  It is estimated by halving the
   assumed capacity on each sustained breach, which converges to within 2x
   of the truth in log steps, the same constant-factor slack the paper's
   cache-augmentation arguments already absorb. *)

module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Checkpoint = Ccs_exec.Checkpoint
module Fault = Ccs_exec.Fault
module Cache = Ccs_cache.Cache
module Metrics = Ccs_obs.Metrics
module Log = Ccs_obs.Log
module Json = Ccs_obs.Json

type planned = { plan : Plan.t; predicted_mpi : float }
type planner = Cache.config -> planned

type policy = {
  ewma_alpha : float;
  degrade_ratio : float;
  patience : int;
  cooldown : int;
  repartition_delay : int;
  max_adaptations : int;
  probe_restore : bool;
  restore_ratio : float;
}

let default_policy =
  {
    ewma_alpha = 0.5;
    degrade_ratio = 1.5;
    patience = 2;
    cooldown = 2;
    repartition_delay = 1;
    max_adaptations = 8;
    probe_restore = false;
    restore_ratio = 0.25;
  }

type action = Degrade | Repartition | Probe_restore

let action_to_string = function
  | Degrade -> "degrade"
  | Repartition -> "repartition"
  | Probe_restore -> "probe-restore"

type event = {
  at_epoch : int;
  action : action;
  from_plan : string;
  to_plan : string;
  assumed_words : int;
}

type report = {
  result : Runner.result;
  epochs : int;
  epoch_outputs : int;
  adaptations : event list;
  chaos_events : int;
  io_faults : int;
  checkpoints_written : int;
  final_plan : Plan.t;
  final_predicted_mpi : float;
  assumed_cache_words : int;
}

(* --- telemetry ------------------------------------------------------------ *)

type ametrics = {
  a_adaptations : Metrics.counter;
  a_degrades : Metrics.counter;
  a_repartitions : Metrics.counter;
  a_chaos : Metrics.counter;
  a_io_faults : Metrics.counter;
  a_assumed : Metrics.gauge;
  a_ewma : Metrics.gauge;
}

let make_ametrics reg =
  {
    a_adaptations =
      Metrics.counter reg ~help:"Adaptation ladder steps taken"
        "ccs_adapt_adaptations_total";
    a_degrades =
      Metrics.counter reg ~help:"Graceful-degradation fallbacks engaged"
        "ccs_adapt_degrades_total";
    a_repartitions =
      Metrics.counter reg ~help:"Online repartitions (plan migrations)"
        "ccs_adapt_repartitions_total";
    a_chaos =
      Metrics.counter reg ~help:"Chaos environment events applied"
        "ccs_adapt_chaos_events_total";
    a_io_faults =
      Metrics.counter reg ~help:"Checkpoint writes lost to injected I/O faults"
        "ccs_adapt_io_faults_total";
    a_assumed =
      Metrics.gauge reg ~help:"Effective cache capacity the live plan assumes"
        "ccs_adapt_assumed_cache_words";
    a_ewma =
      Metrics.gauge reg
        ~help:"EWMA of measured misses per input, in thousandths"
        "ccs_adapt_ewma_mpi_milli";
  }

(* --- conservative fallback ------------------------------------------------

   Latest-first dynamic driving: always fire the most-downstream fireable
   module.  This is the strategy {!Ccs_sdf.Minbuf} certifies feasible at
   any plan's capacities, so it is legal on the live machine without any
   planning — the property rung 1 needs.  It is cache-oblivious, which is
   the honest price of reacting instantly. *)

let fallback_drive graph =
  let order = Graph.topological_order graph in
  let n = Array.length order in
  fun machine ~target_outputs ->
    while Machine.sink_outputs machine < target_outputs do
      let fired = ref false in
      let i = ref (n - 1) in
      while (not !fired) && !i >= 0 do
        let v = order.(!i) in
        if Machine.can_fire machine v then begin
          Machine.fire machine v;
          fired := true
        end;
        decr i
      done;
      if not !fired then
        E.fail
          (E.Deadlocked
             {
               plan = "adapt-fallback";
               detail = "latest-first fallback cannot make progress";
               snapshot = Machine.snapshot machine;
             })
    done

let fallback_plan graph ~capacities =
  Plan.dynamic ~name:"adapt-fallback" ~capacities (fallback_drive graph)

(* --- the adaptive loop ---------------------------------------------------- *)

let run ?(policy = default_policy) ?(env = []) ?(adapt = true) ?checkpoint_dir
    ?(checkpoint_every = 4) ?epoch_outputs ?counters ?tracer ?metrics ?log
    ?prepare ?on_epoch ~graph ~cache ~planner ~outputs () =
  if policy.patience < 1 then invalid_arg "Adapt.run: patience must be >= 1";
  if policy.ewma_alpha <= 0.0 || policy.ewma_alpha > 1.0 then
    invalid_arg "Adapt.run: ewma_alpha must be in (0, 1]";
  if policy.degrade_ratio <= 1.0 then
    invalid_arg "Adapt.run: degrade_ratio must be > 1";
  if checkpoint_every <= 0 then
    invalid_arg "Adapt.run: checkpoint_every must be positive";
  let am = Option.map make_ametrics metrics in
  let ev level event fields =
    match log with Some l -> Log.log l level event fields | None -> ()
  in
  E.protect (fun () ->
      Option.iter Ccs_sdf.Binio.ensure_dir checkpoint_dir;
      let initial = planner cache in
      let epoch_outputs =
        match epoch_outputs with
        | Some k ->
            if k <= 0 then
              invalid_arg "Adapt.run: epoch_outputs must be positive";
            k
        | None -> Supervisor.default_epoch_outputs ~graph ~plan:initial.plan
      in
      let make_machine plan cfg =
        let m =
          Machine.create ?counters ?tracer ?metrics ~graph ~cache:cfg
            ~capacities:plan.Plan.capacities ()
        in
        (match prepare with Some f -> f m | None -> ());
        m
      in
      let current = ref initial in
      let applied_cfg = ref cache in
      let assumed_words = ref cache.Cache.size_words in
      let machine = ref (make_machine initial.plan cache) in
      (match am with
      | Some a -> Metrics.set a.a_assumed !assumed_words
      | None -> ());
      ev Log.Info "run_start"
        [
          ("plan", Json.String initial.plan.Plan.name);
          ("plan_digest", Json.String (Plan.id initial.plan));
          ("outputs", Json.Int outputs);
          ("epoch_outputs", Json.Int epoch_outputs);
          ("adapt", Json.Bool adapt);
          ("chaos", Json.String (Fault.env_to_string env));
        ];
      let produced_target = ref 0 in
      let epoch = ref 0 in
      let ewma = ref Float.nan in
      let breach = ref 0 in
      let clean = ref 0 in
      let cooldown_left = ref 0 in
      (* [Some (countdown, words)]: a replan for [words] completing in
         [countdown] more epoch boundaries. *)
      let pending = ref None in
      let degraded = ref false in
      let adaptations = ref [] in
      let chaos_events = ref 0 in
      let io_faults = ref 0 in
      let checkpoints_written = ref 0 in
      let record action ~from_plan ~to_plan =
        let e =
          {
            at_epoch = !epoch;
            action;
            from_plan;
            to_plan;
            assumed_words = !assumed_words;
          }
        in
        adaptations := e :: !adaptations;
        (match am with
        | Some a -> (
            Metrics.inc a.a_adaptations;
            Metrics.set a.a_assumed !assumed_words;
            match action with
            | Degrade -> Metrics.inc a.a_degrades
            | Repartition | Probe_restore -> Metrics.inc a.a_repartitions)
        | None -> ());
        ev Log.Warn "adaptation"
          [
            ("epoch", Json.Int !epoch);
            ("action", Json.String (action_to_string action));
            ("from_plan", Json.String from_plan);
            ("to_plan", Json.String to_plan);
            ("assumed_words", Json.Int !assumed_words);
          ]
      in
      let save_checkpoint ~io_ok ~name =
        match checkpoint_dir with
        | None -> ()
        | Some dir ->
            if io_ok then begin
              let path = Filename.concat dir name in
              Checkpoint.save ?metrics ~path
                (Checkpoint.capture
                   ~plan_name:(!current).plan.Plan.name
                   ~epoch:!epoch !machine);
              incr checkpoints_written;
              ev Log.Info "checkpoint"
                [ ("epoch", Json.Int !epoch); ("path", Json.String path) ]
            end
            else begin
              incr io_faults;
              (match am with
              | Some a -> Metrics.inc a.a_io_faults
              | None -> ());
              ev Log.Warn "checkpoint_io_fault" [ ("epoch", Json.Int !epoch) ]
            end
      in
      (* Fire every module up to a whole multiple of its repetition count,
         deepest-first.  After a fallback epoch (a dynamic driver that
         stops exactly at the output target) the machine sits mid-period;
         completing the period returns every channel to its initial-delay
         state, which is the only state a static period plan can legally
         resume from after migration.  The completion is always feasible at
         the live capacities: it is a suffix of the period the validated
         plan itself executes. *)
      let rep = (Ccs_sdf.Rates.analyze_exn graph).Ccs_sdf.Rates.repetition in
      let rank = Graph.topo_rank graph in
      let nodes = Graph.nodes graph in
      let complete_period () =
        let k_whole =
          List.fold_left
            (fun acc v ->
              max acc ((Machine.fires !machine v + rep.(v) - 1) / rep.(v)))
            0 nodes
        in
        let deficit v = (k_whole * rep.(v)) - Machine.fires !machine v in
        let progress = ref true in
        while !progress do
          let best = ref (-1) in
          List.iter
            (fun v ->
              if
                deficit v > 0
                && Machine.can_fire !machine v
                && (!best = -1 || rank.(v) > rank.(!best))
              then best := v)
            nodes;
          if !best >= 0 then Machine.fire !machine !best
          else progress := false
        done;
        if List.exists (fun v -> deficit v > 0) nodes then
          E.fail
            (E.Deadlocked
               {
                 plan = "adapt-migration";
                 detail = "could not complete the period before migration";
                 snapshot = Machine.snapshot !machine;
               })
      in
      (* Complete a background replan: finish the current period so the
         channels return to their delay state, plan for the assumed
         capacity, save a post-mortem checkpoint, build the new machine
         under the *applied* (environment) config and migrate onto it. *)
      let repartition action words ~io_ok =
        let from_plan = Plan.id (!current).plan in
        complete_period ();
        save_checkpoint ~io_ok
          ~name:(Printf.sprintf "migrate-%09d.ccsckpt" !epoch);
        let np = planner { cache with Cache.size_words = words } in
        let capacities =
          Array.mapi
            (fun e c -> max c (Machine.tokens !machine e))
            np.plan.Plan.capacities
        in
        let plan =
          if capacities = np.plan.Plan.capacities then np.plan
          else { np.plan with Plan.capacities }
        in
        let dst = make_machine plan !applied_cfg in
        Machine.migrate ~src:!machine dst;
        machine := dst;
        current := { np with plan };
        degraded := false;
        ewma := Float.nan;
        cooldown_left := policy.cooldown;
        record action ~from_plan ~to_plan:(Plan.id plan)
      in
      while !produced_target < outputs do
        let conditions = Fault.conditions_at env !epoch in
        let io_ok = not conditions.Fault.io_faulty in
        (* Chaos: impose the environment's cache configuration. *)
        let eff = Fault.env_cache_config cache conditions in
        if eff <> !applied_cfg then begin
          Machine.resize_cache !machine eff;
          applied_cfg := eff;
          incr chaos_events;
          (match am with Some a -> Metrics.inc a.a_chaos | None -> ());
          ev Log.Warn "chaos"
            [
              ("epoch", Json.Int !epoch);
              ("cache_words", Json.Int eff.Cache.size_words);
            ]
        end;
        (* A completed background replan takes effect at this boundary. *)
        (match !pending with
        | Some (0, words) ->
            pending := None;
            repartition Repartition words ~io_ok
        | Some (n, words) -> pending := Some (n - 1, words)
        | None -> ());
        let target =
          min outputs
            (!produced_target + (epoch_outputs * conditions.Fault.burst_mult))
        in
        if conditions.Fault.burst_mult > 1 then
          ev Log.Warn "burst"
            [
              ("epoch", Json.Int !epoch);
              ("mult", Json.Int conditions.Fault.burst_mult);
            ];
        let plan_for_epoch =
          if !degraded then
            fallback_plan graph ~capacities:(!current).plan.Plan.capacities
          else (!current).plan
        in
        let misses_before = Machine.misses !machine in
        let inputs_before = Machine.source_inputs !machine in
        (match Watchdog.drive ?metrics !machine ~plan:plan_for_epoch
                 ~outputs:target
         with
        | Ok () -> ()
        | Error e -> E.fail e);
        Machine.sync_metrics !machine;
        produced_target := target;
        incr epoch;
        if
          !epoch mod checkpoint_every = 0
          || !produced_target >= outputs
        then save_checkpoint ~io_ok ~name:(Supervisor.ckpt_name !epoch);
        (* Detection: read this epoch's misses from the live registry when
           one is attached (the ccs_cache_misses series the issue names),
           falling back to the machine's own counter. *)
        let misses_now =
          match metrics with
          | Some reg -> (
              match Metrics.value reg "ccs_cache_misses" with
              | Some v -> v
              | None -> Machine.misses !machine)
          | None -> Machine.misses !machine
        in
        let d_misses = misses_now - misses_before in
        let d_inputs = Machine.source_inputs !machine - inputs_before in
        if d_inputs > 0 then begin
          let sample = float_of_int d_misses /. float_of_int d_inputs in
          ewma :=
            (if Float.is_nan !ewma then sample
             else
               (policy.ewma_alpha *. sample)
               +. ((1.0 -. policy.ewma_alpha) *. !ewma));
          (match am with
          | Some a ->
              Metrics.set a.a_ewma (int_of_float (!ewma *. 1000.0))
          | None -> ());
          let bound = (!current).predicted_mpi in
          if !cooldown_left > 0 then decr cooldown_left
          else if adapt && !pending = None && not !degraded then begin
            if bound > 0.0 && !ewma > policy.degrade_ratio *. bound then begin
              incr breach;
              clean := 0
            end
            else begin
              breach := 0;
              if bound > 0.0 && !ewma < policy.restore_ratio *. bound then
                incr clean
              else clean := 0
            end;
            if
              !breach >= policy.patience
              && List.length !adaptations < policy.max_adaptations
            then begin
              (* Rung 1: degrade now, schedule the precise replan. *)
              let block = cache.Cache.block_words in
              assumed_words := max block (!assumed_words / 2);
              degraded := true;
              pending := Some (policy.repartition_delay, !assumed_words);
              breach := 0;
              cooldown_left := policy.cooldown;
              record Degrade
                ~from_plan:(Plan.id (!current).plan)
                ~to_plan:"adapt-fallback"
            end
            else if
              policy.probe_restore
              && !clean >= policy.patience
              && !assumed_words < cache.Cache.size_words
              && List.length !adaptations < policy.max_adaptations
            then begin
              assumed_words :=
                min cache.Cache.size_words (!assumed_words * 2);
              clean := 0;
              cooldown_left := policy.cooldown;
              repartition Probe_restore !assumed_words ~io_ok
            end
          end
        end;
        ev Log.Info "epoch"
          [
            ("epoch", Json.Int !epoch);
            ("target", Json.Int target);
            ("misses", Json.Int (Machine.misses !machine));
            ("plan_digest", Json.String (Plan.id plan_for_epoch));
          ];
        match on_epoch with
        | Some f -> f ~epoch:!epoch ~machine:!machine
        | None -> ()
      done;
      Machine.sync_metrics !machine;
      let result = Runner.result_of ~plan:(!current).plan !machine in
      ev Log.Info "run_end"
        [
          ("outputs", Json.Int result.Runner.outputs);
          ("misses", Json.Int result.Runner.misses);
          ("adaptations", Json.Int (List.length !adaptations));
          ("chaos_events", Json.Int !chaos_events);
          ("io_faults", Json.Int !io_faults);
          ("plan_digest", Json.String (Plan.id (!current).plan));
        ];
      {
        result;
        epochs = !epoch;
        epoch_outputs;
        adaptations = List.rev !adaptations;
        chaos_events = !chaos_events;
        io_faults = !io_faults;
        checkpoints_written = !checkpoints_written;
        final_plan = (!current).plan;
        final_predicted_mpi = (!current).predicted_mpi;
        assumed_cache_words = !assumed_words;
      })

let pp_event fmt e =
  Format.fprintf fmt "epoch %d: %s %s -> %s (assumed %d words)" e.at_epoch
    (action_to_string e.action)
    e.from_plan e.to_plan e.assumed_words

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>epochs=%d (x%d outputs) adaptations=%d chaos=%d io_faults=%d \
     checkpoints=%d assumed=%d words@,final plan %s (predicted %.4f mpi)@,"
    r.epochs r.epoch_outputs
    (List.length r.adaptations)
    r.chaos_events r.io_faults r.checkpoints_written r.assumed_cache_words
    (Plan.id r.final_plan) r.final_predicted_mpi;
  List.iter (fun e -> Format.fprintf fmt "%a@," pp_event e) r.adaptations;
  Format.fprintf fmt "%a@]" Runner.pp_result r.result
