(* Adaptation policy: close the loop from live miss telemetry back into
   the scheduler.  The supervisor's epoch loop owns execution; this module
   owns the decisions and the one step that needs machine access, the
   migration onto a replanned machine.  The rung-1 fallback and the
   capacity estimate are explained in the interface. *)

module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
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

type t = { policy : policy; planner : planner }

type event = {
  at_epoch : int;
  action : action;
  from_plan : string;
  to_plan : string;
  assumed_words : int;
}

(* --- telemetry ------------------------------------------------------------ *)

type ametrics = {
  a_adaptations : Metrics.counter;
  a_degrades : Metrics.counter;
  a_repartitions : Metrics.counter;
  a_assumed : Metrics.gauge;
  a_ewma : Metrics.gauge;
}

let make_ametrics reg =
  let counter name help =
    Metrics.counter reg ~help ("ccs_adapt_" ^ name ^ "_total")
  in
  let gauge name help = Metrics.gauge reg ~help ("ccs_adapt_" ^ name) in
  {
    a_adaptations = counter "adaptations" "Adaptation ladder steps taken";
    a_degrades = counter "degrades" "Graceful-degradation fallbacks engaged";
    a_repartitions =
      counter "repartitions" "Online repartitions (plan migrations)";
    a_assumed =
      gauge "assumed_cache_words"
        "Effective cache capacity the live plan assumes";
    a_ewma =
      gauge "ewma_mpi_milli"
        "EWMA of measured misses per input, in thousandths";
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

(* --- detector and ladder state ---------------------------------------------

   Immutable, so the epoch loop can keep the value it held at a checkpoint
   and roll back to it.  [ctx] is the run's fixed context. *)

type ctx = {
  adapt : t;
  graph : Graph.t;
  nominal : Cache.config;
  rep : int array;
  rank : int array;
  am : ametrics option;
  log : Log.t option;
}

type state = {
  ctx : ctx option;  (* [None]: a run without adaptation *)
  current : planned;
  assumed_words : int;
  ewma : float;
  breach : int;
  clean : int;
  cooldown_left : int;
  pending : (int * int) option;
      (* [Some (countdown, words)]: a replan for [words] completing in
         [countdown] more epoch boundaries. *)
  degraded : bool;
  events : event list; (* newest first *)
}

let start ?metrics ?log adapt ~graph ~cache ~plan =
  let st =
    {
      ctx = None;
      current = { plan; predicted_mpi = Float.nan };
      assumed_words = cache.Cache.size_words;
      ewma = Float.nan;
      breach = 0;
      clean = 0;
      cooldown_left = 0;
      pending = None;
      degraded = false;
      events = [];
    }
  in
  match adapt with
  | None -> st
  | Some adapt ->
      let policy = adapt.policy in
      if policy.patience < 1 then invalid_arg "Adapt: patience must be >= 1";
      if policy.ewma_alpha <= 0.0 || policy.ewma_alpha > 1.0 then
        invalid_arg "Adapt: ewma_alpha must be in (0, 1]";
      if policy.degrade_ratio <= 1.0 then
        invalid_arg "Adapt: degrade_ratio must be > 1";
      let current = adapt.planner cache in
      if Plan.id current.plan <> Plan.id plan then
        invalid_arg "Adapt: the run's plan is not the planner's plan";
      let am = Option.map make_ametrics metrics in
      Option.iter (fun a -> Metrics.set a.a_assumed st.assumed_words) am;
      let rep = (Ccs_sdf.Rates.analyze_exn graph).Ccs_sdf.Rates.repetition in
      let rank = Graph.topo_rank graph in
      let ctx = { adapt; graph; nominal = cache; rep; rank; am; log } in
      { st with ctx = Some ctx; current }

let live st = st.current
let events st = List.rev st.events

let epoch_plan st =
  match st.ctx with
  | Some ctx when st.degraded ->
      fallback_plan ctx.graph ~capacities:st.current.plan.Plan.capacities
  | _ -> st.current.plan

let record ctx st action ~epoch ~from_plan ~to_plan =
  let assumed_words = st.assumed_words in
  Option.iter
    (fun a ->
      Metrics.inc a.a_adaptations;
      Metrics.set a.a_assumed assumed_words;
      Metrics.inc
        (if action = Degrade then a.a_degrades else a.a_repartitions))
    ctx.am;
  Option.iter
    (fun l ->
      Log.log l Log.Warn "adaptation"
        [
          ("epoch", Json.Int epoch);
          ("action", Json.String (action_to_string action));
          ("from_plan", Json.String from_plan);
          ("to_plan", Json.String to_plan);
          ("assumed_words", Json.Int assumed_words);
        ])
    ctx.log;
  let e = { at_epoch = epoch; action; from_plan; to_plan; assumed_words } in
  { st with events = e :: st.events }

let due st =
  match st.pending with
  | Some (0, words) -> ({ st with pending = None }, Some words)
  | Some (n, words) -> ({ st with pending = Some (n - 1, words) }, None)
  | None -> (st, None)

(* Fire every module up to a whole multiple of its repetition count,
   deepest-first.  After a fallback epoch (a dynamic driver that stops
   exactly at the output target) the machine sits mid-period; completing
   the period returns every channel to its initial-delay state, which is
   the only state a static period plan can legally resume from after
   migration.  The completion is always feasible at the live capacities:
   it is a suffix of the period the validated plan itself executes. *)
let complete_period ctx machine =
  let rep = ctx.rep and rank = ctx.rank in
  let nodes = Graph.nodes ctx.graph in
  let k_whole =
    List.fold_left
      (fun acc v ->
        max acc ((Machine.fires machine v + rep.(v) - 1) / rep.(v)))
      0 nodes
  in
  let deficit v = (k_whole * rep.(v)) - Machine.fires machine v in
  let progress = ref true in
  while !progress do
    let best = ref (-1) in
    List.iter
      (fun v ->
        if
          deficit v > 0
          && Machine.can_fire machine v
          && (!best = -1 || rank.(v) > rank.(!best))
        then best := v)
      nodes;
    if !best >= 0 then Machine.fire machine !best else progress := false
  done;
  if List.exists (fun v -> deficit v > 0) nodes then
    E.fail
      (E.Deadlocked
         {
           plan = "adapt-migration";
           detail = "could not complete the period before migration";
           snapshot = Machine.snapshot machine;
         })

let migrate st action ~words ~epoch ~post_mortem ~fresh machine =
  let ctx = Option.get st.ctx in
  let from_plan = Plan.id st.current.plan in
  complete_period ctx machine;
  post_mortem machine;
  let np = ctx.adapt.planner { ctx.nominal with Cache.size_words = words } in
  let capacities =
    Array.mapi
      (fun e c -> max c (Machine.tokens machine e))
      np.plan.Plan.capacities
  in
  let plan =
    if capacities = np.plan.Plan.capacities then np.plan
    else { np.plan with Plan.capacities }
  in
  let dst = fresh plan in
  Machine.migrate ~src:machine dst;
  let st =
    {
      st with
      current = { np with plan };
      degraded = false;
      ewma = Float.nan;
      cooldown_left = ctx.adapt.policy.cooldown;
    }
  in
  (record ctx st action ~epoch ~from_plan ~to_plan:(Plan.id plan), dst)

let detect st ~epoch ~misses ~inputs =
  match st.ctx with
  | None -> (st, None)
  | Some _ when inputs <= 0 -> (st, None)
  | Some ctx ->
      let policy = ctx.adapt.policy in
      let nominal_words = ctx.nominal.Cache.size_words in
      let sample = float_of_int misses /. float_of_int inputs in
      let ewma =
        if Float.is_nan st.ewma then sample
        else
          (policy.ewma_alpha *. sample)
          +. ((1.0 -. policy.ewma_alpha) *. st.ewma)
      in
      Option.iter
        (fun a -> Metrics.set a.a_ewma (int_of_float (ewma *. 1000.0)))
        ctx.am;
      let st = { st with ewma } in
      let bound = st.current.predicted_mpi in
      if st.cooldown_left > 0 then
        ({ st with cooldown_left = st.cooldown_left - 1 }, None)
      else if st.pending <> None || st.degraded then (st, None)
      else
        let st =
          if bound > 0.0 && ewma > policy.degrade_ratio *. bound then
            { st with breach = st.breach + 1; clean = 0 }
          else if bound > 0.0 && ewma < policy.restore_ratio *. bound then
            { st with breach = 0; clean = st.clean + 1 }
          else { st with breach = 0; clean = 0 }
        in
        let budget_left = List.length st.events < policy.max_adaptations in
        if st.breach >= policy.patience && budget_left then
          (* Rung 1: degrade now, schedule the precise replan. *)
          let assumed_words =
            max ctx.nominal.Cache.block_words (st.assumed_words / 2)
          in
          let st =
            {
              st with
              assumed_words;
              degraded = true;
              pending = Some (policy.repartition_delay, assumed_words);
              breach = 0;
              cooldown_left = policy.cooldown;
            }
          in
          ( record ctx st Degrade ~epoch
              ~from_plan:(Plan.id st.current.plan)
              ~to_plan:"adapt-fallback",
            None )
        else if
          policy.probe_restore
          && st.clean >= policy.patience
          && st.assumed_words < nominal_words
          && budget_left
        then
          let assumed_words = min nominal_words (st.assumed_words * 2) in
          let st =
            { st with assumed_words; clean = 0; cooldown_left = policy.cooldown }
          in
          (st, Some assumed_words)
        else (st, None)

let pp_event fmt e =
  Format.fprintf fmt "epoch %d: %s %s -> %s (assumed %d words)" e.at_epoch
    (action_to_string e.action)
    e.from_plan e.to_plan e.assumed_words
