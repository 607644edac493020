module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Checkpoint = Ccs_exec.Checkpoint
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Metrics = Ccs_obs.Metrics
module Log = Ccs_obs.Log
module Json = Ccs_obs.Json
module Cache = Ccs_cache.Cache
module Fault = Ccs_exec.Fault

type config = {
  checkpoint_every : int;
  max_retries : int;
  backoff_base : int;
  keep : int;
}

let default_config =
  { checkpoint_every = 4; max_retries = 4; backoff_base = 1; keep = 2 }

type report = {
  result : Runner.result;
  epochs : int;
  epoch_outputs : int;
  checkpoints_written : int;
  resumed_from : int option;
  retries : int;
  logical_delay : int;
  chaos_events : int;
  io_faults : int;
  adaptations : Adapt.event list;
  final_plan : Plan.t;
}

(* --- epoch geometry ------------------------------------------------------- *)

let default_epoch_outputs ~graph ~plan =
  match plan.Plan.period with
  | Some period -> (
      let counts =
        Schedule.fire_counts ~num_nodes:(Graph.num_nodes graph) period
      in
      match Graph.sinks graph with
      | [ s ] -> max 1 counts.(s)
      | _ -> max 1 (Schedule.length period))
  | None -> (
      match Ccs_sdf.Rates.analyze_checked graph with
      | Ok a -> (
          match Graph.sinks graph with
          | [ s ] -> max 1 a.Ccs_sdf.Rates.repetition.(s)
          | _ -> 1)
      | Error _ -> 1)

(* The environment's effect on the first [k] epochs: the cumulative sink
   target they reach, the cache configuration in force after them, and how
   often it changed.  A pure function of (env, cache, outputs,
   epoch_outputs), so a resumed or rolled-back run replays exactly the
   targets and cache changes of an uninterrupted one — the foundation of
   the bit-identical resume property. *)
let replay ~env ~cache ~outputs ~epoch_outputs k =
  let rec go i produced applied changes =
    if i = k then (produced, applied, changes)
    else
      let c = Fault.conditions_at env i in
      let eff = Fault.env_cache_config cache c in
      go (i + 1)
        (min outputs (produced + (epoch_outputs * c.Fault.burst_mult)))
        eff
        (if eff <> applied then changes + 1 else changes)
  in
  go 0 0 cache 0

(* --- checkpoint files ----------------------------------------------------- *)

let ckpt_name epoch = Printf.sprintf "ckpt-%09d.ccsckpt" epoch

let ckpt_epoch name =
  if
    String.length name = 22
    && String.sub name 0 5 = "ckpt-"
    && Filename.check_suffix name ".ccsckpt"
  then int_of_string_opt (String.sub name 5 9)
  else None

let list_checkpoints dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           Option.map (fun e -> (e, Filename.concat dir name)) (ckpt_epoch name))
    |> List.sort compare

let latest_checkpoint dir =
  match List.rev (list_checkpoints dir) with [] -> None | c :: _ -> Some c

(* After epoch [upto]'s checkpoint is written, keep the newest [keep]
   checkpoints up to it.  Checkpoints past [upto] were left by an earlier
   run in the same directory: removing them keeps this run's restore point
   (and the one a later resume picks) its own. *)
let prune ~keep ~upto dir =
  let all = list_checkpoints dir in
  let older = List.length (List.filter (fun (e, _) -> e <= upto) all) in
  List.iteri
    (fun i (e, path) ->
      if e > upto || i < older - keep then try Sys.remove path with _ -> ())
    all

(* --- fault identity ------------------------------------------------------- *)

(* A stable name for "what failed where", used to detect deterministic
   faults: the same site failing at the same firing index twice in a row is
   not going to succeed on a third attempt. *)
let site_of_error = function
  | E.Fault { node; fault; _ } ->
      Printf.sprintf "%s/%s" node (E.fault_class_to_string fault)
  | e -> E.code e

(* --- telemetry ------------------------------------------------------------ *)

type smetrics = {
  s_epochs : Metrics.counter;
  s_chaos : Metrics.counter;
  s_io_faults : Metrics.counter;
  s_epoch_ticks : Metrics.histogram;
  s_retries : Metrics.counter;
  s_rollbacks : Metrics.counter;
  s_quarantines : Metrics.counter;
  s_backoff : Metrics.counter;
}

let make_smetrics reg =
  let counter name help =
    Metrics.counter reg ~help ("ccs_supervisor_" ^ name ^ "_total")
  in
  {
    s_epochs = counter "epochs" "Supervisor epochs completed";
    s_chaos = counter "chaos_events" "Chaos environment cache changes applied";
    s_io_faults =
      counter "io_faults" "Checkpoint writes lost to injected I/O faults";
    s_epoch_ticks =
      Metrics.histogram reg
        ~help:"Logical duration of each completed epoch (cache accesses)"
        "ccs_supervisor_epoch_ticks";
    s_retries = counter "retries" "Faulted epochs re-executed";
    s_rollbacks =
      counter "rollbacks" "Machine rollbacks to a checkpoint or pristine state";
    s_quarantines = counter "quarantines" "Runs stopped by fault quarantine";
    s_backoff =
      counter "backoff_ticks" "Logical backoff delay charged across retries";
  }

(* --- the epoch loop ---------------------------------------------------------

   One loop drives every supervised run, with or without a chaos
   environment and adaptation.  An epoch runs these steps in order:

     1. chaos: impose the environment's cache configuration;
     2. replan: a background replan that is due migrates the machine;
     3. target: the epoch's cumulative sink target (bursts multiply it);
     4. drive: the watchdog drives the epoch's plan to the target;
     5. checkpoint: every [checkpoint_every] epochs and at the end, unless
        the environment fails checkpoint I/O;
     6. detect: the adaptation policy reads the epoch's misses per input.

   A structured fault in steps 1-6 rolls the run back to its restore
   point and retries the epoch.  A restore point is the last checkpoint
   this run wrote (or resumed from) together with what the file does not
   hold — the adaptation state, and the detection its epoch still owes
   because step 6 follows step 5 — or else the start of the run.  Epoch
   targets and cache configurations are recomputed by [replay]. *)

type restore_point = {
  at_epoch : int;
  path : string option; (* [None]: the start of the run *)
  adapt_state : Adapt.state;
  owed : (int * int) option; (* the epoch's (misses, inputs) sample *)
}

let run ?(config = default_config) ?checkpoint_dir ?(resume = false)
    ?epoch_outputs ?(env = []) ?adapt ?counters ?tracer ?metrics ?log ?prepare
    ?on_epoch ~graph ~cache ~plan ~outputs () =
  if config.checkpoint_every <= 0 then
    invalid_arg "Supervisor.run: checkpoint_every must be positive";
  if config.max_retries < 0 then
    invalid_arg "Supervisor.run: max_retries must be >= 0";
  if config.keep <= 0 then invalid_arg "Supervisor.run: keep must be positive";
  let epoch_outputs =
    match epoch_outputs with
    | Some k ->
        if k <= 0 then
          invalid_arg "Supervisor.run: epoch_outputs must be positive";
        k
    | None -> default_epoch_outputs ~graph ~plan
  in
  let sm = Option.map make_smetrics metrics in
  let bump f = Option.iter (fun m -> Metrics.inc (f m)) sm in
  let ev level event fields =
    Option.iter (fun l -> Log.log l level event fields) log
  in
  let replay = replay ~env ~cache ~outputs ~epoch_outputs in
  E.protect (fun () ->
      if resume && adapt <> None then
        invalid_arg
          "Supervisor.run: an adapting run cannot resume, its adaptation \
           state is not in the checkpoint";
      Option.iter Ccs_sdf.Binio.ensure_dir checkpoint_dir;
      let adapt0 = Adapt.start ?metrics ?log adapt ~graph ~cache ~plan in
      ev Log.Info "run_start"
        [
          ("plan", Json.String plan.Plan.name);
          ("plan_digest", Json.String (Plan.id plan));
          ("outputs", Json.Int outputs);
          ("epoch_outputs", Json.Int epoch_outputs);
          ("chaos", Json.String (Fault.env_to_string env));
          ("adapt", Json.Bool (adapt <> None));
        ];
      let fresh_machine ~cfg plan =
        let machine =
          Machine.create ?counters ?tracer ?metrics ~graph ~cache:cfg
            ~capacities:plan.Plan.capacities ()
        in
        Option.iter (fun f -> f machine) prepare;
        machine
      in
      (* The loop's state; a rollback resets every field. *)
      let epoch = ref 0 and produced = ref 0 and applied = ref cache in
      let set_epoch k =
        let p, cfg, _ = replay k in
        epoch := k;
        produced := p;
        applied := cfg
      in
      let resume_from =
        let latest = Option.bind checkpoint_dir latest_checkpoint in
        match if resume then latest else None with
        | Some (k, path) ->
            let ckpt =
              match Checkpoint.load ?metrics ~path () with
              | Error e -> E.fail e
              | Ok ckpt -> ckpt
            in
            if ckpt.Checkpoint.plan_name <> plan.Plan.name then
              E.fail
                (E.Checkpoint_mismatch
                   {
                     path;
                     field = "plan";
                     expected = ckpt.Checkpoint.plan_name;
                     found = plan.Plan.name;
                   });
            set_epoch k;
            Some (k, path, ckpt)
        | None -> None
      in
      let machine = ref (fresh_machine ~cfg:!applied plan) in
      let adapt_state = ref adapt0 and owed = ref None in
      let live_plan () = (Adapt.live !adapt_state).Adapt.plan in
      let restore =
        ref { at_epoch = 0; path = None; adapt_state = adapt0; owed = None }
      in
      Option.iter
        (fun (k, path, ckpt) ->
          Result.iter_error E.fail (Checkpoint.restore ~path ckpt !machine);
          restore := { !restore with at_epoch = k; path = Some path };
          ev Log.Info "resume"
            [ ("epoch", Json.Int k); ("path", Json.String path) ])
        resume_from;
      let checkpoints_written = ref 0 and io_faults = ref 0 in
      let save ~io_ok ~name m =
        match checkpoint_dir with
        | None -> None
        | Some _ when not io_ok ->
            incr io_faults;
            bump (fun m -> m.s_io_faults);
            ev Log.Warn "checkpoint_io_fault" [ ("epoch", Json.Int !epoch) ];
            None
        | Some dir ->
            let path = Filename.concat dir name in
            Checkpoint.save ?metrics ~path
              (Checkpoint.capture ~plan_name:(live_plan ()).Plan.name
                 ~epoch:!epoch m);
            incr checkpoints_written;
            ev Log.Info "checkpoint"
              [ ("epoch", Json.Int !epoch); ("path", Json.String path) ];
            Some path
      in
      (* Counters and tracer are restored (or reset) along with the machine
         so the replayed epochs are indistinguishable from a first
         execution. *)
      let rollback () =
        bump (fun m -> m.s_rollbacks);
        let r = !restore in
        set_epoch r.at_epoch;
        adapt_state := r.adapt_state;
        owed := r.owed;
        machine := fresh_machine ~cfg:!applied (live_plan ());
        match r.path with
        | Some path ->
            Result.iter_error E.fail
              (Checkpoint.load_into ?metrics ~path !machine);
            ev Log.Warn "rollback"
              [ ("to_epoch", Json.Int r.at_epoch); ("path", Json.String path) ]
        | None ->
            Option.iter Counters.reset counters;
            Option.iter
              (fun tr -> Tracer.restore tr ~clock:0 ~dropped:0)
              tracer;
            ev Log.Warn "rollback" [ ("to_epoch", Json.Int 0) ]
      in
      let replan action ~io_ok words =
        let st, m =
          Adapt.migrate !adapt_state action ~words ~epoch:!epoch
            ~post_mortem:(fun m ->
              let name = Printf.sprintf "migrate-%09d.ccsckpt" !epoch in
              ignore (save ~io_ok ~name m))
            ~fresh:(fresh_machine ~cfg:!applied)
            !machine
        in
        adapt_state := st;
        machine := m
      in
      let detect (misses, inputs) =
        let st, probe =
          Adapt.detect !adapt_state ~epoch:!epoch ~misses ~inputs
        in
        adapt_state := st;
        let io_ok =
          not (Fault.conditions_at env (!epoch - 1)).Fault.io_faulty
        in
        Option.iter (replan Adapt.Probe_restore ~io_ok) probe
      in
      (* Steps 1-6 of epoch [!epoch]; raises on a structured fault. *)
      let run_epoch () =
        Option.iter detect !owed;
        owed := None;
        let i = !epoch in
        let c = Fault.conditions_at env i in
        let io_ok = not c.Fault.io_faulty in
        let eff = Fault.env_cache_config cache c in
        if eff <> !applied then begin
          Machine.resize_cache !machine eff;
          applied := eff;
          bump (fun m -> m.s_chaos);
          ev Log.Warn "chaos"
            [
              ("epoch", Json.Int i);
              ("cache_words", Json.Int eff.Cache.size_words);
            ]
        end;
        let st, due = Adapt.due !adapt_state in
        adapt_state := st;
        Option.iter (replan Adapt.Repartition ~io_ok) due;
        let target =
          min outputs (!produced + (epoch_outputs * c.Fault.burst_mult))
        in
        if c.Fault.burst_mult > 1 then
          ev Log.Warn "burst"
            [ ("epoch", Json.Int i); ("mult", Json.Int c.Fault.burst_mult) ];
        let epoch_plan = Adapt.epoch_plan !adapt_state in
        let misses_before = Machine.misses !machine in
        let inputs_before = Machine.source_inputs !machine in
        (* Logical epoch duration: the cache access count is the machine's
           logical clock (one tick per simulated access). *)
        let ticks_before = Cache.accesses (Machine.cache !machine) in
        Result.iter_error E.fail
          (Watchdog.drive ?metrics !machine ~plan:epoch_plan ~outputs:target);
        Option.iter
          (fun m ->
            Metrics.inc m.s_epochs;
            Metrics.observe m.s_epoch_ticks
              (Cache.accesses (Machine.cache !machine) - ticks_before))
          sm;
        Machine.sync_metrics !machine;
        produced := target;
        epoch := i + 1;
        (* Detection reads the epoch's misses from the live registry when
           one is attached, falling back to the machine's own counter. *)
        let misses_now =
          match
            Option.bind metrics (fun reg ->
                Metrics.value reg "ccs_cache_misses")
          with
          | Some v -> v
          | None -> Machine.misses !machine
        in
        let sample =
          ( misses_now - misses_before,
            Machine.source_inputs !machine - inputs_before )
        in
        if !epoch mod config.checkpoint_every = 0 || target >= outputs then
          Option.iter
            (fun path ->
              restore :=
                {
                  at_epoch = !epoch;
                  path = Some path;
                  adapt_state = !adapt_state;
                  owed = Some sample;
                };
              Option.iter
                (prune ~keep:config.keep ~upto:!epoch)
                checkpoint_dir)
            (save ~io_ok ~name:(ckpt_name !epoch) !machine);
        detect sample;
        ev Log.Info "epoch"
          [
            ("epoch", Json.Int !epoch);
            ("target", Json.Int target);
            ("fires", Json.Int (Machine.total_fires !machine));
            ("misses", Json.Int (Machine.misses !machine));
            ("plan_digest", Json.String (Plan.id epoch_plan));
          ]
      in
      let retries = ref 0 and logical_delay = ref 0 in
      let last_attempt = ref None in
      while !produced < outputs do
        match run_epoch () with
        | () ->
            Option.iter (fun f -> f ~epoch:!epoch ~machine:!machine) on_epoch;
            last_attempt := None
        | exception E.Error cause ->
            let firing = Machine.total_fires !machine in
            let site = site_of_error cause in
            incr retries;
            bump (fun m -> m.s_retries);
            if !last_attempt = Some (site, firing)
               || !retries > config.max_retries
            then begin
              bump (fun m -> m.s_quarantines);
              let plan_digest = Plan.id (live_plan ()) in
              ev Log.Error "quarantine"
                [
                  ("site", Json.String site);
                  ("firing", Json.Int firing);
                  ("attempts", Json.Int !retries);
                  ("cause", Json.String (E.code cause));
                  ("plan_digest", Json.String plan_digest);
                ];
              E.fail
                (E.Quarantined
                   {
                     plan = (live_plan ()).Plan.name;
                     plan_digest = Some plan_digest;
                     site;
                     firing;
                     attempts = !retries;
                     checkpoint = !restore.path;
                     cause;
                   })
            end;
            last_attempt := Some (site, firing);
            (* Logical-time backoff: doubling per consecutive retry.  The
               simulator has no wall clock, so the delay is accounted, not
               slept. *)
            let backoff = config.backoff_base lsl min 20 (!retries - 1) in
            logical_delay := !logical_delay + backoff;
            Option.iter (fun m -> Metrics.add m.s_backoff backoff) sm;
            ev Log.Warn "retry"
              [
                ("site", Json.String site);
                ("firing", Json.Int firing);
                ("attempt", Json.Int !retries);
                ("backoff", Json.Int backoff);
                ("cause", Json.String (E.code cause));
              ];
            rollback ()
      done;
      (* A rollback onto the final checkpoint still owes its detection. *)
      Option.iter detect !owed;
      Machine.sync_metrics !machine;
      let final_plan = live_plan () in
      let result = Runner.result_of ~plan:final_plan !machine in
      let adaptations = Adapt.events !adapt_state in
      let _, _, chaos_events = replay !epoch in
      ev Log.Info "run_end"
        [
          ("outputs", Json.Int result.Runner.outputs);
          ("misses", Json.Int result.Runner.misses);
          ("retries", Json.Int !retries);
          ("checkpoints", Json.Int !checkpoints_written);
          ("logical_delay", Json.Int !logical_delay);
          ("adaptations", Json.Int (List.length adaptations));
          ("chaos_events", Json.Int chaos_events);
          ("io_faults", Json.Int !io_faults);
          ("plan_digest", Json.String (Plan.id final_plan));
        ];
      {
        result;
        epochs = !epoch;
        epoch_outputs;
        checkpoints_written = !checkpoints_written;
        resumed_from = Option.map (fun (k, _, _) -> k) resume_from;
        retries = !retries;
        logical_delay = !logical_delay;
        chaos_events;
        io_faults = !io_faults;
        adaptations;
        final_plan;
      })

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>epochs=%d (x%d outputs) checkpoints=%d retries=%d delay=%d%s%s%s@,"
    r.epochs r.epoch_outputs r.checkpoints_written r.retries r.logical_delay
    (if r.chaos_events > 0 || r.io_faults > 0 then
       Printf.sprintf " chaos=%d io_faults=%d" r.chaos_events r.io_faults
     else "")
    (if r.adaptations = [] then ""
     else
       Printf.sprintf " adaptations=%d final-plan=%s"
         (List.length r.adaptations) (Plan.id r.final_plan))
    (match r.resumed_from with
    | Some e -> Printf.sprintf " resumed-from-epoch=%d" e
    | None -> "");
  List.iter (Format.fprintf fmt "%a@," Adapt.pp_event) r.adaptations;
  Format.fprintf fmt "%a@]" Runner.pp_result r.result
