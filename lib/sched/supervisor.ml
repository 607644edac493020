module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Checkpoint = Ccs_exec.Checkpoint
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Metrics = Ccs_obs.Metrics
module Log = Ccs_obs.Log
module Json = Ccs_obs.Json

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

(* Epoch [i] (0-based) drives the machine to this cumulative sink target.
   The sequence is a pure function of (outputs, epoch_outputs), so a killed
   and resumed run replays exactly the targets of an uninterrupted one —
   the foundation of the bit-identical resume property. *)
let epoch_target ~outputs ~epoch_outputs i = min outputs ((i + 1) * epoch_outputs)

let num_epochs ~outputs ~epoch_outputs =
  if outputs <= 0 then 0
  else (outputs + epoch_outputs - 1) / epoch_outputs

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

let prune ~keep dir =
  let all = list_checkpoints dir in
  let excess = List.length all - keep in
  if excess > 0 then
    List.iteri
      (fun i (_, path) -> if i < excess then try Sys.remove path with _ -> ())
      all

(* --- fault identity ------------------------------------------------------- *)

(* A stable name for "what failed where", used to detect deterministic
   faults: the same site failing at the same firing index twice in a row is
   not going to succeed on a third attempt. *)
let site_of_error = function
  | E.Fault { node; fault; _ } ->
      Printf.sprintf "%s/%s" node (E.fault_class_to_string fault)
  | e -> E.code e

type attempt = { site : string; firing : int }

(* --- telemetry ------------------------------------------------------------ *)

type smetrics = {
  s_epochs : Metrics.counter;
  s_epoch_ticks : Metrics.histogram;
  s_retries : Metrics.counter;
  s_rollbacks : Metrics.counter;
  s_quarantines : Metrics.counter;
  s_backoff : Metrics.counter;
}

let make_smetrics reg =
  {
    s_epochs =
      Metrics.counter reg ~help:"Supervisor epochs completed"
        "ccs_supervisor_epochs_total";
    s_epoch_ticks =
      Metrics.histogram reg
        ~help:"Logical duration of each completed epoch (cache accesses)"
        "ccs_supervisor_epoch_ticks";
    s_retries =
      Metrics.counter reg ~help:"Faulted epochs re-executed"
        "ccs_supervisor_retries_total";
    s_rollbacks =
      Metrics.counter reg
        ~help:"Machine rollbacks to a checkpoint or pristine state"
        "ccs_supervisor_rollbacks_total";
    s_quarantines =
      Metrics.counter reg ~help:"Runs stopped by fault quarantine"
        "ccs_supervisor_quarantines_total";
    s_backoff =
      Metrics.counter reg
        ~help:"Logical backoff delay charged across retries"
        "ccs_supervisor_backoff_ticks_total";
  }

(* --- the supervisor ------------------------------------------------------- *)

let run ?(config = default_config) ?checkpoint_dir ?(resume = false)
    ?epoch_outputs ?counters ?tracer ?metrics ?log ?prepare ?on_epoch ~graph
    ~cache ~plan ~outputs () =
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
  let total_epochs = num_epochs ~outputs ~epoch_outputs in
  let sm = Option.map make_smetrics metrics in
  let ev level event fields =
    match log with Some l -> Log.log l level event fields | None -> ()
  in
  let plan_digest = Plan.id plan in
  E.protect (fun () ->
      Option.iter Ccs_sdf.Binio.ensure_dir checkpoint_dir;
      ev Log.Info "run_start"
        [
          ("plan", Json.String plan.Plan.name);
          ("plan_digest", Json.String plan_digest);
          ("outputs", Json.Int outputs);
          ("epochs", Json.Int total_epochs);
          ("epoch_outputs", Json.Int epoch_outputs);
        ];
      let fresh_machine () =
        let machine =
          Machine.create ?counters ?tracer ?metrics ~graph ~cache
            ~capacities:plan.Plan.capacities ()
        in
        (match prepare with Some f -> f machine | None -> ());
        machine
      in
      let checkpoints_written = ref 0 in
      let save_checkpoint machine ~epoch =
        match checkpoint_dir with
        | None -> ()
        | Some dir ->
            let path = Filename.concat dir (ckpt_name epoch) in
            Checkpoint.save ?metrics ~path
              (Checkpoint.capture ~plan_name:plan.Plan.name ~epoch machine);
            incr checkpoints_written;
            ev Log.Info "checkpoint"
              [ ("epoch", Json.Int epoch); ("path", Json.String path) ];
            prune ~keep:config.keep dir
      in
      (* Roll the machine back to the last durable state: the most recent
         checkpoint if one exists, a pristine machine otherwise.  Counters
         and tracer are restored (or reset) along with it so the replayed
         epochs are indistinguishable from a first execution. *)
      let rollback () =
        (match sm with Some m -> Metrics.inc m.s_rollbacks | None -> ());
        let machine = fresh_machine () in
        match Option.map latest_checkpoint checkpoint_dir with
        | Some (Some (epoch, path)) -> (
            match Checkpoint.load_into ?metrics ~path machine with
            | Ok _ ->
                ev Log.Warn "rollback"
                  [ ("to_epoch", Json.Int epoch); ("path", Json.String path) ];
                (machine, epoch)
            | Error e -> E.fail e)
        | _ ->
            Option.iter Counters.reset counters;
            Option.iter (fun tr -> Tracer.restore tr ~clock:0 ~dropped:0) tracer;
            ev Log.Warn "rollback" [ ("to_epoch", Json.Int 0) ];
            (machine, 0)
      in
      let machine = ref (fresh_machine ()) in
      let start_epoch = ref 0 in
      let resumed_from = ref None in
      (if resume then
         match Option.map latest_checkpoint checkpoint_dir with
         | Some (Some (epoch, path)) -> (
             match Checkpoint.load ?metrics ~path () with
             | Error e -> E.fail e
             | Ok ckpt ->
                 if ckpt.Checkpoint.plan_name <> plan.Plan.name then
                   E.fail
                     (E.Checkpoint_mismatch
                        {
                          path;
                          field = "plan";
                          expected = ckpt.Checkpoint.plan_name;
                          found = plan.Plan.name;
                        });
                 (match Checkpoint.restore ~path ckpt !machine with
                 | Error e -> E.fail e
                 | Ok () -> ());
                 start_epoch := epoch;
                 resumed_from := Some epoch;
                 ev Log.Info "resume"
                   [ ("epoch", Json.Int epoch); ("path", Json.String path) ])
         | _ -> ());
      let retries = ref 0 in
      let logical_delay = ref 0 in
      let last_attempt = ref None in
      let epoch = ref !start_epoch in
      while !epoch < total_epochs do
        let target = epoch_target ~outputs ~epoch_outputs !epoch in
        (* Logical epoch duration: the cache access count is the machine's
           logical clock (one tick per simulated access). *)
        let ticks_before = Ccs_cache.Cache.accesses (Machine.cache !machine) in
        match Watchdog.drive ?metrics !machine ~plan ~outputs:target with
        | Ok () ->
            let completed = !epoch + 1 in
            (match sm with
            | Some m ->
                Metrics.inc m.s_epochs;
                Metrics.observe m.s_epoch_ticks
                  (Ccs_cache.Cache.accesses (Machine.cache !machine)
                  - ticks_before)
            | None -> ());
            Machine.sync_metrics !machine;
            if
              checkpoint_dir <> None
              && (completed mod config.checkpoint_every = 0
                 || completed = total_epochs)
            then save_checkpoint !machine ~epoch:completed;
            ev Log.Info "epoch"
              [
                ("epoch", Json.Int completed);
                ("target", Json.Int target);
                ("fires", Json.Int (Machine.total_fires !machine));
                ("misses", Json.Int (Machine.misses !machine));
              ];
            (match on_epoch with
            | Some f -> f ~epoch:completed ~machine:!machine
            | None -> ());
            last_attempt := None;
            epoch := completed
        | Error cause ->
            let firing = Machine.total_fires !machine in
            let site = site_of_error cause in
            let attempt = { site; firing } in
            let deterministic =
              match !last_attempt with
              | Some prev -> prev = attempt
              | None -> false
            in
            incr retries;
            (match sm with Some m -> Metrics.inc m.s_retries | None -> ());
            let quarantine () =
              let checkpoint =
                match Option.map latest_checkpoint checkpoint_dir with
                | Some (Some (_, path)) -> Some path
                | _ -> None
              in
              (match sm with
              | Some m -> Metrics.inc m.s_quarantines
              | None -> ());
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
                     plan = plan.Plan.name;
                     plan_digest = Some plan_digest;
                     site;
                     firing;
                     attempts = !retries;
                     checkpoint;
                     cause;
                   })
            in
            if deterministic || !retries > config.max_retries then quarantine ();
            last_attempt := Some attempt;
            (* Logical-time backoff: doubling per consecutive retry.  The
               simulator has no wall clock, so the delay is accounted, not
               slept. *)
            let backoff = config.backoff_base lsl min 20 (!retries - 1) in
            logical_delay := !logical_delay + backoff;
            (match sm with
            | Some m -> Metrics.add m.s_backoff backoff
            | None -> ());
            ev Log.Warn "retry"
              [
                ("site", Json.String site);
                ("firing", Json.Int firing);
                ("attempt", Json.Int !retries);
                ("backoff", Json.Int backoff);
                ("cause", Json.String (E.code cause));
              ];
            let m, ckpt_epoch = rollback () in
            machine := m;
            epoch := ckpt_epoch
      done;
      Machine.sync_metrics !machine;
      let result = Runner.result_of ~plan !machine in
      ev Log.Info "run_end"
        [
          ("outputs", Json.Int result.Runner.outputs);
          ("misses", Json.Int result.Runner.misses);
          ("retries", Json.Int !retries);
          ("checkpoints", Json.Int !checkpoints_written);
          ("logical_delay", Json.Int !logical_delay);
          ("plan_digest", Json.String plan_digest);
        ];
      {
        result;
        epochs = total_epochs;
        epoch_outputs;
        checkpoints_written = !checkpoints_written;
        resumed_from = !resumed_from;
        retries = !retries;
        logical_delay = !logical_delay;
      })

let pp_report fmt r =
  Format.fprintf fmt
    "epochs=%d (x%d outputs) checkpoints=%d retries=%d delay=%d%s@ %a"
    r.epochs r.epoch_outputs r.checkpoints_written r.retries r.logical_delay
    (match r.resumed_from with
    | Some e -> Printf.sprintf " resumed-from-epoch=%d" e
    | None -> "")
    Runner.pp_result r.result
