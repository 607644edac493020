(* Supervised crash-safe execution: epoch-aligned checkpointing, rollback
   and retry on structured faults, quarantine of deterministic ones, and
   the central invariant — a run killed at any epoch and resumed reports
   exactly what an uninterrupted run reports (miss counts, per-entity
   attribution, sink outputs), checked by a QCheck property over random
   graphs x random kill points. *)

module G = Ccs.Graph
module E = Ccs.Error

let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ()

let fresh_dir () =
  (* temp_file gives us a unique name; the supervisor mkdirs it. *)
  let path = Filename.temp_file "ccs-test-sup" "" in
  Sys.remove path;
  path

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let setup () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  (g, choice.Ccs.Auto.plan)

let test_happy_path_matches_plain_run () =
  let g, plan = setup () in
  let plain, _ = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 () in
  match Ccs.Supervisor.run ~graph:g ~cache ~plan ~outputs:100 () with
  | Error e -> Alcotest.fail ("supervised run failed: " ^ E.to_string e)
  | Ok report ->
      Alcotest.(check int) "same misses" plain.Ccs.Runner.misses
        report.Ccs.Supervisor.result.Ccs.Runner.misses;
      Alcotest.(check int) "same outputs" plain.Ccs.Runner.outputs
        report.Ccs.Supervisor.result.Ccs.Runner.outputs;
      Alcotest.(check int) "no retries" 0 report.Ccs.Supervisor.retries

(* A hook that faults once, at the named node's k-th firing, then disarms:
   the supervisor must roll back, retry, and finish with the exact result
   of a fault-free run. *)
let transient_fault ~node ~at_fire armed machine =
  Ccs.Machine.set_fire_hook machine
    (Some
       (fun v ->
         if !armed && v = node && Ccs.Machine.fires machine node = at_fire
         then begin
           armed := false;
           raise
             (E.Error
                (E.Fault
                   {
                     node = "m" ^ string_of_int node;
                     fault = E.Kernel_exception;
                     detail = "transient injected fault";
                   }))
         end))

let test_retry_then_succeed () =
  let g, plan = setup () in
  let plain, _ = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 () in
  let armed = ref true in
  match
    Ccs.Supervisor.run
      ~prepare:(transient_fault ~node:1 ~at_fire:5 armed)
      ~graph:g ~cache ~plan ~outputs:100 ()
  with
  | Error e -> Alcotest.fail ("transient fault not recovered: " ^ E.to_string e)
  | Ok report ->
      Alcotest.(check int) "one retry" 1 report.Ccs.Supervisor.retries;
      Alcotest.(check bool) "backoff charged" true
        (report.Ccs.Supervisor.logical_delay > 0);
      Alcotest.(check int) "result identical to clean run"
        plain.Ccs.Runner.misses
        report.Ccs.Supervisor.result.Ccs.Runner.misses;
      Alcotest.(check bool) "fault disarmed" true (not !armed)

let test_retry_with_checkpoint_dir () =
  (* Same transient fault, but with checkpointing on: rollback restores the
     last checkpoint instead of starting over, and the result still matches
     a clean run exactly. *)
  let g, plan = setup () in
  let plain, _ = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs:100 () in
  let armed = ref true in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      match
        Ccs.Supervisor.run
          ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
          ~checkpoint_dir:dir
          ~prepare:(transient_fault ~node:2 ~at_fire:40 armed)
          ~epoch_outputs:10 ~graph:g ~cache ~plan ~outputs:100 ()
      with
      | Error e -> Alcotest.fail ("not recovered: " ^ E.to_string e)
      | Ok report ->
          Alcotest.(check int) "one retry" 1 report.Ccs.Supervisor.retries;
          Alcotest.(check int) "result identical to clean run"
            plain.Ccs.Runner.misses
            report.Ccs.Supervisor.result.Ccs.Runner.misses)

let test_deterministic_fault_quarantined () =
  let g, plan = setup () in
  let always_fault machine =
    Ccs.Machine.set_fire_hook machine
      (Some
         (fun v ->
           if v = 1 && Ccs.Machine.fires machine 1 = 7 then
             raise
               (E.Error
                  (E.Fault
                     {
                       node = G.node_name g 1;
                       fault = E.Nan_output;
                       detail = "deterministic injected fault";
                     }))))
  in
  match
    Ccs.Supervisor.run ~prepare:always_fault ~graph:g ~cache ~plan
      ~outputs:100 ()
  with
  | Ok _ -> Alcotest.fail "deterministic fault not quarantined"
  | Error (E.Quarantined { site; attempts; cause; plan = plan_name; _ }) ->
      Alcotest.(check int) "gave up after two identical attempts" 2 attempts;
      Alcotest.(check bool) "site names the module" true
        (String.length site > 0
        && String.sub site 0 (String.length (G.node_name g 1))
           = G.node_name g 1);
      Alcotest.(check string) "plan named" plan.Ccs.Plan.name plan_name;
      Alcotest.(check string) "cause preserved" "fault-nan-output"
        (E.code cause)
  | Error e -> Alcotest.fail ("expected Quarantined, got " ^ E.to_string e)

let test_retry_exhaustion_quarantines () =
  (* A fault that moves (different firing each attempt, so never twice at
     the same site) must still give up once max_retries is spent. *)
  let g, plan = setup () in
  let attempt = ref 0 in
  let moving_fault machine =
    incr attempt;
    let at = 5 + !attempt in
    Ccs.Machine.set_fire_hook machine
      (Some
         (fun v ->
           if v = 1 && Ccs.Machine.fires machine 1 = at then
             raise
               (E.Error
                  (E.Fault
                     {
                       node = G.node_name g 1;
                       fault = E.Kernel_exception;
                       detail = "moving injected fault";
                     }))))
  in
  match
    Ccs.Supervisor.run
      ~config:{ Ccs.Supervisor.default_config with max_retries = 3 }
      ~prepare:moving_fault ~graph:g ~cache ~plan ~outputs:100 ()
  with
  | Ok _ -> Alcotest.fail "endless fault not quarantined"
  | Error (E.Quarantined { attempts; checkpoint; _ }) ->
      Alcotest.(check int) "max_retries + 1 attempts" 4 attempts;
      Alcotest.(check bool) "no checkpoint dir, no path" true
        (checkpoint = None)
  | Error e -> Alcotest.fail ("expected Quarantined, got " ^ E.to_string e)

let test_quarantine_names_checkpoint () =
  let g, plan = setup () in
  (* The fault sits in the *second* T=256 batch (node 1's 300th firing), so
     by the time it triggers the first epochs have completed and their
     checkpoints are durable — the quarantine report must name the latest. *)
  let always_fault machine =
    Ccs.Machine.set_fire_hook machine
      (Some
         (fun v ->
           if v = 1 && Ccs.Machine.fires machine 1 = 300 then
             raise
               (E.Error
                  (E.Fault
                     {
                       node = G.node_name g 1;
                       fault = E.Nan_output;
                       detail = "deterministic";
                     }))))
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      match
        Ccs.Supervisor.run
          ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
          ~checkpoint_dir:dir ~prepare:always_fault ~epoch_outputs:100 ~graph:g
          ~cache ~plan ~outputs:600 ()
      with
      | Ok _ -> Alcotest.fail "deterministic fault not quarantined"
      | Error (E.Quarantined { checkpoint = Some path; _ }) ->
          Alcotest.(check bool) "checkpoint path exists" true
            (Sys.file_exists path)
      | Error e ->
          Alcotest.fail
            ("expected Quarantined with checkpoint, got " ^ E.to_string e))

let test_resume_under_different_cache_rejected () =
  let g, plan = setup () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      (match
         Ccs.Supervisor.run
           ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
           ~checkpoint_dir:dir ~graph:g ~cache ~plan ~outputs:100 ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("seed run failed: " ^ E.to_string e));
      let other = Ccs.Cache.config ~size_words:1024 ~block_words:16 () in
      match
        Ccs.Supervisor.run ~checkpoint_dir:dir ~resume:true ~graph:g
          ~cache:other ~plan ~outputs:100 ()
      with
      | Ok _ -> Alcotest.fail "resume under different cache config accepted"
      | Error (E.Checkpoint_mismatch { field; _ }) ->
          Alcotest.(check string) "field" "cache" field
      | Error e ->
          Alcotest.fail ("expected Checkpoint_mismatch, got " ^ E.to_string e))

let test_resume_from_corrupt_checkpoint_rejected () =
  let g, plan = setup () in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_dir dir)
    (fun () ->
      (match
         Ccs.Supervisor.run
           ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
           ~checkpoint_dir:dir ~graph:g ~cache ~plan ~outputs:100 ()
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("seed run failed: " ^ E.to_string e));
      let _, path =
        match Ccs.Supervisor.latest_checkpoint dir with
        | Some x -> x
        | None -> Alcotest.fail "no checkpoint written"
      in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string s in
      let i = Bytes.length b - 5 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match
        Ccs.Supervisor.run ~checkpoint_dir:dir ~resume:true ~graph:g ~cache
          ~plan ~outputs:100 ()
      with
      | Ok _ -> Alcotest.fail "corrupt checkpoint accepted on resume"
      | Error e ->
          Alcotest.(check string) "error code" "checkpoint-corrupt" (E.code e))

(* --- the kill/resume determinism properties ------------------------------- *)

exception Killed

(* A random case, generated as plain data and built inside the property so
   a failure prints the exact graph, kill point and cache size. *)
type case = {
  dag : bool;
  seed : int;
  n : int;
  extra : int;
  kill_epoch : int;
  m_idx : int;
  env_seed : int option;
}

let print_case c =
  Printf.sprintf "%s ~seed:%d ~n:%d%s, M=%d, kill after epoch %d%s"
    (if c.dag then "random_sdf_dag" else "random_pipeline")
    c.seed (c.n + 2)
    (if c.dag then Printf.sprintf " ~extra_edges:%d" c.extra else "")
    [| 128; 256; 512 |].(c.m_idx)
    c.kill_epoch
    (match c.env_seed with
    | Some s -> Printf.sprintf ", chaos rand@%d:3:8" s
    | None -> "")

let gen_case ~chaos =
  QCheck2.Gen.(
    let* dag = bool in
    let* seed = int_range 0 10_000 in
    let* n = if dag then int_range 2 8 else int_range 2 12 in
    let* extra = if dag then int_range 0 4 else return 0 in
    let* kill_epoch = int_range 1 8 in
    let* m_idx = int_range 0 2 in
    let+ env_seed =
      if chaos then map Option.some (int_range 0 10_000) else return None
    in
    { dag; seed; n; extra; kill_epoch; m_idx; env_seed })

let case_graph c =
  if c.dag then
    Ccs.Generators.random_sdf_dag ~seed:c.seed ~n:(c.n + 2) ~max_state:12
      ~max_rate:4 ~extra_edges:c.extra ()
  else
    Ccs.Generators.random_pipeline ~seed:c.seed ~n:(c.n + 2) ~max_state:12
      ~max_rate:4 ()

(* Reference run vs a run killed right after [kill_epoch] completes
   (checkpoint already durable — exactly what `ccsched run --kill-after`
   does with exit 137, minus the process boundary) and then resumed. *)
let kill_resume_identical c =
  let g = case_graph c in
  let cfg =
    Ccs.Config.make ~cache_words:[| 128; 256; 512 |].(c.m_idx) ~block_words:8 ()
  in
  let cache = Ccs.Config.cache_config cfg in
  let env =
    Option.map
      (fun seed -> Ccs.Fault.env_plan ~horizon:8 ~seed ~count:3 ())
      c.env_seed
  in
  match try Some (Ccs.Auto.plan g cfg) with _ -> None with
  | None -> QCheck2.assume_fail ()
  | Some choice ->
      let plan = choice.Ccs.Auto.plan in
      let outputs = 60 in
      let epoch_outputs = max 1 (outputs / 8) in
      let entities = G.num_nodes g + G.num_edges g in
      let config =
        { Ccs.Supervisor.default_config with checkpoint_every = 1 }
      in
      let supervised ?checkpoint_dir ?(resume = false) ?on_epoch counters =
        Ccs.Supervisor.run ~config ?checkpoint_dir ~resume ~epoch_outputs ?env
          ~counters ?on_epoch ~graph:g ~cache ~plan ~outputs ()
      in
      let c_ref = Ccs.Counters.create ~entities in
      let reference =
        match supervised c_ref with
        | Ok r -> r
        | Error e ->
            QCheck2.Test.fail_reportf "reference run failed: %s"
              (E.to_string e)
      in
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> remove_dir dir)
        (fun () ->
          let c_kill = Ccs.Counters.create ~entities in
          (match
             supervised ~checkpoint_dir:dir
               ~on_epoch:(fun ~epoch ~machine:_ ->
                 if epoch = c.kill_epoch then raise Killed)
               c_kill
           with
          | exception Killed -> ()
          | Ok _ -> () (* kill epoch beyond the run: nothing to kill *)
          | Error e ->
              QCheck2.Test.fail_reportf "killed run failed: %s"
                (E.to_string e));
          let c_res = Ccs.Counters.create ~entities in
          match supervised ~checkpoint_dir:dir ~resume:true c_res with
          | Error e ->
              QCheck2.Test.fail_reportf "resume failed: %s" (E.to_string e)
          | Ok resumed ->
              let r1 = reference.Ccs.Supervisor.result in
              let r2 = resumed.Ccs.Supervisor.result in
              r1.Ccs.Runner.misses = r2.Ccs.Runner.misses
              && r1.Ccs.Runner.accesses = r2.Ccs.Runner.accesses
              && r1.Ccs.Runner.outputs = r2.Ccs.Runner.outputs
              && r1.Ccs.Runner.inputs = r2.Ccs.Runner.inputs
              && reference.Ccs.Supervisor.chaos_events
                 = resumed.Ccs.Supervisor.chaos_events
              && Ccs.Counters.dump c_ref = Ccs.Counters.dump c_res)

let prop_kill_resume_bit_identical =
  QCheck2.Test.make
    ~name:"killed-at-any-epoch + resumed == uninterrupted (misses, \
           attribution, outputs)"
    ~count:30 ~print:print_case (gen_case ~chaos:false) kill_resume_identical

let prop_kill_resume_under_chaos =
  QCheck2.Test.make
    ~name:"killed + resumed == uninterrupted under a chaos environment"
    ~count:30 ~print:print_case (gen_case ~chaos:true) kill_resume_identical

(* --- adaptation inside the loop ------------------------------------------- *)

let test_resume_with_adaptation_rejected () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:64 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let planner = Ccs.Auto.adapt_planner g cfg in
  let cache = Ccs.Config.cache_config cfg in
  match
    Ccs.Supervisor.run ~resume:true ~checkpoint_dir:(fresh_dir ())
      ~adapt:{ Ccs.Adapt.policy = Ccs.Adapt.default_policy; planner }
      ~graph:g ~cache ~plan:(planner cache).Ccs.Adapt.plan ~outputs:100 ()
  with
  | Ok _ -> Alcotest.fail "adapting run resumed from disk"
  | Error e -> Alcotest.(check string) "error code" "failure" (E.code e)

(* A transient fault in an adapting chaos run rolls back to a restore point
   holding the adaptation state, so the run ends exactly where the
   fault-free run does.  The fault is armed when a chosen epoch completes
   and trips on [node]'s next firing, so it lands in the epoch after a
   checkpoint.  The epoch is picked among the fault-free run's ladder steps
   (when it has any): the restore point must then replay the detection
   its checkpoint still owed, or the migration the ladder had scheduled. *)
let prop_transient_fault_in_adapting_run =
  QCheck2.Test.make ~count:40
    ~name:"transient fault in an adapting run == fault-free adapting run"
    ~print:(fun (n, env_seed, node, pick, ckpt) ->
      Printf.sprintf "n=%d env=rand@%d:4 fault=m%d pick=%d checkpoints=%b" n
        env_seed node pick ckpt)
    QCheck2.Gen.(
      let* n = int_range 3 7 in
      let* env_seed = int_range 0 1000 in
      let* node = int_range 0 (n - 1) in
      let* pick = int_range 0 99 in
      let+ ckpt = bool in
      (n, env_seed, node, pick, ckpt))
    (fun (n, env_seed, node, pick, ckpt) ->
      let g = Ccs.Generators.uniform_pipeline ~n ~state:64 () in
      let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
      let cache = Ccs.Config.cache_config cfg in
      let planner = Ccs.Auto.adapt_planner g cfg in
      let adapt =
        {
          Ccs.Adapt.policy =
            {
              Ccs.Adapt.default_policy with
              Ccs.Adapt.degrade_ratio = 1.01;
              patience = 1;
              cooldown = 0;
            };
          planner;
        }
      in
      let env = Ccs.Fault.env_plan ~seed:env_seed ~count:4 () in
      let dir = fresh_dir () in
      let adapting ?prepare ?on_epoch () =
        match
          Ccs.Supervisor.run ~env ~adapt
            ~config:{ Ccs.Supervisor.default_config with checkpoint_every = 1 }
            ?checkpoint_dir:(if ckpt then Some dir else None)
            ?prepare ?on_epoch ~epoch_outputs:37 ~graph:g ~cache
            ~plan:(planner cache).Ccs.Adapt.plan ~outputs:600 ()
        with
        | Ok r -> r
        | Error e -> QCheck2.Test.fail_reportf "run failed: %s" (E.to_string e)
      in
      Fun.protect
        ~finally:(fun () -> remove_dir dir)
        (fun () ->
          let clean = adapting () in
          let fault_epoch =
            match clean.Ccs.Supervisor.adaptations with
            | [] -> 1 + (pick mod 15)
            | steps ->
                (List.nth steps (pick mod List.length steps)).Ccs.Adapt.at_epoch
          in
          let armed = ref false and tripped = ref false in
          let prepare machine =
            Ccs.Machine.set_fire_hook machine
              (Some
                 (fun v ->
                   if !armed && v = node then begin
                     armed := false;
                     tripped := true;
                     raise
                       (E.Error
                          (E.Fault
                             {
                               node = G.node_name g v;
                               fault = E.Kernel_exception;
                               detail = "transient injected fault";
                             }))
                   end))
          in
          let on_epoch ~epoch ~machine:_ =
            if epoch = fault_epoch && not !tripped then armed := true
          in
          let faulted = adapting ~prepare ~on_epoch () in
          let r1 = clean.Ccs.Supervisor.result
          and r2 = faulted.Ccs.Supervisor.result in
          faulted.Ccs.Supervisor.retries = (if !tripped then 1 else 0)
          && r1.Ccs.Runner.misses = r2.Ccs.Runner.misses
          && r1.Ccs.Runner.outputs = r2.Ccs.Runner.outputs
          && r1.Ccs.Runner.inputs = r2.Ccs.Runner.inputs
          && clean.Ccs.Supervisor.adaptations
             = faulted.Ccs.Supervisor.adaptations))

let () =
  Alcotest.run "supervisor"
    [
      ( "supervision",
        [
          Alcotest.test_case "happy path = plain run" `Quick
            test_happy_path_matches_plain_run;
          Alcotest.test_case "retry then succeed" `Quick
            test_retry_then_succeed;
          Alcotest.test_case "retry with checkpoint dir" `Quick
            test_retry_with_checkpoint_dir;
          Alcotest.test_case "deterministic fault quarantined" `Quick
            test_deterministic_fault_quarantined;
          Alcotest.test_case "retry exhaustion quarantines" `Quick
            test_retry_exhaustion_quarantines;
          Alcotest.test_case "quarantine names checkpoint" `Quick
            test_quarantine_names_checkpoint;
          Alcotest.test_case "resume under different cache rejected" `Quick
            test_resume_under_different_cache_rejected;
          Alcotest.test_case "resume from corrupt checkpoint rejected" `Quick
            test_resume_from_corrupt_checkpoint_rejected;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_kill_resume_bit_identical;
          QCheck_alcotest.to_alcotest prop_kill_resume_under_chaos;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "resume with adaptation rejected" `Quick
            test_resume_with_adaptation_rejected;
          QCheck_alcotest.to_alcotest prop_transient_fault_in_adapting_run;
        ] );
    ]
