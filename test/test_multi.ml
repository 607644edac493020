(* Tests for the multiprocessor extension: LPT assignment and the
   private-cache placement simulator. *)

module G = Ccs.Graph
module R = Ccs.Rates
module Sp = Ccs.Spec

let setup () =
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let spec = Ccs.Pipeline_partition.optimal_dp g a ~bound:128 in
  (g, a, spec)

let test_lpt_assigns_everything () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:3 in
  Alcotest.(check int) "every component placed"
    (Sp.num_components spec)
    (Array.length assign.Ccs.Assign.processor_of_component);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "valid processor" true (p >= 0 && p < 3))
    assign.Ccs.Assign.processor_of_component

let test_lpt_single_processor () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:1 in
  Alcotest.(check (float 1e-9)) "imbalance 1" 1. (Ccs.Assign.imbalance assign)

let test_lpt_load_conserved () =
  let g, a, spec = setup () in
  let total p =
    let assign = Ccs.Assign.lpt g a spec ~processors:p in
    Array.fold_left ( +. ) 0. assign.Ccs.Assign.load
  in
  Alcotest.(check (float 1e-6)) "same total load" (total 1) (total 4)

let test_lpt_balance_reasonable () =
  (* 8 equal components on 4 processors: LPT is perfectly balanced. *)
  let g = Ccs.Generators.uniform_pipeline ~n:16 ~state:64 () in
  let a = R.analyze_exn g in
  let spec = Sp.of_assignment g (Array.init 16 (fun v -> v / 2)) in
  let assign = Ccs.Assign.lpt g a spec ~processors:4 in
  Alcotest.(check bool) "near-perfect balance" true
    (Ccs.Assign.imbalance assign < 1.01)

let test_lpt_rejects_zero () =
  let g, a, spec = setup () in
  Alcotest.check_raises "0 processors"
    (Invalid_argument "Assign.lpt: processors must be >= 1") (fun () ->
      ignore (Ccs.Assign.lpt g a spec ~processors:0))

let test_component_load_positive () =
  let g, a, spec = setup () in
  for c = 0 to Sp.num_components spec - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "component %d load > 0" c)
      true
      (Ccs.Assign.component_load g a spec c > 0.)
  done

let run_multi g a spec ~processors =
  let assign = Ccs.Assign.lpt g a spec ~processors in
  let cfg =
    {
      Ccs.Multi_machine.processors;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  Ccs.Multi_machine.run g a spec assign
    ~t:(R.granularity g a ~at_least:256)
    ~batches:4 cfg

let test_single_processor_equals_uniprocessor () =
  let g, a, spec = setup () in
  let r = run_multi g a spec ~processors:1 in
  (* With P=1 the multiprocessor run IS the uniprocessor run. *)
  Alcotest.(check (float 1e-9)) "speedup 1" 1. r.Ccs.Multi_machine.speedup;
  Alcotest.(check int) "same misses" r.Ccs.Multi_machine.total_misses
    r.Ccs.Multi_machine.per_processor_misses.(0)

let test_speedup_grows () =
  let g, a, spec = setup () in
  let r1 = run_multi g a spec ~processors:1 in
  let r4 = run_multi g a spec ~processors:4 in
  Alcotest.(check bool)
    (Printf.sprintf "P=4 speedup %.2f > 2" r4.Ccs.Multi_machine.speedup)
    true
    (r4.Ccs.Multi_machine.speedup > 2.);
  Alcotest.(check bool) "makespan shrinks" true
    (r4.Ccs.Multi_machine.makespan < r1.Ccs.Multi_machine.makespan)

let test_inputs_counted () =
  let g, a, spec = setup () in
  let r = run_multi g a spec ~processors:2 in
  Alcotest.(check int) "inputs = batches * T" (4 * 256)
    r.Ccs.Multi_machine.inputs

let test_mismatched_processors_rejected () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:2 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 3;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  match
    Ccs.Multi_machine.run g a spec assign ~t:256 ~batches:1 cfg
  with
  | _ -> Alcotest.fail "mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_work_conserved_across_processors () =
  let g, a, spec = setup () in
  let r1 = run_multi g a spec ~processors:1 in
  let r4 = run_multi g a spec ~processors:4 in
  let total r =
    Array.fold_left ( +. ) 0. r.Ccs.Multi_machine.per_processor_work
  in
  Alcotest.(check (float 1e-6)) "same total work" (total r1) (total r4)

let test_aperiodic_plan_structured_error () =
  (* Regression: an aperiodic (dynamic) plan used to trip [assert false]
     deep in the run loop; it must come back as a structured
     [Plan_invalid] naming the plan. *)
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:2 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 2;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let plan = Ccs.Partitioned.pipeline_dynamic g a spec ~m_tokens:64 in
  match
    Ccs.Multi_machine.run_plan g a spec assign ~plan ~batches:1 cfg
  with
  | _ -> Alcotest.fail "aperiodic plan must be rejected"
  | exception Ccs.Error.Error (Ccs.Error.Plan_invalid { plan = name; _ }) ->
      Alcotest.(check string) "names the plan" plan.Ccs.Plan.name name

let test_multi_attribution_sums () =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors:3 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 3;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let counters =
    Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g)
  in
  let tracer = Ccs.Tracer.create () in
  let r =
    Ccs.Multi_machine.run ~counters ~tracer g a spec assign
      ~t:(R.granularity g a ~at_least:256)
      ~batches:4 cfg
  in
  (* Every private-cache miss has exactly one owner; the uniprocessor
     shadow run is unobserved, so the counters match the parallel total. *)
  Alcotest.(check int) "attributed = total misses"
    r.Ccs.Multi_machine.total_misses
    (Ccs.Counters.total_misses counters);
  let loads = ref 0 in
  Ccs.Tracer.iter tracer ~f:(fun e ->
      if e.Ccs.Tracer.kind = Ccs.Tracer.Load then incr loads);
  Alcotest.(check int) "load events = total misses"
    r.Ccs.Multi_machine.total_misses !loads

let test_multi_observers_leave_result_unchanged () =
  let g, a, spec = setup () in
  let plain = run_multi g a spec ~processors:4 in
  let counters =
    Ccs.Counters.create ~entities:(G.num_nodes g + G.num_edges g)
  in
  let assign = Ccs.Assign.lpt g a spec ~processors:4 in
  let cfg =
    {
      Ccs.Multi_machine.processors = 4;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let observed =
    Ccs.Multi_machine.run ~counters g a spec assign
      ~t:(R.granularity g a ~at_least:256)
      ~batches:4 cfg
  in
  Alcotest.(check int) "same misses" plain.Ccs.Multi_machine.total_misses
    observed.Ccs.Multi_machine.total_misses;
  Alcotest.(check (float 1e-9)) "same makespan"
    plain.Ccs.Multi_machine.makespan observed.Ccs.Multi_machine.makespan

(* --- differential: the placement simulator against a plain machine ------- *)

(* With one processor the parallel run is an ordinary machine replaying the
   period, and with more the uniprocessor shadow still is; pin both over
   every suite app, so a change to either simulator that moves a miss
   shows up here. *)
let test_differential_against_machine (entry : Ccs_apps.Suite.entry) m () =
  let g = entry.Ccs_apps.Suite.graph () in
  let a = R.analyze_exn g in
  let config = Ccs.Config.make ~cache_words:m ~block_words:16 () in
  let cache = Ccs.Config.cache_config config in
  let spec = Ccs.Auto.partition g a config in
  let plan =
    Ccs.Partitioned.batch g a spec ~t:(R.granularity g a ~at_least:m)
  in
  let batches = 2 in
  let run processors =
    let assign = Ccs.Assign.lpt g a spec ~processors in
    Ccs.Multi_machine.run_plan g a spec assign ~plan ~batches
      { Ccs.Multi_machine.processors; cache; miss_penalty = 32. }
  in
  let r1 = run 1 in
  let machine =
    Ccs.Machine.create ~graph:g ~cache ~capacities:plan.Ccs.Plan.capacities ()
  in
  for _ = 1 to batches do
    Ccs.Schedule.run machine (Option.get plan.Ccs.Plan.period)
  done;
  Alcotest.(check int) "P=1 misses = machine" (Ccs.Machine.misses machine)
    r1.Ccs.Multi_machine.per_processor_misses.(0);
  Alcotest.(check int) "P=1 inputs = machine"
    (Ccs.Machine.source_inputs machine)
    r1.Ccs.Multi_machine.inputs;
  List.iter
    (fun processors ->
      let r = run processors in
      Alcotest.(check int64)
        (Printf.sprintf "P=%d uniprocessor time = P=1 makespan" processors)
        (Int64.bits_of_float r1.Ccs.Multi_machine.makespan)
        (Int64.bits_of_float r.Ccs.Multi_machine.uniprocessor_time))
    [ 2; 4 ]

let differential_cases =
  List.concat_map
    (fun entry ->
      List.map
        (fun m ->
          Alcotest.test_case
            (Printf.sprintf "%s M=%d" entry.Ccs_apps.Suite.name m)
            `Quick
            (test_differential_against_machine entry m))
        [ 256; 2048 ])
    Ccs_apps.Suite.all

(* --- session save/load ------------------------------------------------------ *)

let session_setup ~processors =
  let g, a, spec = setup () in
  let assign = Ccs.Assign.lpt g a spec ~processors in
  let cfg =
    {
      Ccs.Multi_machine.processors;
      cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ();
      miss_penalty = 16.;
    }
  in
  let plan =
    Ccs.Partitioned.batch g a spec ~t:(R.granularity g a ~at_least:256)
  in
  (g, a, spec, assign, plan, cfg)

let temp_snap () = Filename.temp_file "ccs-test-multi" ".ccsmsnap"

let test_session_save_load_bit_identical () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:3 in
  (* Uninterrupted reference: 6 batches straight through. *)
  let s_ref = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s_ref 6;
  let r_ref = Ccs.Multi_machine.result s_ref in
  (* Killed + resumed: 2 batches, snapshot, fresh session, restore, 4 more. *)
  let s1 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s1 2;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  let s2 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("load failed: " ^ Ccs.Error.to_string e));
  Alcotest.(check int) "batches restored" 2 (Ccs.Multi_machine.batches_done s2);
  Ccs.Multi_machine.run_batches s2 4;
  let r2 = Ccs.Multi_machine.result s2 in
  Alcotest.(check int) "same total misses" r_ref.Ccs.Multi_machine.total_misses
    r2.Ccs.Multi_machine.total_misses;
  Alcotest.(check int) "same inputs" r_ref.Ccs.Multi_machine.inputs
    r2.Ccs.Multi_machine.inputs;
  Array.iteri
    (fun p m ->
      Alcotest.(check int)
        (Printf.sprintf "processor %d misses" p)
        m
        r2.Ccs.Multi_machine.per_processor_misses.(p))
    r_ref.Ccs.Multi_machine.per_processor_misses;
  Alcotest.(check (float 1e-9)) "same makespan"
    r_ref.Ccs.Multi_machine.makespan r2.Ccs.Multi_machine.makespan;
  Sys.remove path

let test_session_load_mismatch_rejected () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:3 in
  let s1 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s1 1;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  (* Same graph and plan, different processor count: must be refused. *)
  let assign2 = Ccs.Assign.lpt g a spec ~processors:2 in
  let cfg2 = { cfg with Ccs.Multi_machine.processors = 2 } in
  let s2 = Ccs.Multi_machine.create_session g a spec assign2 ~plan cfg2 in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> Alcotest.fail "processor-count mismatch accepted"
  | Error (Ccs.Error.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "processors" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ Ccs.Error.to_string e));
  (* Different private cache size: also refused. *)
  let cfg3 =
    {
      cfg with
      Ccs.Multi_machine.cache =
        Ccs.Cache.config ~size_words:512 ~block_words:16 ();
    }
  in
  let s3 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg3 in
  (match Ccs.Multi_machine.load_session ~path s3 with
  | Ok () -> Alcotest.fail "cache-config mismatch accepted"
  | Error (Ccs.Error.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "cache.size_words" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ Ccs.Error.to_string e));
  Sys.remove path

let test_session_load_other_graph_rejected () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:2 in
  let s1 = Ccs.Multi_machine.create_session g a spec assign ~plan cfg in
  Ccs.Multi_machine.run_batches s1 1;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  (* Same shape and processor count, different module state: a different
     graph, which the snapshot must not be loaded into. *)
  let g2 = Ccs.Generators.uniform_pipeline ~n:16 ~state:32 () in
  let a2 = R.analyze_exn g2 in
  let spec2 = Ccs.Pipeline_partition.optimal_dp g2 a2 ~bound:128 in
  let assign2 = Ccs.Assign.lpt g2 a2 spec2 ~processors:2 in
  let plan2 =
    Ccs.Partitioned.batch g2 a2 spec2 ~t:(R.granularity g2 a2 ~at_least:256)
  in
  let s2 =
    Ccs.Multi_machine.create_session g2 a2 spec2 assign2 ~plan:plan2 cfg
  in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> Alcotest.fail "snapshot of another graph accepted"
  | Error (Ccs.Error.Checkpoint_mismatch { field; _ }) ->
      Alcotest.(check string) "field" "graph" field
  | Error e ->
      Alcotest.fail ("expected Checkpoint_mismatch, got " ^ Ccs.Error.to_string e));
  Sys.remove path

let test_session_restores_observers () =
  let g, a, spec, assign, plan, cfg = session_setup ~processors:2 in
  let entities = G.num_nodes g + G.num_edges g in
  let c_ref = Ccs.Counters.create ~entities in
  let s_ref =
    Ccs.Multi_machine.create_session ~counters:c_ref g a spec assign ~plan cfg
  in
  Ccs.Multi_machine.run_batches s_ref 4;
  let c1 = Ccs.Counters.create ~entities in
  let s1 =
    Ccs.Multi_machine.create_session ~counters:c1 g a spec assign ~plan cfg
  in
  Ccs.Multi_machine.run_batches s1 2;
  let path = temp_snap () in
  Ccs.Multi_machine.save_session ~path s1;
  let c2 = Ccs.Counters.create ~entities in
  let s2 =
    Ccs.Multi_machine.create_session ~counters:c2 g a spec assign ~plan cfg
  in
  (match Ccs.Multi_machine.load_session ~path s2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("load failed: " ^ Ccs.Error.to_string e));
  Ccs.Multi_machine.run_batches s2 2;
  Alcotest.(check bool) "per-entity attribution identical" true
    (Ccs.Counters.dump c_ref = Ccs.Counters.dump c2);
  Sys.remove path

let () =
  Alcotest.run "multi"
    [
      ( "assign",
        [
          Alcotest.test_case "assigns everything" `Quick
            test_lpt_assigns_everything;
          Alcotest.test_case "single processor" `Quick
            test_lpt_single_processor;
          Alcotest.test_case "load conserved" `Quick test_lpt_load_conserved;
          Alcotest.test_case "balance reasonable" `Quick
            test_lpt_balance_reasonable;
          Alcotest.test_case "rejects zero" `Quick test_lpt_rejects_zero;
          Alcotest.test_case "loads positive" `Quick
            test_component_load_positive;
        ] );
      ( "machine",
        [
          Alcotest.test_case "P=1 = uniprocessor" `Quick
            test_single_processor_equals_uniprocessor;
          Alcotest.test_case "speedup grows" `Quick test_speedup_grows;
          Alcotest.test_case "inputs counted" `Quick test_inputs_counted;
          Alcotest.test_case "mismatch rejected" `Quick
            test_mismatched_processors_rejected;
          Alcotest.test_case "work conserved" `Quick
            test_work_conserved_across_processors;
          Alcotest.test_case "aperiodic plan rejected" `Quick
            test_aperiodic_plan_structured_error;
          Alcotest.test_case "attribution sums" `Quick
            test_multi_attribution_sums;
          Alcotest.test_case "observers unobtrusive" `Quick
            test_multi_observers_leave_result_unchanged;
        ] );
      ( "session",
        [
          Alcotest.test_case "save/load bit-identical" `Quick
            test_session_save_load_bit_identical;
          Alcotest.test_case "mismatch rejected" `Quick
            test_session_load_mismatch_rejected;
          Alcotest.test_case "other graph rejected" `Quick
            test_session_load_other_graph_rejected;
          Alcotest.test_case "observers restored" `Quick
            test_session_restores_observers;
        ] );
      ("differential", differential_cases);
    ]
