(* Tests for the deadlock/starvation watchdog and fault containment: a
   wedged machine must come back as a diagnostic snapshot (not a hang or a
   raw exception), and every injected kernel fault class must be contained
   with the offending module named. *)

module G = Ccs.Graph
module B = G.Builder
module E = Ccs.Error

let cache = Ccs.Cache.config ~size_words:256 ~block_words:16 ()

(* a -> c with push 2, pop 3: capacity 3 admits one firing of [a] (2
   tokens), after which neither endpoint can move — [a] would overflow,
   [c] is a token short. *)
let wedge_graph () =
  let b = B.create ~name:"wedge" () in
  let a = B.add_module b ~state:4 "a" in
  let c = B.add_module b ~state:4 "c" in
  ignore (B.add_channel b ~src:a ~dst:c ~push:2 ~pop:3 ());
  B.build b

let greedy_driver m ~target_outputs =
  let g = Ccs.Machine.graph m in
  let rec go () =
    if Ccs.Machine.sink_outputs m < target_outputs then (
      match List.find_opt (Ccs.Machine.can_fire m) (G.nodes g) with
      | Some v ->
          Ccs.Machine.fire m v;
          go ()
      | None ->
          (* Force the machine's own diagnostic instead of hanging. *)
          Ccs.Machine.fire m 0)
  in
  go ()

let test_deadlock_diagnostic () =
  let g = wedge_graph () in
  let plan =
    Ccs.Plan.dynamic ~name:"greedy" ~capacities:[| 3 |] greedy_driver
  in
  match Ccs.Watchdog.run ~graph:g ~cache ~plan ~outputs:5 () with
  | Ok _ -> Alcotest.fail "wedged machine reported success"
  | Error (E.Deadlocked { snapshot; detail; _ }) ->
      Alcotest.(check int) "one firing happened" 1 snapshot.E.fired;
      (match snapshot.E.channels with
      | [ ch ] ->
          Alcotest.(check int) "occupancy" 2 ch.E.occupied;
          Alcotest.(check int) "capacity" 3 ch.E.capacity
      | _ -> Alcotest.fail "expected one channel in snapshot");
      Alcotest.(check int) "both modules blocked" 2
        (List.length snapshot.E.blocked);
      Alcotest.(check bool) "detail names a module" true
        (String.length detail > 0)
  | Error e -> Alcotest.fail ("expected Deadlocked, got " ^ E.code e)

let test_budget_exhaustion () =
  (* A driver that ignores its target and fires forever: the budget must
     cut it off with a diagnostic rather than letting it spin. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:4 () in
  let spin m ~target_outputs:_ =
    let rec go () =
      match List.find_opt (Ccs.Machine.can_fire m) (G.nodes g) with
      | Some v ->
          Ccs.Machine.fire m v;
          go ()
      | None -> ()
    in
    go ()
  in
  let plan = Ccs.Plan.dynamic ~name:"spin" ~capacities:[| 4 |] spin in
  match Ccs.Watchdog.run ~budget:100 ~graph:g ~cache ~plan ~outputs:5 () with
  | Error (E.Budget_exhausted { budget; snapshot; _ }) ->
      Alcotest.(check int) "budget echoed" 100 budget;
      Alcotest.(check int) "all firings spent" 100 snapshot.E.fired
  | Ok _ -> Alcotest.fail "runaway driver reported success"
  | Error e -> Alcotest.fail ("expected Budget_exhausted, got " ^ E.code e)

let test_early_return_caught () =
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:4 () in
  let lazy_driver _ ~target_outputs:_ = () in
  let plan = Ccs.Plan.dynamic ~name:"lazy" ~capacities:[| 4 |] lazy_driver in
  match Ccs.Watchdog.run ~graph:g ~cache ~plan ~outputs:5 () with
  | Error (E.Deadlocked { detail; _ }) ->
      Alcotest.(check bool) "reports shortfall" true
        (String.length detail > 0)
  | Ok _ -> Alcotest.fail "early-returning driver reported success"
  | Error e -> Alcotest.fail ("expected Deadlocked, got " ^ E.code e)

let test_bad_capacity_structured () =
  (* Machine.create rejects capacity < max rate; through the watchdog that
     must surface as a structured error, not Invalid_argument. *)
  let g = wedge_graph () in
  let plan =
    Ccs.Plan.dynamic ~name:"greedy" ~capacities:[| 1 |] greedy_driver
  in
  match Ccs.Watchdog.run ~graph:g ~cache ~plan ~outputs:1 () with
  | Error e -> Alcotest.(check string) "code" "failure" (E.code e)
  | Ok _ -> Alcotest.fail "undersized capacity accepted"

let test_budget_saturates () =
  (* Regression: with extreme cache sizes, capacities or output targets the
     budget formula used to overflow to a negative value, making the very
     first firing "exceed" it.  It must saturate at max_int instead. *)
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let plan cap =
    Ccs.Plan.dynamic ~name:"extreme"
      ~capacities:(Array.make (G.num_edges g) cap)
      (fun _ ~target_outputs:_ -> ())
  in
  let b =
    Ccs.Watchdog.default_budget g ~plan:(plan 4) ~cache_words:256
      ~outputs:(max_int / 2)
  in
  Alcotest.(check bool) "budget positive" true (b > 0);
  Alcotest.(check int) "capacity term saturates" max_int
    (Ccs.Watchdog.default_budget g ~plan:(plan max_int) ~cache_words:256
       ~outputs:1);
  Alcotest.(check int) "fully saturated" max_int
    (Ccs.Watchdog.default_budget g ~plan:(plan max_int) ~cache_words:max_int
       ~outputs:max_int)

(* Firings a plain, unwatched run of the planner's plan needs for
   [outputs] sink firings, and the budget the watchdog would grant it. *)
let plan_for g ~m =
  (Ccs.Auto.plan g (Ccs.Config.make ~cache_words:m ~block_words:8 ()))
    .Ccs.Auto.plan

let needed_and_budget g ~plan ~m ~outputs =
  let cache = Ccs.Cache.config ~size_words:m ~block_words:8 () in
  let _, machine = Ccs.Runner.run ~graph:g ~cache ~plan ~outputs () in
  ( Ccs.Machine.total_fires machine,
    Ccs.Watchdog.default_budget g ~plan ~cache_words:m ~outputs )

let test_budget_covers_dynamic_pipelines () =
  (* Regression: these dynamic pipeline plans buffer whole 256-slot cross
     channels before their first output, more than the cache-derived batch
     length covered (16,742 firings needed against a 13,536 budget for
     seed 1485). *)
  List.iter
    (fun seed ->
      let g =
        Ccs.Generators.random_pipeline ~seed ~n:8 ~max_state:12 ~max_rate:4 ()
      in
      let needed, budget =
        needed_and_budget g ~plan:(plan_for g ~m:128) ~m:128 ~outputs:1
      in
      if needed > budget then
        Alcotest.failf "seed %d: %d firings needed, budget %d" seed needed
          budget)
    [ 1485; 2606; 3014; 3189; 5162 ]

let prop_budget_covers_unwatched_run =
  QCheck2.Test.make ~count:100
    ~name:"default budget >= firings an unwatched run needs"
    ~print:(fun (dag, seed, n, extra, m_idx, o_idx) ->
      Printf.sprintf "%s seed=%d n=%d extra=%d m=%d outputs=%d"
        (if dag then "dag" else "pipeline")
        seed n extra [| 128; 256; 512 |].(m_idx) [| 1; 7; 60 |].(o_idx))
    QCheck2.Gen.(
      let* dag = bool in
      let* seed = int_range 0 10_000 in
      let* n = int_range 2 10 in
      let* extra = int_range 0 4 in
      let* m_idx = int_range 0 2 in
      let+ o_idx = int_range 0 2 in
      (dag, seed, n, extra, m_idx, o_idx))
    (fun (dag, seed, n, extra, m_idx, o_idx) ->
      let g =
        if dag then
          Ccs.Generators.random_sdf_dag ~seed ~n:(n + 2) ~max_state:12
            ~max_rate:4 ~extra_edges:extra ()
        else
          Ccs.Generators.random_pipeline ~seed ~n:(n + 2) ~max_state:12
            ~max_rate:4 ()
      in
      let m = [| 128; 256; 512 |].(m_idx) in
      match try Some (plan_for g ~m) with _ -> None with
      | None -> QCheck2.assume_fail ()
      | Some plan ->
          let needed, budget =
            needed_and_budget g ~plan ~m ~outputs:[| 1; 7; 60 |].(o_idx)
          in
          needed <= budget)

let test_watchdog_happy_path () =
  let g = Ccs.Generators.uniform_pipeline ~n:4 ~state:8 () in
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan g cfg in
  match
    Ccs.Watchdog.run ~graph:g ~cache:(Ccs.Config.cache_config cfg)
      ~plan:choice.Ccs.Auto.plan ~outputs:100 ()
  with
  | Ok (result, _) ->
      Alcotest.(check bool) "target met" true
        (result.Ccs.Runner.outputs >= 100)
  | Error e -> Alcotest.fail ("clean run failed: " ^ E.to_string e)

(* --- fault containment ----------------------------------------------------- *)

let engine_for g fault =
  let cfg = Ccs.Config.make ~cache_words:256 ~block_words:16 () in
  let choice = Ccs.Auto.plan ~dynamic:false g cfg in
  let program =
    Ccs.Program.inject fault
      (Ccs.Program.create g (Ccs.Codegen.codegen_semantics g))
  in
  ( Ccs.Engine.create_checked ~program ~cache:(Ccs.Config.cache_config cfg)
      ~capacities:choice.Ccs.Auto.plan.Ccs.Plan.capacities (),
    choice.Ccs.Auto.plan )

let test_fault_kernel_exception () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault =
    Ccs.Fault.of_sites g
      [ { Ccs.Fault.node = 1; fault = E.Kernel_exception; at_fire = 2 } ]
  in
  match engine_for g fault with
  | Error e, _ -> Alcotest.fail ("engine build failed: " ^ E.to_string e)
  | Ok engine, plan -> (
      match Ccs.Engine.run_plan_checked engine plan ~outputs:50 with
      | Ok _ -> Alcotest.fail "injected exception not contained"
      | Error (E.Fault { node; fault = E.Kernel_exception; _ }) ->
          Alcotest.(check string) "module named" (G.node_name g 1) node
      | Error e -> Alcotest.fail ("wrong containment: " ^ E.to_string e))

let test_fault_nan_output () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault =
    Ccs.Fault.of_sites g
      [ { Ccs.Fault.node = 0; fault = E.Nan_output; at_fire = 0 } ]
  in
  match engine_for g fault with
  | Error e, _ -> Alcotest.fail ("engine build failed: " ^ E.to_string e)
  | Ok engine, plan -> (
      match Ccs.Engine.run_plan_checked engine plan ~outputs:50 with
      | Ok _ -> Alcotest.fail "NaN output not contained"
      | Error (E.Fault { node; fault = E.Nan_output; _ }) ->
          Alcotest.(check string) "module named" (G.node_name g 0) node
      | Error e -> Alcotest.fail ("wrong containment: " ^ E.to_string e))

let test_fault_bad_state_arity () =
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault =
    Ccs.Fault.of_sites g
      [ { Ccs.Fault.node = 2; fault = E.Bad_state_arity; at_fire = 0 } ]
  in
  match engine_for g fault with
  | Ok _, _ -> Alcotest.fail "wrong-arity state not caught at build"
  | Error (E.Fault { node; fault = E.Bad_state_arity; _ }), _ ->
      Alcotest.(check string) "module named" (G.node_name g 2) node
  | Error e, _ -> Alcotest.fail ("wrong containment: " ^ E.to_string e)

let test_fault_plan_deterministic () =
  let g = Ccs.Generators.uniform_pipeline ~n:5 ~state:8 () in
  let sites seed = Ccs.Fault.sites (Ccs.Fault.plan ~seed ~count:4 g) in
  Alcotest.(check bool) "same seed, same sites" true (sites 42 = sites 42);
  Alcotest.(check bool) "plan is nonempty" true (List.length (sites 42) = 4)

let test_fault_plan_sites_distinct () =
  (* Regression: colliding draws used to be kept silently, yielding plans
     with fewer effective sites than requested.  Every (module, firing)
     pair must now be unique, across many seeds. *)
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  for seed = 0 to 49 do
    let sites = Ccs.Fault.sites (Ccs.Fault.plan ~seed ~count:20 ~horizon:8 g) in
    let keys =
      List.map (fun s -> (s.Ccs.Fault.node, s.Ccs.Fault.at_fire)) sites
    in
    Alcotest.(check int)
      (Printf.sprintf "20 distinct sites (seed %d)" seed)
      20
      (List.length (List.sort_uniq compare keys))
  done

let test_fault_plan_empty_graph () =
  (* Regression: drawing fault sites over a module-less graph used to crash
     with Division_by_zero.  Builder.build refuses such graphs outright
     (structured Empty_graph defect), and the guard inside Fault.plan keeps
     the invariant even for graphs arriving by other routes. *)
  (match G.Builder.build_result (G.Builder.create ~name:"empty" ()) with
  | Ok _ -> Alcotest.fail "empty graph built"
  | Error errs ->
      Alcotest.(check bool) "Empty_graph among defects" true
        (List.exists (fun e -> E.code e = "empty-graph") errs));
  (* A zero-site plan is a fine no-op regardless of graph size. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:8 () in
  Alcotest.(check int) "count=0 is fine" 0
    (List.length (Ccs.Fault.sites (Ccs.Fault.plan ~seed:7 ~count:0 g)))

let test_fault_plan_over_capacity () =
  (* More sites than the modules x horizon space can hold cannot all be
     distinct; the request must be rejected up front, not spin forever. *)
  let g = Ccs.Generators.uniform_pipeline ~n:2 ~state:8 () in
  match Ccs.Fault.plan ~seed:1 ~count:7 ~horizon:3 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-capacity site count accepted"

let test_clean_program_unaffected () =
  (* An engine with validation on but no injected faults must behave
     exactly like the plain runner path. *)
  let g = Ccs.Generators.uniform_pipeline ~n:3 ~state:8 () in
  let fault = Ccs.Fault.of_sites g [] in
  match engine_for g fault with
  | Error e, _ -> Alcotest.fail ("engine build failed: " ^ E.to_string e)
  | Ok engine, plan -> (
      match Ccs.Engine.run_plan_checked engine plan ~outputs:50 with
      | Ok result ->
          Alcotest.(check bool) "target met" true
            (result.Ccs.Runner.outputs >= 50)
      | Error e -> Alcotest.fail ("clean run failed: " ^ E.to_string e))

let () =
  Alcotest.run "watchdog"
    [
      ( "watchdog",
        [
          Alcotest.test_case "deadlock diagnostic" `Quick
            test_deadlock_diagnostic;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "early return caught" `Quick
            test_early_return_caught;
          Alcotest.test_case "bad capacity structured" `Quick
            test_bad_capacity_structured;
          Alcotest.test_case "budget saturates" `Quick test_budget_saturates;
          Alcotest.test_case "budget covers dynamic pipelines" `Quick
            test_budget_covers_dynamic_pipelines;
          QCheck_alcotest.to_alcotest prop_budget_covers_unwatched_run;
          Alcotest.test_case "happy path" `Quick test_watchdog_happy_path;
        ] );
      ( "fault containment",
        [
          Alcotest.test_case "kernel exception" `Quick
            test_fault_kernel_exception;
          Alcotest.test_case "nan output" `Quick test_fault_nan_output;
          Alcotest.test_case "bad state arity" `Quick
            test_fault_bad_state_arity;
          Alcotest.test_case "seeded plan deterministic" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "seeded plan sites distinct" `Quick
            test_fault_plan_sites_distinct;
          Alcotest.test_case "empty graph rejected" `Quick
            test_fault_plan_empty_graph;
          Alcotest.test_case "over-capacity count rejected" `Quick
            test_fault_plan_over_capacity;
          Alcotest.test_case "clean program unaffected" `Quick
            test_clean_program_unaffected;
        ] );
    ]
