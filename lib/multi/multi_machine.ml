module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Binio = Ccs_sdf.Binio
module Spec = Ccs_partition.Spec
module Cache = Ccs_cache.Cache
module Machine = Ccs_exec.Machine
module Checkpoint = Ccs_exec.Checkpoint
module Plan_key = Ccs_exec.Plan_key
module Metrics = Ccs_obs.Metrics

type config = {
  processors : int;
  cache : Cache.config;
  miss_penalty : float;
}

type result = {
  per_processor_misses : int array;
  per_processor_work : float array;
  per_processor_time : float array;
  makespan : float;
  uniprocessor_time : float;
  speedup : float;
  total_misses : int;
  inputs : int;
}

(* [parallel] carries the observers and is switched to the firing module's
   processor cache before every firing; [shadow], the unobserved
   uniprocessor baseline, fires in lockstep on the same plan, so the two
   share execution state (firing counts, channel cursors) at all times. *)
type session = {
  cfg : config;
  plan_name : string;
  period : Ccs_sched.Schedule.t;
  parallel : Machine.t;
  shadow : Machine.t;
  caches : Cache.t array; (* per processor *)
  proc_of_node : int array;
  source : Graph.node;
  metrics : Metrics.t option;
  mutable batches_done : int;
}

let create_session ?counters ?tracer ?metrics g _a spec assign ~plan cfg =
  if cfg.processors <> assign.Assign.processors then
    invalid_arg "Multi_machine.run: assignment processor count mismatch";
  (* The placement simulator replays a static batch schedule; a dynamic
     (aperiodic) plan has no period to replay, which is a caller error of
     the structured kind, not an [assert false]. *)
  let period =
    match plan.Ccs_sched.Plan.period with
    | Some p -> p
    | None ->
        E.fail
          (E.Plan_invalid
             {
               plan = plan.Ccs_sched.Plan.name;
               reason =
                 "plan is aperiodic (no static period); Multi_machine \
                  replays periodic batch schedules only";
             })
  in
  let capacities = plan.Ccs_sched.Plan.capacities in
  let parallel =
    Machine.create ?counters ?tracer ~graph:g ~cache:cfg.cache ~capacities ()
  in
  {
    cfg;
    plan_name = plan.Ccs_sched.Plan.name;
    period;
    parallel;
    shadow = Machine.create ~graph:g ~cache:cfg.cache ~capacities ();
    caches =
      Array.init cfg.processors (fun p ->
          if p = 0 then Machine.cache parallel else Cache.create cfg.cache);
    proc_of_node =
      Array.init (Graph.num_nodes g) (fun v ->
          assign.Assign.processor_of_component.(Spec.component_of spec v));
    source = Graph.source g;
    metrics;
    batches_done = 0;
  }

let fire session v =
  Machine.set_cache session.parallel
    session.caches.(session.proc_of_node.(v));
  Machine.fire session.parallel v;
  Machine.fire session.shadow v

let run_batches session k =
  for _ = 1 to k do
    Ccs_sched.Schedule.iter session.period ~f:(fire session)
  done;
  session.batches_done <- session.batches_done + k

let batches_done session = session.batches_done
let inputs session = Machine.fires session.parallel session.source

(* Pull-model sync: one labeled gauge set per processor cache, refreshed at
   measurement points only — the parallel machine carries no registry, so
   attaching one cannot perturb replacement. *)
let sync_metrics session =
  match session.metrics with
  | None -> ()
  | Some reg ->
      Metrics.set
        (Metrics.gauge reg ~help:"Batches of the period schedule replayed"
           "ccs_multi_batches")
        session.batches_done;
      Metrics.set
        (Metrics.gauge reg ~help:"Source firings executed" "ccs_multi_inputs")
        (inputs session);
      Array.iteri
        (fun p cache ->
          let labels = [ ("proc", string_of_int p) ] in
          let g name help = Metrics.gauge reg ~help ~labels name in
          Metrics.set
            (g "ccs_cache_accesses" "Simulated cache accesses")
            (Cache.accesses cache);
          Metrics.set
            (g "ccs_cache_hits" "Simulated cache hits")
            (Cache.hits cache);
          Metrics.set
            (g "ccs_cache_misses" "Simulated cache misses")
            (Cache.misses cache);
          Metrics.set
            (g "ccs_cache_evictions" "Blocks displaced by replacement")
            (Cache.evictions cache))
        session.caches

(* Words a firing of [v] touches: its whole state, then every token it
   pops and pushes, hit or miss. *)
let words_per_fire g v =
  let sum rate edges = List.fold_left (fun acc e -> acc + rate g e) 0 edges in
  Graph.state g v
  + sum Graph.pop (Graph.in_edges g v)
  + sum Graph.push (Graph.out_edges g v)

let result session =
  sync_metrics session;
  let g = Machine.graph session.parallel in
  (* Integer sums, so the float work figures are exact below 2^53. *)
  let work = Array.make session.cfg.processors 0 in
  Array.iteri
    (fun v p ->
      work.(p) <-
        work.(p) + (Machine.fires session.parallel v * words_per_fire g v))
    session.proc_of_node;
  let inputs = inputs session in
  let per_input x = x /. float_of_int (max 1 inputs) in
  let cost w misses =
    per_input
      (float_of_int w +. (session.cfg.miss_penalty *. float_of_int misses))
  in
  let per_processor_misses = Array.map Cache.misses session.caches in
  let per_processor_time =
    Array.mapi (fun p w -> cost w per_processor_misses.(p)) work
  in
  let makespan = Array.fold_left Float.max 0. per_processor_time in
  let uniprocessor_time =
    cost (Array.fold_left ( + ) 0 work) (Machine.misses session.shadow)
  in
  {
    per_processor_misses;
    per_processor_work = Array.map (fun w -> per_input (float_of_int w)) work;
    per_processor_time;
    makespan;
    uniprocessor_time;
    speedup = (if makespan = 0. then 1. else uniprocessor_time /. makespan);
    total_misses = Array.fold_left ( + ) 0 per_processor_misses;
    inputs;
  }

(* --- session snapshots -----------------------------------------------------

   Payload: the session's identity as named strings, the batch count, the
   shared execution state, the P private caches then the shadow cache, and
   the parallel run's observers — all but the identity written with
   {!Checkpoint}'s codecs. *)

let magic = "CCSMSNAP"
let version = 2

let identity session =
  let g = Machine.graph session.parallel in
  let c = session.cfg.cache in
  let tag, ways = Plan_key.policy_tag c.Cache.policy in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  [
    ("graph", Plan_key.graph_digest g);
    ("plan", session.plan_name);
    ("processors", string_of_int session.cfg.processors);
    ("miss_penalty", Printf.sprintf "%.17g" session.cfg.miss_penalty);
    ("cache.size_words", string_of_int c.Cache.size_words);
    ("cache.block_words", string_of_int c.Cache.block_words);
    ("cache.policy", string_of_int tag);
    ("cache.ways", string_of_int ways);
    ( "capacities",
      ints (Array.init (Graph.num_edges g) (Machine.capacity session.parallel))
    );
    ("channels", string_of_int (Graph.num_edges g));
    ("caches", string_of_int (session.cfg.processors + 1));
  ]

let all_caches session =
  Array.append session.caches [| Machine.cache session.shadow |]

let save_session ~path session =
  let w = Binio.W.create () in
  List.iter (fun (_, v) -> Binio.W.string w v) (identity session);
  Binio.W.int w session.batches_done;
  Checkpoint.encode_machine w (Machine.persist session.parallel);
  Array.iter
    (fun c -> Checkpoint.encode_cache w (Cache.persist c))
    (all_caches session);
  Checkpoint.encode_observers w (Checkpoint.observers_of session.parallel);
  Binio.write_file ~path ~magic ~version (Binio.W.contents w)

let load_session ~path session =
  match Binio.read_file ~path ~magic ~version () with
  | Error e -> Error e
  | Ok payload ->
      E.protect (fun () ->
          (* Decode and check everything before the session changes. *)
          let r = Binio.R.of_string ~path payload in
          List.iter
            (fun (field, found) ->
              let expected = Binio.R.string r in
              if expected <> found then
                E.fail (E.Checkpoint_mismatch { path; field; expected; found }))
            (identity session);
          let batches_done = Binio.R.int r in
          let machine = Checkpoint.decode_machine r in
          let caches =
            Array.map
              (fun _ -> Checkpoint.decode_cache ~path r)
              (all_caches session)
          in
          let observers = Checkpoint.decode_observers r in
          Binio.R.expect_end r;
          Result.iter_error E.fail
            (Checkpoint.validate_observers ~path observers session.parallel);
          (try
             Machine.restore session.parallel machine;
             Machine.restore session.shadow machine;
             Array.iter2 Cache.restore (all_caches session) caches
           with Invalid_argument msg ->
             E.fail (E.Checkpoint_corrupt { path; reason = msg }));
          Checkpoint.restore_observers observers session.parallel;
          session.batches_done <- batches_done)

(* --- one-shot wrappers ----------------------------------------------------- *)

let run_plan ?counters ?tracer ?metrics g a spec assign ~plan ~batches cfg =
  let session =
    create_session ?counters ?tracer ?metrics g a spec assign ~plan cfg
  in
  run_batches session batches;
  result session

let run ?counters ?tracer ?metrics g a spec assign ~t ~batches cfg =
  let plan = Ccs_sched.Partitioned.batch g a spec ~t in
  run_plan ?counters ?tracer ?metrics g a spec assign ~plan ~batches cfg
