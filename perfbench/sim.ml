(* The run side: plan a graph, then execute the plan on the interpreted
   machine and on the compiled backend, and check that both agree. *)

type job = {
  app : string;
  graph : Ccs.Graph.t;
  m : int;
  cfg : Ccs.Config.t;
  cache : Ccs.Cache.config;
  out_m : int;  (** Sink firings the machine arm runs to. *)
  out_c : int;  (** Sink firings the compiled arm runs to. *)
  out_check : int;  (** Sink firings the equivalence check runs to. *)
  period_fires : int;
  period_outputs : int;
}

(* Firing volumes.  The compiled backend is roughly ten times faster per
   firing than the machine, so it runs ten times the firings; at these
   sizes execution outweighs planning on both arms, summed over the
   suite, and a round of all jobs takes under two seconds.  [small] is
   the serve workloads' control slice. *)
type size = { fires_m : int; fires_c : int }

let full = { fires_m = 150_000; fires_c = 1_500_000 }
let small = { fires_m = 50_000; fires_c = 500_000 }
let check_fires = 50_000

(* Every suite app at B = 16 and two cache sizes: M = 2048, where the
   working set mostly fits, and M = 256, where misses dominate.  Plans
   once to size the runs in whole periods; the timed arms plan again. *)
let prepare size =
  List.concat_map
    (fun m ->
      List.map
        (fun e ->
          let graph = e.Ccs_apps.Suite.graph () in
          let cfg = Ccs.Config.make ~cache_words:m ~block_words:16 () in
          let plan = (Ccs.Auto.plan ~dynamic:false graph cfg).Ccs.Auto.plan in
          let counts =
            Ccs.Schedule.fire_counts
              ~num_nodes:(Ccs.Graph.num_nodes graph)
              (Option.get plan.Ccs.Plan.period)
          in
          let period_fires = Array.fold_left ( + ) 0 counts in
          let period_outputs =
            List.fold_left
              (fun a v -> a + counts.(v))
              0 (Ccs.Graph.sinks graph)
          in
          let out fires = max 1 (fires / period_fires) * period_outputs in
          {
            app = e.Ccs_apps.Suite.name;
            graph;
            m;
            cfg;
            cache = Ccs.Config.cache_config cfg;
            out_m = out size.fires_m;
            out_c = out size.fires_c;
            out_check = out check_fires;
            period_fires;
            period_outputs;
          })
        Ccs_apps.Suite.all)
    [ 2048; 256 ]

let job_name j = Printf.sprintf "%s@M=%d" j.app j.m

(* How the arms time the calls inside them: untimed, or one span each. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

type arms = {
  machine_ns : int;  (** Auto.plan + Runner.run. *)
  machine_fires : int;
  compiled_ns : int;  (** Auto.plan + lower + create + run. *)
  compiled_fires : int;
  machine_result : Ccs.Runner.result;
  run_ns : int;  (** Runner.run alone. *)
  compiled_run_ns : int;  (** Compiled.run alone. *)
  plan : Ccs.Plan.t;
}

(* One execution of a job: graph to result on both backends. *)
let run_arms (tm : timer) j =
  let t0 = Stats.now_ns () in
  let plan =
    tm.time "sim.plan" (fun () ->
        (Ccs.Auto.plan ~dynamic:false j.graph j.cfg).Ccs.Auto.plan)
  in
  let r0 = Stats.now_ns () in
  let result, machine =
    tm.time "runner.run" (fun () ->
        Ccs.Runner.run ~graph:j.graph ~cache:j.cache ~plan ~outputs:j.out_m ())
  in
  let t1 = Stats.now_ns () in
  let plan_c =
    tm.time "sim.plan" (fun () ->
        (Ccs.Auto.plan ~dynamic:false j.graph j.cfg).Ccs.Auto.plan)
  in
  let lowered =
    tm.time "lowering.lower" (fun () ->
        Ccs.Lowering.exn j.graph ~plan:plan_c ~cache:j.cache)
  in
  let c = tm.time "compiled.create" (fun () -> Ccs.Compiled.create lowered) in
  let c0 = Stats.now_ns () in
  tm.time "compiled.run" (fun () ->
      Ccs.Compiled.run c ~target_outputs:j.out_c);
  let t2 = Stats.now_ns () in
  {
    machine_ns = t1 - t0;
    machine_fires = Ccs.Machine.total_fires machine;
    compiled_ns = t2 - t1;
    compiled_fires =
      Ccs.Compiled.outputs c / j.period_outputs * j.period_fires;
    machine_result = result;
    run_ns = t1 - r0;
    compiled_run_ns = t2 - c0;
    plan;
  }

(* The equivalence contract between the backends, at [out_check] sink
   firings: the compiled word-access trace replays to the machine's miss
   count, output counts agree, and sink checksums are bit-identical to
   the engine running the codegen-semantics kernels.  [skew] is added to
   the machine's miss count (the self-test's deliberate mismatch).
   Returns the failed clauses; an exception is a failed check too. *)
let check ?(skew = 0) j =
  match
    let plan = (Ccs.Auto.plan ~dynamic:false j.graph j.cfg).Ccs.Auto.plan in
    let r, _ =
      Ccs.Runner.run ~graph:j.graph ~cache:j.cache ~plan ~outputs:j.out_check
        ()
    in
    let lowered = Ccs.Lowering.exn j.graph ~plan ~cache:j.cache in
    let c = Ccs.Compiled.create ~record_trace:true lowered in
    Ccs.Compiled.run c ~target_outputs:j.out_check;
    let replayed = Ccs.Replay.misses ~cache:j.cache (Ccs.Compiled.trace c) in
    let program =
      Ccs.Program.create j.graph (Ccs.Codegen.codegen_semantics j.graph)
    in
    let engine = Ccs.Engine.of_plan ~program ~cache:j.cache ~plan () in
    let er = Ccs.Engine.run_plan engine plan ~outputs:j.out_check in
    let checksum =
      List.fold_left
        (fun a v -> a +. (Ccs.Engine.state engine v).(0))
        0. (Ccs.Graph.sinks j.graph)
    in
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (replayed = r.Ccs.Runner.misses + skew, "replayed misses");
        (r.Ccs.Runner.outputs = Ccs.Compiled.outputs c, "machine outputs");
        (er.Ccs.Runner.outputs = Ccs.Compiled.outputs c, "engine outputs");
        ( Int64.bits_of_float checksum
          = Int64.bits_of_float (Ccs.Compiled.checksum c),
          "sink checksum" );
      ]
  with
  | failures -> failures
  | exception e -> [ "raised " ^ Printexc.to_string e ]

(* Timed rounds.  A round runs every job once, in a seeded order, and
   rounds repeat until [stop_ns] (whole rounds only).

   The host is shared, and its speed changes by up to ~1.7x for seconds
   at a time; interference only ever adds time.  So each job keeps the
   best of its executions, the discipline the E20-E23 experiments use,
   and the totals are taken over the per-job bests: every job weighs the
   same whatever the order and however many rounds fit. *)
type best = {
  mutable runs : int;
  mutable machine_ns : int;
  mutable compiled_ns : int;
  mutable latency_ns : int;  (** Both arms of one execution. *)
  mutable machine_fires : int;
  mutable compiled_fires : int;
}

type totals = {
  best : (string * best) list;  (** Per job, in job order. *)
  mutable raised : (string * string) list;  (** Executions that raised. *)
  mutable rounds : int;
}

let run_rounds ~rng ~stop_ns jobs =
  let t =
    {
      best =
        List.map
          (fun j ->
            ( job_name j,
              {
                runs = 0;
                machine_ns = max_int;
                compiled_ns = max_int;
                latency_ns = max_int;
                machine_fires = 0;
                compiled_fires = 0;
              } ))
          jobs;
      raised = [];
      rounds = 0;
    }
  in
  let jobs = Array.of_list jobs in
  let rec round () =
    if t.rounds = 0 || Stats.now_ns () < stop_ns then begin
      let order = Array.copy jobs in
      Stats.shuffle rng order;
      Array.iter
        (fun j ->
          let name = job_name j in
          let b = List.assoc name t.best in
          b.runs <- b.runs + 1;
          match run_arms untimed j with
          | a ->
              b.machine_ns <- min b.machine_ns a.machine_ns;
              b.compiled_ns <- min b.compiled_ns a.compiled_ns;
              b.latency_ns <- min b.latency_ns (a.machine_ns + a.compiled_ns);
              b.machine_fires <- a.machine_fires;
              b.compiled_fires <- a.compiled_fires
          | exception e -> t.raised <- (name, Printexc.to_string e) :: t.raised)
        order;
      t.rounds <- t.rounds + 1;
      round ()
    end
  in
  round ();
  t

let ns_per_fire ns fires = float_of_int ns /. float_of_int (max 1 fires)

(* Jobs with at least one clean execution. *)
let measured t = List.filter (fun (_, b) -> b.latency_ns < max_int) t.best
let executions t = List.fold_left (fun acc (_, b) -> acc + b.runs) 0 t.best
let sum f t = List.fold_left (fun acc (_, b) -> acc + f b) 0 (measured t)

let machine_ns_per_fire t =
  ns_per_fire (sum (fun b -> b.machine_ns) t) (sum (fun b -> b.machine_fires) t)

let compiled_ns_per_fire t =
  ns_per_fire (sum (fun b -> b.compiled_ns) t) (sum (fun b -> b.compiled_fires) t)

(* Best wall time of each job, us. *)
let latencies t =
  let s = Stats.samples () in
  List.iter (fun (_, b) -> Stats.add s (Stats.us_of_ns b.latency_ns)) (measured t);
  s

(* Jobs per second, each at its best execution. *)
let jobs_per_s t =
  float_of_int (List.length (measured t)) /. Stats.s_of_ns (sum (fun b -> b.latency_ns) t)
