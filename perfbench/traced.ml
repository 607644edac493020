(* The traced run: per-layer timings from spans the benchmark records
   around its own calls into the library's public functions.

   Serve side: each traced request goes three ways, in lockstep — over
   the socket to the real daemon, in-process through [Server.handle_line]
   on a [Server.make] daemon with the same configuration, and stage by
   stage through the public functions the handler calls (the "mirror",
   with its own plan store and hot cache, so it follows the daemon's
   hit/miss path without touching the daemon's state).  A request's
   unattributed time is its [handle_line] time minus its mirrored stage
   self times, so the stages plus [server.unattributed_us] account for
   all of [server.handle_line_us] by construction.

   Run side: each traced job runs the same arms as an untraced one with
   a span around every call, then times the layers the arms call
   internally (rate analysis, partitioning, the cache replay) on their
   own. *)

module Server = Ccs_serve.Server
module Protocol = Ccs_serve.Protocol
module Bounded = Ccs_serve.Plan_cache.Bounded
module Lru_index = Ccs_serve.Lru_index

(* --- the mirrored request path --------------------------------------------- *)

let hot_capacity =
  (Server.default_config ~address:(Server.Unix_socket "unused") ~dir:"unused")
    .Server.hot_cache

type mirror = { store : Bounded.t; hot : Protocol.artifact Lru_index.t }

let mirror ~dir =
  { store = Bounded.create ~dir ~bounds:Bounded.unbounded (); hot = Lru_index.create () }

let hot_put m digest a =
  Lru_index.add m.hot digest ~weight:1 a;
  while Lru_index.size m.hot > hot_capacity do
    ignore (Lru_index.evict_lru m.hot)
  done

let policy_of_ways = function
  | None -> Ccs.Cache.Lru
  | Some 1 -> Ccs.Cache.Direct_mapped
  | Some w -> Ccs.Cache.Set_associative w

let artifact_of (r : Protocol.plan_request) (choice : Ccs.Auto.choice) :
    Protocol.artifact =
  let plan = choice.Ccs.Auto.plan in
  {
    Protocol.plan_name = plan.Ccs.Plan.name;
    batch = choice.batch;
    components = Ccs.Spec.assignment choice.partition;
    capacities = plan.capacities;
    period = Option.get plan.period;
    predicted_mpi =
      Ccs.Analysis.partition_cost_prediction choice.partition choice.analysis
        ~b:r.block_words ~t:choice.batch;
    bandwidth_per_input =
      Ccs.Analysis.bandwidth_per_input choice.partition choice.analysis;
    buffer_words = Ccs.Plan.buffer_words plan;
  }

(* The named stages, in the order the handler runs them. *)
let serve_stages =
  [
    "protocol.parse_request"; "serial.parse"; "check.graph";
    "plan_key.of_graph"; "plan_cache.lookup"; "auto.plan"; "plan_cache.store";
    "protocol.plan_response"; "json.to_string";
  ]

(* One plan request, stage by stage; the response text, or [None] where
   the daemon would have answered with an error. *)
let mirror_request sp ~parent ~req m line =
  let st name f = Spans.span sp ~parent ~req name f in
  match st "protocol.parse_request" (fun () -> Protocol.parse_request line) with
  | Error _ | Ok Protocol.Ping -> None
  | Ok (Protocol.Plan r) -> (
      match st "serial.parse" (fun () -> Ccs.Serial.parse r.graph_text) with
      | Error _ -> None
      | Ok g ->
          let report = st "check.graph" (fun () -> Ccs.Check.graph g) in
          if report.Ccs.Check.errors <> [] then None
          else
            let cache =
              Ccs.Cache.config ~policy:(policy_of_ways r.ways)
                ~size_words:r.cache_words ~block_words:r.block_words ()
            in
            let key =
              st "plan_key.of_graph" (fun () ->
                  Ccs.Plan_key.of_graph g ~cache
                    ~capacities:(Option.value r.capacities ~default:[||])
                    ~planner_version:Ccs.Auto.planner_version)
            in
            let digest = Ccs.Plan_key.digest key in
            let cached, artifact =
              match Lru_index.touch m.hot digest with
              | Some a -> (true, a)
              | None -> (
                  match
                    st "plan_cache.lookup" (fun () -> Bounded.lookup m.store ~key)
                  with
                  | Some a ->
                      hot_put m digest a;
                      (true, a)
                  | None ->
                      let cfg =
                        Ccs.Config.make ~policy:cache.Ccs.Cache.policy
                          ~cache_words:r.cache_words ~block_words:r.block_words
                          ()
                      in
                      let choice =
                        st "auto.plan" (fun () ->
                            Ccs.Auto.plan ~dynamic:false g cfg)
                      in
                      let a = artifact_of r choice in
                      st "plan_cache.store" (fun () ->
                          Bounded.store m.store ~key a);
                      hot_put m digest a;
                      (false, a))
            in
            let json =
              st "protocol.plan_response" (fun () ->
                  Protocol.plan_response ~cached ~key:digest ~artifact
                    ~dry_run:None ~elapsed_us:0 ())
            in
            Some (st "json.to_string" (fun () -> Ccs.Json.to_string json)))

(* --- the serve phase ------------------------------------------------------- *)

type serve_phase = {
  traced_latency : Stats.samples;  (** Socket latency, traced blocks, us. *)
  untraced_latency : Stats.samples;  (** Socket latency, untraced blocks, us. *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : (string * int) list;
  mutable mirror_mismatches : int;
  mutable req_bytes : int;
  mutable resp_bytes : int;
}

let note_failure p what =
  p.failed <- p.failed + 1;
  p.failures <- Stats.bump p.failures what

(* [prime] requests go first, all traced, and record the reference
   answers; then blocks of [next] requests alternate between untraced
   (socket only) and traced (socket, handle_line and mirror), so the
   socket latency of the two kinds of block gives the tracing overhead.
   Blocks continue until [stop_ns]; there are at least two. *)
let serve_phase sp ~address ~inproc ~mirror:m ~primed ~prime ~next ~stop_ns
    ~corrupt =
  let p =
    {
      traced_latency = Stats.samples ();
      untraced_latency = Stats.samples ();
      attempted = 0;
      failed = 0;
      failures = [];
      mirror_mismatches = 0;
      req_bytes = 0;
      resp_bytes = 0;
    }
  in
  let index = ref 0 in
  (* the self-test garbles the first answer after priming *)
  let garbled = List.length prime in
  let socket (r : Serve_load.request) =
    let t0 = Stats.now_ns () in
    let resp = Serve_load.round_trip address r.line in
    let ns = Stats.now_ns () - t0 in
    let resp =
      Option.map
        (fun s -> if corrupt && !index = garbled then Serve_load.garble s else s)
        resp
    in
    p.attempted <- p.attempted + 1;
    p.req_bytes <- p.req_bytes + String.length r.line + 1;
    let ok =
      match resp with
      | None ->
          note_failure p "transport";
          false
      | Some s -> (
          p.resp_bytes <- p.resp_bytes + String.length s + 1;
          match Serve_load.classify ~primed r s with
          | Serve_load.Ok_response -> true
          | o ->
              note_failure p (Serve_load.outcome_name o);
              false)
    in
    (resp, ns, ok)
  in
  let traced (r : Serve_load.request) =
    let req = !index in
    Spans.within sp ~req "request" (fun root ->
        let resp, ns, ok =
          Spans.span sp ~parent:root ~req "client.request" (fun () -> socket r)
        in
        let inproc_line () =
          Spans.span sp ~parent:root ~req "server.handle_line" (fun () ->
              Server.handle_line inproc r.line)
        in
        let mirrored () =
          Spans.within sp ~parent:root ~req "mirror" (fun parent ->
              mirror_request sp ~parent ~req m r.line)
        in
        (* alternate the order so neither path always runs on warm
           processor caches *)
        let local, mirrored =
          if req land 1 = 0 then
            let l = inproc_line () in
            (l, mirrored ())
          else
            let mr = mirrored () in
            (inproc_line (), mr)
        in
        let strip = Serve_load.strip_volatile in
        (match resp with
        | Some s when ok && strip s <> strip local ->
            note_failure p "socket_vs_handle_line"
        | _ -> ());
        if Option.map strip mirrored <> Some (strip local) then
          p.mirror_mismatches <- p.mirror_mismatches + 1;
        Stats.add p.traced_latency (Stats.us_of_ns ns);
        resp)
  in
  let guarded r =
    try traced r
    with e ->
      note_failure p ("raised " ^ Printexc.to_string e);
      None
  in
  List.iter
    (fun (r : Serve_load.request) ->
      (match guarded r with
      | Some s when r.key >= 0 && primed.(r.key) = "" ->
          primed.(r.key) <- Serve_load.strip_volatile s
      | _ -> ());
      incr index)
    prime;
  let block = 16 in
  let rec blocks b =
    if b < 2 || Stats.now_ns () < stop_ns then begin
      for _ = 1 to block do
        let r = next !index in
        if b land 1 = 0 then begin
          let _, ns, _ = socket r in
          Stats.add p.untraced_latency (Stats.us_of_ns ns)
        end
        else ignore (guarded r);
        incr index
      done;
      blocks (b + 1)
    end
  in
  blocks 0;
  p

(* Per-request unattributed time: handle_line minus the stage self
   times recorded under the same request id. *)
let unattributed self =
  let hl = Hashtbl.create 1024 and staged = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Spans.span), ns) ->
      if s.name = "server.handle_line" then Hashtbl.replace hl s.req ns
      else if List.mem s.name serve_stages then
        Hashtbl.replace staged s.req
          (ns + Option.value ~default:0 (Hashtbl.find_opt staged s.req)))
    self;
  Hashtbl.fold
    (fun req h acc ->
      (req, h, Option.value ~default:0 (Hashtbl.find_opt staged req)) :: acc)
    hl []
  |> List.sort compare

(* --- the run phase --------------------------------------------------------- *)

type run_phase = {
  traced_ns : Stats.samples;  (** Arms time per traced round, ns. *)
  untraced_ns : Stats.samples;  (** Arms time per untraced round, ns. *)
  compiled_run_ns_per_fire : Stats.samples;
  replay_ns_per_access : Stats.samples;
  machine_self_ns_per_fire : Stats.samples;
  mutable per_m : (int * (int * int)) list;
      (** M -> (accesses, misses), first execution of each job. *)
  mutable fires : int;
  mutable job_failures : int;
  mutable jobs_run : int;
}

let trace_job sp p ~req ~first (j : Sim.job) =
  Spans.within sp ~req "job" (fun root ->
      let t name f = Spans.span sp ~parent:root ~req name f in
      let timed name f =
        let t0 = Stats.now_ns () in
        let v = t name f in
        (v, Stats.now_ns () - t0)
      in
      (match t "rates.analyze" (fun () -> Ccs.Rates.analyze j.graph) with
      | Ok a -> ignore (t "auto.partition" (fun () -> Ccs.Auto.partition j.graph a j.cfg))
      | Error _ -> p.job_failures <- p.job_failures + 1);
      let arms =
        Spans.within sp ~parent:root ~req "arms" (fun parent ->
            Sim.run_arms
              { Sim.time = (fun name f -> Spans.span sp ~parent ~req name f) }
              j)
      in
      let _, recorded =
        t "runner.run_recorded" (fun () ->
            Ccs.Runner.run ~record_trace:true ~graph:j.graph ~cache:j.cache
              ~plan:arms.plan ~outputs:j.out_check ())
      in
      let rep, rep_ns =
        timed "replay.run" (fun () ->
            Ccs.Replay.run ~cache:j.cache (Ccs.Machine.trace recorded))
      in
      if rep.Ccs.Replay.misses <> Ccs.Machine.misses recorded then
        p.job_failures <- p.job_failures + 1;
      let per_access = float_of_int rep_ns /. float_of_int (max 1 rep.accesses) in
      let r = arms.machine_result in
      Stats.add p.replay_ns_per_access per_access;
      Stats.add p.machine_self_ns_per_fire
        ((float_of_int arms.run_ns -. (per_access *. float_of_int r.Ccs.Runner.accesses))
        /. float_of_int (max 1 arms.machine_fires));
      Stats.add p.compiled_run_ns_per_fire
        (Sim.ns_per_fire arms.compiled_run_ns arms.compiled_fires);
      if first then begin
        let a, m = Option.value ~default:(0, 0) (List.assoc_opt j.m p.per_m) in
        p.per_m <-
          (j.m, (a + r.accesses, m + r.misses)) :: List.remove_assoc j.m p.per_m;
        p.fires <- p.fires + arms.machine_fires
      end;
      arms.machine_ns + arms.compiled_ns)

(* Traced rounds of every job; with [untraced_rounds], alternate with
   untraced rounds until [stop_ns] (at least one of each) so the arms'
   time in the two kinds of round gives the tracing overhead. *)
let run_phase sp ~rng ~stop_ns ~untraced_rounds jobs =
  let p =
    {
      traced_ns = Stats.samples ();
      untraced_ns = Stats.samples ();
      compiled_run_ns_per_fire = Stats.samples ();
      replay_ns_per_access = Stats.samples ();
      machine_self_ns_per_fire = Stats.samples ();
      per_m = [];
      fires = 0;
      job_failures = 0;
      jobs_run = 0;
    }
  in
  let next_req = ref 1_000_000 in
  let rec rounds k =
    let traced = (not untraced_rounds) || k land 1 = 1 in
    let ns =
      List.fold_left
        (fun acc j ->
          p.jobs_run <- p.jobs_run + 1;
          incr next_req;
          match
            if traced then trace_job sp p ~req:!next_req ~first:(k <= 1) j
            else
              let a = Sim.run_arms Sim.untimed j in
              a.machine_ns + a.compiled_ns
          with
          | ns -> acc + ns
          | exception _ ->
              p.job_failures <- p.job_failures + 1;
              acc)
        0
        (let a = Array.of_list jobs in
         Stats.shuffle rng a;
         Array.to_list a)
    in
    Stats.add (if traced then p.traced_ns else p.untraced_ns) (float_of_int ns);
    if untraced_rounds && (k < 1 || Stats.now_ns () < stop_ns) then
      rounds (k + 1)
  in
  rounds 0;
  p
