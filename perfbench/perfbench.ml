(* One benchmark run: one workload, one seed, traced or not.  The last
   line of standard output is the result object; the line before it is
   the environment block.  See README.md for the workloads and the
   metrics, and run.py for how it is built and invoked. *)

module Json = Ccs.Json
module Server = Ccs_serve.Server

type inject = No_fault | Corrupt_response | Miss_count

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  inject : inject;
  ccsched : string;
  git_rev : string;
  source_digest : string;
}

let workloads = [ "serve-warm"; "serve-cold"; "simulate" ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        Hashtbl.replace tbl (String.sub flag 2 (String.length flag - 2)) v;
        go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S" x
  in
  go (List.tl (Array.to_list Sys.argv));
  let get ?default k =
    match (Hashtbl.find_opt tbl k, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> die "missing --%s" k
  in
  let int k =
    match int_of_string_opt (get k) with
    | Some n -> n
    | None -> die "--%s needs an integer" k
  in
  let workload = get "workload" in
  if not (List.mem workload workloads) then
    die "unknown workload %S (one of %s)" workload (String.concat ", " workloads);
  let seconds = int "seconds" in
  if seconds < 1 then die "--seconds must be at least 1";
  {
    workload;
    seed = int "seed";
    seconds = float_of_int seconds;
    trace =
      (match get "trace" with
      | "0" -> false
      | "1" -> true
      | _ -> die "--trace is 0 or 1");
    inject =
      (match get ~default:"none" "inject" with
      | "none" -> No_fault
      | "corrupt-response" -> Corrupt_response
      | "miss-count" -> Miss_count
      | x -> die "unknown --inject %S" x);
    ccsched = get "ccsched";
    git_rev = get ~default:"unknown" "git-rev";
    source_digest = get ~default:"unknown" "source-digest";
  }

(* --- results --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; n : int }

let metric ?(n = 1) name unit value = { name; value; unit; n }

(* A value must be a number: an empty sample set reports 0 with n = 0. *)
let finite x = if Float.is_finite x then x else 0.

(* [.p50], [.p99] and [.n] of one layer timing. *)
let timing name unit samples =
  let n = Stats.count samples in
  match Stats.percentiles samples [ 50.; 99. ] with
  | [ p50; p99 ] ->
      [
        metric ~n (name ^ ".p50") unit (finite p50);
        metric ~n (name ^ ".p99") unit (finite p99);
        metric ~n (name ^ ".n") "count" (float_of_int n);
      ]
  | _ -> assert false

let of_list xs =
  let s = Stats.samples () in
  List.iter (Stats.add s) xs;
  s

let num x = Json.Float x
let count_json l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l)
let float_json l = Json.Obj (List.map (fun (k, v) -> (k, num v)) l)

let print_result a ~attempted ~failed ~extra metrics =
  let env =
    Json.Obj
      [
        ( "environment",
          Json.Obj
            ([
               ("workload", Json.String a.workload);
               ("seed", Json.Int a.seed);
               ("seconds", num a.seconds);
               ("trace", Json.Bool a.trace);
               ("nproc", Json.Int (Array.length Affinity.allowed));
               ( "cpus",
                 let ints a = Json.List (Array.to_list (Array.map (fun c -> Json.Int c) a)) in
                 Json.Obj
                   [ ("daemon", ints Affinity.daemon); ("benchmark", ints Affinity.benchmark) ] );
               ("ocaml", Json.String Sys.ocaml_version);
               ("git_rev", Json.String a.git_rev);
               ("source_digest", Json.String a.source_digest);
               ( "samples",
                 count_json (List.map (fun m -> (m.name, m.n)) metrics) );
             ]
            @ extra) );
      ]
  in
  print_endline (Json.to_string env);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     ( m.name,
                       Json.Obj
                         [ ("value", num m.value); ("unit", Json.String m.unit) ]
                     ))
                   metrics) );
          ]))

(* --- inputs ---------------------------------------------------------------- *)

(* The plan requests a workload's traced serve phase replays: the warm
   keys, or the simulate jobs' own graphs and cache sizes. *)
let simulate_keys () =
  Array.of_list
    (List.concat_map
       (fun m ->
         List.map
           (fun e ->
             Serve_load.plan_line (e.Ccs_apps.Suite.graph ()) ~cache_words:m)
           Ccs_apps.Suite.all)
       [ 2048; 256 ])

let keyed_next keys rng _ =
  let k = Random.State.int rng (Array.length keys) in
  { Serve_load.line = keys.(k); key = k }

let shuffled_keys keys rng =
  let order = Array.init (Array.length keys) Fun.id in
  Stats.shuffle rng order;
  List.map (fun k -> { Serve_load.line = keys.(k); key = k }) (Array.to_list order)

let median_setup times = Stats.median (of_list times)

(* --- serve-warm and serve-cold, untraced ------------------------------------ *)

type tally = { mutable attempted : int; mutable failures : (string * int) list }

let tally () = { attempted = 0; failures = [] }

let fail t what = t.failures <- Stats.bump t.failures what

let failed t = List.fold_left (fun acc (_, k) -> acc + k) 0 t.failures

let note t (s : Serve_load.sample) =
  t.attempted <- t.attempted + 1;
  if s.outcome <> Serve_load.Ok_response then
    fail t (Serve_load.outcome_name s.outcome)

(* The executor control slice: the run-side metrics measured on the same
   host in the same run, which no serve change should move.  It runs
   before the serve loop, while the disk is quiet: after the loop the
   kernel is still writing back the plan store. *)
let control_slice a t =
  let c =
    Sim.run_rounds
      ~rng:(Random.State.make [| a.seed; 7 |])
      ~stop_ns:(Stats.now_ns () + int_of_float (a.seconds *. 0.4e9))
      (Sim.prepare Sim.small)
  in
  List.iter (fun (name, _) -> fail t ("control " ^ name)) c.raised;
  c

(* Set-up [reps] times; set-up time is the median and the last set-up
   serves the measured loop. *)
let repeated_setup reps setup stop =
  let rec go rep times =
    let x, s = setup rep in
    if rep + 1 < reps then begin
      stop x;
      go (rep + 1) (s :: times)
    end
    else (x, List.rev (s :: times))
  in
  go 0 []

let print_serve a t ~reps ~setup_times ~(control : Sim.totals) ~start ~samples
    ~extra =
  let windows = Serve_load.windows ~start ~seconds:a.seconds samples in
  if windows = [] then failwith "no request was sent in the measured loop";
  (* a window where most requests failed has an infinite percentile;
     such a run is reported with correct = false *)
  let best f pick =
    finite
      (List.fold_left (fun acc w -> pick acc (f w)) (f (List.hd windows)) windows)
  in
  let n = List.length samples in
  let metrics =
    [
      metric ~n "req_per_s" "1/s" (best (fun w -> w.Serve_load.throughput) Float.max);
      metric ~n "latency_p50_us" "us" (best (fun w -> w.Serve_load.p50_us) Float.min);
      metric ~n "latency_p90_us" "us" (best (fun w -> w.Serve_load.p90_us) Float.min);
      metric
        ~n:(Sim.sum (fun b -> b.Sim.machine_fires) control)
        "machine_ns_per_fire" "ns" (Sim.machine_ns_per_fire control);
      metric
        ~n:(Sim.sum (fun b -> b.Sim.compiled_fires) control)
        "compiled_ns_per_fire" "ns" (Sim.compiled_ns_per_fire control);
      metric ~n:reps "setup_s" "s" (median_setup setup_times);
    ]
  in
  print_result a ~attempted:t.attempted ~failed:(failed t)
    ~extra:
      ([
         ("failures", count_json t.failures);
         ("setup_s_each", Json.List (List.map num setup_times));
         ( "windows",
           Json.List
             (List.map
                (fun (w : Serve_load.window) ->
                  Json.Obj
                    [
                      ("requests", Json.Int w.requests);
                      ("req_per_s", num w.throughput);
                      ("p50_us", num w.p50_us);
                      ("p90_us", num w.p90_us);
                    ])
                windows) );
         ("control_rounds", Json.Int control.rounds);
       ]
      @ extra)
    metrics

(* Both serve workloads call [Server.handle_line] in-process, one request
   after another, on a [Server.make] daemon with production defaults and
   a fresh state directory: the handler's own wall time, including its
   per-request metrics publish, which is the figure the ROADMAP sets its
   warm-hit target on.  Over the socket, with two client processes, the
   same loops spread by 36-76% between identical runs on a shared host,
   far beyond the largest bound the format allows; the traced run still
   drives a real daemon over its socket in lockstep and reports the
   socket's share as [transport_us].

   serve-warm primes every warm key during set-up and then requests them
   in seeded random order; serve-cold sends a never-seen graph each
   time, generated between calls. *)
let serve_e2e a ~work =
  let t = tally () in
  let warm = a.workload = "serve-warm" in
  let keys = if warm then Serve_load.warm_keys () else [||] in
  let setup rep =
    let dir = Filename.concat work (Printf.sprintf "daemon-%d" rep) in
    let t0 = Stats.now_ns () in
    let d =
      Server.make
        (Server.default_config
           ~address:(Server.Unix_socket (Filename.concat dir "unused.sock"))
           ~dir)
    in
    let primed = Array.make (Array.length keys) "" in
    List.iter
      (fun (r : Serve_load.request) ->
        t.attempted <- t.attempted + 1;
        let s = Server.handle_line d r.line in
        match Serve_load.classify ~primed r s with
        | Serve_load.Ok_response -> primed.(r.key) <- Serve_load.strip_volatile s
        | o -> fail t (Serve_load.outcome_name o))
      (shuffled_keys keys (Random.State.make [| a.seed; rep |]));
    ((d, primed), Stats.s_of_ns (Stats.now_ns () - t0))
  in
  let reps = if warm then 3 else 25 in
  let (d, primed), setup_times = repeated_setup reps setup ignore in
  let control = control_slice a t in
  let next =
    if warm then keyed_next keys (Random.State.make [| a.seed; 2 |])
    else Serve_load.cold_request ~stream:(Hashtbl.hash (a.seed, 2))
  in
  let index = ref 0 in
  let loop ~seconds ~corrupt =
    let start = Stats.now_ns () in
    let stop = start + int_of_float (seconds *. 1e9) in
    let rec go acc first =
      if Stats.now_ns () >= stop then (start, List.rev acc)
      else
        let r = next !index in
        incr index;
        let t0 = Stats.now_ns () in
        let resp = try Some (Server.handle_line d r.line) with _ -> None in
        let t1 = Stats.now_ns () in
        let outcome =
          match resp with
          | None -> Serve_load.Error_response
          | Some s ->
              let s = if corrupt && first then Serve_load.garble s else s in
              Serve_load.classify ~primed r s
        in
        let sample = { Serve_load.start_ns = t0; latency_ns = t1 - t0; outcome } in
        note t sample;
        go (sample :: acc) false
    in
    go [] true
  in
  let counters () =
    List.map
      (fun (short, series) ->
        ( short,
          float_of_int (Option.value ~default:0 (Server.metric_value d series)) ))
      Serve_load.counter_names
  in
  (* warm-up: let the processor caches and the hot cache settle *)
  ignore (loop ~seconds:(Float.min 2. (a.seconds /. 5.)) ~corrupt:false);
  let before = counters () in
  let start, samples =
    loop ~seconds:a.seconds ~corrupt:(a.inject = Corrupt_response)
  in
  let after = counters () in
  print_serve a t ~reps ~setup_times ~control ~start ~samples
    ~extra:
      [ ("daemon_metrics_delta", float_json (Serve_load.deltas ~before ~after)) ]

(* --- simulate, untraced ---------------------------------------------------- *)

let simulate_e2e a =
  let reps = 5 in
  let setup () =
    let t0 = Stats.now_ns () in
    let jobs = Sim.prepare Sim.full in
    (jobs, Stats.s_of_ns (Stats.now_ns () - t0))
  in
  let runs = List.init reps (fun _ -> setup ()) in
  let jobs = fst (List.nth runs (reps - 1)) in
  let setup_times = List.map snd runs in
  let t =
    Sim.run_rounds
      ~rng:(Random.State.make [| a.seed; 3 |])
      ~stop_ns:(Stats.now_ns () + int_of_float (a.seconds *. 1e9))
      jobs
  in
  let checks =
    List.mapi
      (fun i j ->
        let skew = if a.inject = Miss_count && i = 0 then 1 else 0 in
        (Sim.job_name j, Sim.check ~skew j))
      jobs
  in
  (* every execution of a job that fails its check is a failed one *)
  let failed =
    List.fold_left
      (fun acc (name, failures) ->
        acc
        +
        if failures <> [] then (List.assoc name t.best).Sim.runs
        else List.length (List.filter (fun (n, _) -> n = name) t.raised))
      0 checks
  in
  let latency = Sim.latencies t in
  let n = Stats.count latency in
  let p50, p90 =
    match Stats.percentiles latency [ 50.; 90. ] with
    | [ x; y ] -> (x, y)
    | _ -> assert false
  in
  let metrics =
    [
      metric ~n "req_per_s" "1/s" (Sim.jobs_per_s t);
      metric ~n "latency_p50_us" "us" p50;
      metric ~n "latency_p90_us" "us" p90;
      metric
        ~n:(Sim.sum (fun b -> b.Sim.machine_fires) t)
        "machine_ns_per_fire" "ns" (Sim.machine_ns_per_fire t);
      metric
        ~n:(Sim.sum (fun b -> b.Sim.compiled_fires) t)
        "compiled_ns_per_fire" "ns" (Sim.compiled_ns_per_fire t);
      metric ~n:reps "setup_s" "s" (median_setup setup_times);
    ]
  in
  print_result a ~attempted:(Sim.executions t) ~failed
    ~extra:
      [
        ( "check_failures",
          Json.Obj
            (List.filter_map
               (fun (name, f) ->
                 if f = [] then None
                 else Some (name, Json.List (List.map (fun s -> Json.String s) f)))
               checks) );
        ( "raised",
          Json.Obj (List.map (fun (n, e) -> (n, Json.String e)) t.raised) );
        ("rounds", Json.Int t.rounds);
        ("setup_s_each", Json.List (List.map num setup_times));
      ]
    metrics

(* --- the traced run (every workload) -------------------------------------- *)

let traced a ~work =
  let sp = Spans.create () in
  let rng = Random.State.make [| a.seed; 4 |] in
  let simulate = a.workload = "simulate" in
  let d =
    Serve_load.start ~ccsched:a.ccsched ~dir:(Filename.concat work "daemon")
  in
  let inproc =
    Server.make
      (Server.default_config
         ~address:(Server.Unix_socket (Filename.concat work "unused.sock"))
         ~dir:(Filename.concat work "inproc"))
  in
  let mirror = Traced.mirror ~dir:(Filename.concat work "mirror") in
  let keys, prime, next =
    match a.workload with
    | "serve-cold" ->
        let stream = Hashtbl.hash (a.seed, 5) in
        ([||], [], Serve_load.cold_request ~stream)
    | _ ->
        let keys =
          if simulate then simulate_keys () else Serve_load.warm_keys ()
        in
        (keys, shuffled_keys keys rng, keyed_next keys rng)
  in
  let primed = Array.make (Array.length keys) "" in
  let serve_share = if simulate then 0.25 else 0.7 in
  let before = Serve_load.counters d in
  let sp_serve =
    Traced.serve_phase sp ~address:d.address ~inproc ~mirror ~primed ~prime
      ~next
      ~stop_ns:(Stats.now_ns () + int_of_float (serve_share *. a.seconds *. 1e9))
      ~corrupt:(a.inject = Corrupt_response)
  in
  let after = Serve_load.counters d in
  Serve_load.stop d;
  let rp =
    Traced.run_phase sp ~rng
      ~stop_ns:
        (Stats.now_ns ()
        + int_of_float ((1. -. serve_share) *. a.seconds *. 1e9))
      ~untraced_rounds:simulate
      (Sim.prepare (if simulate then Sim.full else Sim.small))
  in
  let self = Spans.self_times sp in
  let us_of name =
    of_list (List.map Stats.us_of_ns (Spans.self_of self name))
  in
  let per_req = Traced.unattributed self in
  let client =
    List.filter_map
      (fun ((s : Spans.span), _) ->
        if s.name = "client.request" then Some (s.req, s.t1 - s.t0) else None)
      self
  in
  let transport =
    of_list
      (List.filter_map
         (fun (req, hl, _) ->
           Option.map
             (fun c -> Stats.us_of_ns (c - hl))
             (List.assoc_opt req client))
         per_req)
  in
  let unattributed =
    of_list (List.map (fun (_, hl, st) -> Stats.us_of_ns (hl - st)) per_req)
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 per_req in
  let delta k = List.assoc k (Serve_load.deltas ~before ~after) in
  let hits = delta "hits" and misses = delta "misses" in
  let ratio a b = if b = 0. then 0. else a /. b in
  let overhead =
    if simulate then
      100. *. (ratio (Stats.median rp.traced_ns) (Stats.median rp.untraced_ns) -. 1.)
    else
      100.
      *. (ratio
            (Stats.median sp_serve.traced_latency)
            (Stats.median sp_serve.untraced_latency)
         -. 1.)
  in
  let cache_counts m =
    let acc, mis = Option.value ~default:(0, 0) (List.assoc_opt m rp.per_m) in
    let p = Printf.sprintf "cache.m%d." m in
    [
      metric (p ^ "accesses") "count" (float_of_int acc);
      metric (p ^ "misses") "count" (float_of_int mis);
      metric (p ^ "miss_ratio") "ratio" (ratio (float_of_int mis) (float_of_int acc));
    ]
  in
  let attempted = sp_serve.attempted + rp.jobs_run in
  let failed = sp_serve.failed + rp.job_failures in
  let metrics =
    timing "server.handle_line_us" "us" (us_of "server.handle_line")
    @ timing "transport_us" "us" transport
    @ List.concat_map
        (fun stage -> timing (stage ^ "_us") "us" (us_of stage))
        Traced.serve_stages
    @ timing "server.unattributed_us" "us" unattributed
    @ [
        metric "server.hits" "count" hits;
        metric "server.misses" "count" misses;
        metric "server.plan_builds" "count" (delta "plan_builds");
        metric "server.errors" "count" (delta "errors");
        metric "server.shed" "count" (delta "shed");
        metric "server.hit_ratio" "ratio" (ratio hits (hits +. misses));
        metric "plan_cache.store_entries" "count" (delta "store_entries");
        metric ~n:sp_serve.attempted "request_bytes" "B"
          (ratio (float_of_int sp_serve.req_bytes) (float_of_int sp_serve.attempted));
        metric ~n:sp_serve.attempted "response_bytes" "B"
          (ratio (float_of_int sp_serve.resp_bytes) (float_of_int sp_serve.attempted));
      ]
    @ List.concat_map
        (fun l -> timing (l ^ "_us") "us" (us_of l))
        [ "rates.analyze"; "auto.partition"; "lowering.lower"; "compiled.create" ]
    @ timing "compiled.run_ns_per_fire" "ns" rp.compiled_run_ns_per_fire
    @ timing "replay.ns_per_access" "ns" rp.replay_ns_per_access
    @ timing "machine.self_ns_per_fire" "ns" rp.machine_self_ns_per_fire
    @ cache_counts 2048 @ cache_counts 256
    @ [
        metric "fires" "count" (float_of_int rp.fires);
        metric ~n:(Stats.count sp_serve.traced_latency + Stats.count rp.traced_ns)
          "trace_overhead_pct" "%" overhead;
        metric ~n:attempted "error_ratio" "ratio"
          (ratio (float_of_int failed) (float_of_int attempted));
      ]
  in
  let spans_file =
    Filename.concat ".perfbench"
      (Printf.sprintf "spans-%s-seed%d.json" a.workload a.seed)
  in
  Spans.write sp ~path:spans_file;
  let handle_line_ns = sum (fun (_, hl, _) -> hl) in
  let stages_ns = sum (fun (_, _, st) -> st) in
  print_result a ~attempted ~failed
    ~extra:
      [
        ("failures", count_json sp_serve.failures);
        ("run_failures", Json.Int rp.job_failures);
        ("daemon_metrics_delta", float_json (Serve_load.deltas ~before ~after));
        ("spans_file", Json.String spans_file);
        ("spans", Json.Int (List.length self));
        ( "handle_line_accounting_ns",
          count_json
            [
              ("handle_line", handle_line_ns);
              ("stages", stages_ns);
              ("unattributed", handle_line_ns - stages_ns);
            ] );
        ("mirror_mismatches", Json.Int sp_serve.mirror_mismatches);
      ]
    metrics

let () =
  let a = parse_args () in
  if not (Sys.file_exists a.ccsched) then die "no ccsched binary at %s" a.ccsched;
  let work =
    Filename.concat ".perfbench"
      (Printf.sprintf "%s-%d" a.workload (Unix.getpid ()))
  in
  Serve_load.mkdir_p work;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a stopped benchmark still stops its daemons: exit runs the hooks *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  Affinity.init ();
  Fun.protect
    ~finally:(fun () ->
      List.iter Serve_load.stop !Serve_load.live;
      Serve_load.remove_tree work)
    (fun () ->
      match (a.trace, a.workload) with
      | true, _ -> traced a ~work
      | false, "simulate" -> simulate_e2e a
      | false, _ -> serve_e2e a ~work)
