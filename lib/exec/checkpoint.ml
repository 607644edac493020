module E = Ccs_sdf.Error
module Binio = Ccs_sdf.Binio
module Graph = Ccs_sdf.Graph
module Cache = Ccs_cache.Cache
module Counters = Ccs_obs.Counters
module Tracer = Ccs_obs.Tracer
module Metrics = Ccs_obs.Metrics

let magic = "CCSCKPT1"
let version = 1

type observers = {
  counters : (int array * int array) option;
  tracer : (int * int) option; (* logical clock, dropped-event count *)
}

type t = {
  graph_digest : string;
  plan_name : string;
  epoch : int;
  cache_config : Cache.config;
  capacities : int array;
  machine : Machine.persisted;
  cache : Cache.persisted;
  observers : observers;
}

let graph_digest = Plan_key.graph_digest

let observers_of machine =
  {
    counters = Option.map Counters.dump (Machine.counters machine);
    tracer =
      Option.map
        (fun tr -> (Tracer.clock tr, Tracer.dropped tr))
        (Machine.tracer machine);
  }

let capture ~plan_name ~epoch machine =
  let g = Machine.graph machine in
  let cache = Machine.cache machine in
  {
    graph_digest = graph_digest g;
    plan_name;
    epoch;
    cache_config = Cache.config_of cache;
    capacities = Array.init (Graph.num_edges g) (Machine.capacity machine);
    machine = Machine.persist machine;
    cache = Cache.persist cache;
    observers = observers_of machine;
  }

(* --- wire format ---------------------------------------------------------- *)

let encode_option w f = function
  | None -> Binio.W.int w 0
  | Some x ->
      Binio.W.int w 1;
      f x

let decode_option r f = match Binio.R.int r with 0 -> None | _ -> Some (f ())

let encode_machine w (p : Machine.persisted) =
  Binio.W.int_array w p.Machine.p_fire_count;
  Binio.W.int w p.Machine.p_total_fires;
  Binio.W.int_array w p.Machine.p_heads;
  Binio.W.int_array w p.Machine.p_tails;
  Binio.W.int_array w p.Machine.p_consumed;
  Binio.W.int_array w p.Machine.p_produced;
  encode_option w (Binio.W.int w) p.Machine.p_budget

let decode_machine r =
  let p_fire_count = Binio.R.int_array r in
  let p_total_fires = Binio.R.int r in
  let p_heads = Binio.R.int_array r in
  let p_tails = Binio.R.int_array r in
  let p_consumed = Binio.R.int_array r in
  let p_produced = Binio.R.int_array r in
  let p_budget = decode_option r (fun () -> Binio.R.int r) in
  {
    Machine.p_fire_count;
    p_total_fires;
    p_heads;
    p_tails;
    p_consumed;
    p_produced;
    p_budget;
  }

let encode_cache w (p : Cache.persisted) =
  Binio.W.int w p.Cache.p_accesses;
  Binio.W.int w p.Cache.p_hits;
  Binio.W.int w p.Cache.p_misses;
  Binio.W.int w p.Cache.p_flushes;
  Binio.W.int w (Array.length p.Cache.p_sets);
  Array.iter (Binio.W.int_array w) p.Cache.p_sets

let decode_cache ~path r =
  let p_accesses = Binio.R.int r in
  let p_hits = Binio.R.int r in
  let p_misses = Binio.R.int r in
  let p_flushes = Binio.R.int r in
  let num_sets = Binio.R.int r in
  if num_sets < 0 then
    E.fail
      (E.Checkpoint_corrupt
         { path; reason = Printf.sprintf "implausible set count %d" num_sets });
  (* Read set by set: an oversized count runs out of payload (a structured
     underrun) before it can size an allocation. *)
  let p_sets =
    Array.of_list (List.init num_sets (fun _ -> Binio.R.int_array r))
  in
  { Cache.p_accesses; p_hits; p_misses; p_flushes; p_sets }

let encode_observers w o =
  let pair write (x, y) =
    write w x;
    write w y
  in
  encode_option w (pair Binio.W.int_array) o.counters;
  encode_option w (pair Binio.W.int) o.tracer

let decode_observers r =
  let pair read () =
    let x = read r in
    (x, read r)
  in
  let counters = decode_option r (pair Binio.R.int_array) in
  let tracer = decode_option r (pair Binio.R.int) in
  { counters; tracer }

let encode t =
  let w = Binio.W.create () in
  Binio.W.string w t.graph_digest;
  Binio.W.string w t.plan_name;
  Binio.W.int w t.epoch;
  Plan_key.encode_cache_config w t.cache_config;
  Binio.W.int_array w t.capacities;
  encode_machine w t.machine;
  encode_cache w t.cache;
  encode_observers w t.observers;
  Binio.W.contents w

let decode ~path payload =
  let r = Binio.R.of_string ~path payload in
  let graph_digest = Binio.R.string r in
  let plan_name = Binio.R.string r in
  let epoch = Binio.R.int r in
  let cache_config = Plan_key.decode_cache_config ~path r in
  let capacities = Binio.R.int_array r in
  let machine = decode_machine r in
  let cache = decode_cache ~path r in
  let observers = decode_observers r in
  Binio.R.expect_end r;
  {
    graph_digest;
    plan_name;
    epoch;
    cache_config;
    capacities;
    machine;
    cache;
    observers;
  }

(* Checkpoint I/O telemetry.  Latency is monotonic wall-clock time
   ({!Clock.now_us}): CPU time hid I/O stalls entirely and misreported
   latency whenever several processes shared a core.  The [_us] fields
   stay warn-only in the bench regression gate. *)
let record_io reg ~op ~us ~bytes =
  Metrics.inc
    (Metrics.counter reg
       ~help:(Printf.sprintf "Checkpoint %ss completed" op)
       (Printf.sprintf "ccs_checkpoint_%ss_total" op));
  Metrics.observe
    (Metrics.histogram reg
       ~help:
         (Printf.sprintf "Checkpoint %s latency (wall-clock microseconds)" op)
       (Printf.sprintf "ccs_checkpoint_%s_us" op))
    us;
  Metrics.observe
    (Metrics.histogram reg ~help:"Checkpoint payload size (bytes)"
       "ccs_checkpoint_bytes")
    bytes

let save ?metrics ~path t =
  let t0 = Clock.now_us () in
  let payload = encode t in
  Binio.write_file ~path ~magic ~version payload;
  match metrics with
  | None -> ()
  | Some reg ->
      record_io reg ~op:"save" ~us:(Clock.elapsed_us ~since:t0)
        ~bytes:(String.length payload)

let load ?metrics ~path () =
  let t0 = Clock.now_us () in
  match Binio.read_file ~path ~magic ~version () with
  | Error e -> Error e
  | Ok payload -> (
      match E.protect (fun () -> decode ~path payload) with
      | Error e -> Error e
      | Ok t ->
          (match metrics with
          | None -> ()
          | Some reg ->
              record_io reg ~op:"load" ~us:(Clock.elapsed_us ~since:t0)
                ~bytes:(String.length payload));
          Ok t)

(* --- validation + restore ------------------------------------------------- *)

let key_of t =
  Plan_key.make ~capacities:t.capacities ~graph_digest:t.graph_digest
    ~cache_config:t.cache_config ()

let machine_key machine =
  let g = Machine.graph machine in
  Plan_key.of_graph g
    ~cache:(Cache.config_of (Machine.cache machine))
    ~capacities:(Array.init (Graph.num_edges g) (Machine.capacity machine))

let validate_observers ~path o machine =
  match (o.counters, Machine.counters machine) with
  | Some (accesses, _), Some c when Array.length accesses <> Counters.entities c
    ->
      Error
        (E.Checkpoint_mismatch
           {
             path;
             field = "counters";
             expected = string_of_int (Array.length accesses);
             found = string_of_int (Counters.entities c);
           })
  | _ -> Ok ()

let restore_observers o machine =
  (match (o.counters, Machine.counters machine) with
  | Some (accesses, misses), Some c -> Counters.load c ~accesses ~misses
  | None, Some c -> Counters.reset c
  | _, None -> ());
  match (o.tracer, Machine.tracer machine) with
  | Some (clock, dropped), Some tr -> Tracer.restore tr ~clock ~dropped
  | _, _ -> ()

let validate ~path t machine =
  (* The identity checks — graph digest, cache configuration, capacity
     vector — are exactly a {!Plan_key} comparison (checkpoints don't
     involve the planner, so both sides carry planner version 0). *)
  match Plan_key.check ~path ~expected:(key_of t) ~found:(machine_key machine) with
  | Error _ as e -> e
  | Ok () -> validate_observers ~path t.observers machine

let restore ~path t machine =
  match validate ~path t machine with
  | Error e -> Error e
  | Ok () ->
      E.protect (fun () ->
          (try
             Machine.restore machine t.machine;
             Cache.restore (Machine.cache machine) t.cache
           with Invalid_argument msg ->
             E.fail (E.Checkpoint_corrupt { path; reason = msg }));
          restore_observers t.observers machine)

let load_into ?metrics ~path machine =
  match load ?metrics ~path () with
  | Error e -> Error e
  | Ok t -> ( match restore ~path t machine with Error e -> Error e | Ok () -> Ok t)
