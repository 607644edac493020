module Graph = Ccs_sdf.Graph
module E = Ccs_sdf.Error
module Machine = Ccs_exec.Machine
module Intvec = Ccs_exec.Intvec

exception Out_of_sync of { node : string; edge : Graph.edge }

type t = {
  program : Program.t;
  states : float array array;
  queues : float Queue.t array;
  sunk : (Graph.node * Intvec.t) list; (* per sink: one digest per firing *)
  validate : bool;
  mutable machine : Machine.t option;
}

(* A sink firing's value: a fold of the exact bit patterns of every token
   it consumed (both 32-bit halves, so the sign bit counts). *)
let digest inputs =
  let mix h x = (h * 1_000_003) lxor x in
  Array.fold_left
    (Array.fold_left (fun h x ->
         let bits = Int64.bits_of_float x in
         mix
           (mix h (Int64.to_int (Int64.shift_right_logical bits 32)))
           (Int64.to_int bits land 0xFFFF_FFFF)))
    17 inputs

(* The fire hook: runs after [m] has fired [v], so every channel the
   module touches must hold as many data tokens as [m] counts once the data
   has moved.  Anything else means some firing bypassed this engine. *)
let move_data t m v =
  let g = Program.graph t.program in
  let name = Graph.node_name g v in
  let kernel = Program.kernel t.program v in
  let pop e =
    match Queue.take_opt t.queues.(e) with
    | Some x -> x
    | None -> raise (Out_of_sync { node = name; edge = e })
  in
  let in_edges = Graph.in_edges g v in
  let inputs =
    in_edges
    |> List.map (fun e -> Array.init (Graph.pop g e) (fun _ -> pop e))
    |> Array.of_list
  in
  let out_edges = Graph.out_edges g v in
  let outputs =
    out_edges |> List.map (fun e -> Array.make (Graph.push g e) 0.)
    |> Array.of_list
  in
  (try kernel.Kernel.fire ~state:t.states.(v) ~inputs ~outputs with
  | Ccs_exec.Fault.Injected { fault; _ } ->
      E.fail (E.Fault { node = name; fault; detail = "injected fault" })
  | E.Error _ as exn -> raise exn
  | exn ->
      E.fail
        (E.Fault
           {
             node = name;
             fault = E.Kernel_exception;
             detail = Printexc.to_string exn;
           }));
  if t.validate then
    Array.iter
      (fun out ->
        Array.iter
          (fun x ->
            if not (Float.is_finite x) then
              E.fail
                (E.Fault
                   {
                     node = name;
                     fault = E.Nan_output;
                     detail =
                       Printf.sprintf "kernel produced a non-finite token (%h)"
                         x;
                   }))
          out)
      outputs;
  if out_edges = [] then Intvec.push (List.assoc v t.sunk) (digest inputs);
  List.iteri
    (fun i e -> Array.iter (fun x -> Queue.push x t.queues.(e)) outputs.(i))
    out_edges;
  let check e =
    if Queue.length t.queues.(e) <> Machine.tokens m e then
      raise (Out_of_sync { node = name; edge = e })
  in
  List.iter check in_edges;
  List.iter check out_edges

(* Materialise every kernel's initial state, reporting arity mismatches as
   structured [Bad_state_arity] faults. *)
let init_states program =
  let g = Program.graph program in
  Array.init (Graph.num_nodes g) (fun v ->
      let st = (Program.kernel program v).Kernel.init () in
      if Array.length st <> Graph.state g v then
        E.fail
          (E.Fault
             {
               node = Graph.node_name g v;
               fault = E.Bad_state_arity;
               detail =
                 Printf.sprintf "kernel init returned %d words, expected %d"
                   (Array.length st) (Graph.state g v);
             });
      st)

let make ~validate program =
  let g = Program.graph program in
  {
    program;
    states = init_states program;
    queues =
      Array.init (Graph.num_edges g) (fun e ->
          let q = Queue.create () in
          for _ = 1 to Graph.delay g e do
            Queue.push 0. q
          done;
          q);
    sunk = List.map (fun v -> (v, Intvec.create ())) (Graph.sinks g);
    validate;
    machine = None;
  }

let attach t m =
  Machine.set_fire_hook m (Some (move_data t m));
  t.machine <- Some m

let create_unsafe ?(record_trace = false) ?(validate = false) ?counters ?tracer
    ?metrics ~program ~cache ~capacities () =
  let machine =
    Machine.create ~record_trace ?counters ?tracer ?metrics
      ~graph:(Program.graph program) ~cache ~capacities ()
  in
  let t = make ~validate program in
  attach t machine;
  t

let invalid_on_fault fn f =
  try f ()
  with E.Error (E.Fault { node; detail; _ }) ->
    invalid_arg (Printf.sprintf "Engine.%s: %s: %s" fn node detail)

let create ?record_trace ?validate ?counters ?tracer ?metrics ~program ~cache
    ~capacities () =
  invalid_on_fault "create" (fun () ->
      create_unsafe ?record_trace ?validate ?counters ?tracer ?metrics ~program
        ~cache ~capacities ())

let create_checked ?record_trace ?(validate = true) ?counters ?tracer ?metrics
    ~program ~cache ~capacities () =
  E.protect (fun () ->
      create_unsafe ?record_trace ~validate ?counters ?tracer ?metrics ~program
        ~cache ~capacities ())

let detached program =
  invalid_on_fault "detached" (fun () -> make ~validate:false program)

let machine t =
  match t.machine with
  | Some m -> m
  | None -> invalid_arg "Engine.machine: engine is not attached to a machine"

let fire t v = Machine.fire (machine t) v

let capacities_match t plan =
  let m = machine t in
  plan.Ccs_sched.Plan.capacities
  = Array.init (Graph.num_edges (Program.graph t.program)) (Machine.capacity m)

let result_of_run t plan = Ccs_sched.Runner.result_of ~plan (machine t)

let run_plan t plan ~outputs =
  if not (capacities_match t plan) then
    invalid_arg "Engine.run_plan: plan capacities differ from the engine's";
  plan.Ccs_sched.Plan.drive (machine t) ~target_outputs:outputs;
  Machine.sync_metrics (machine t);
  result_of_run t plan

let run_plan_checked ?budget t plan ~outputs =
  if not (capacities_match t plan) then
    Result.error
      (E.Plan_invalid
         {
           plan = plan.Ccs_sched.Plan.name;
           reason = "plan capacities differ from the engine's";
         })
  else
    match Ccs_sched.Watchdog.drive ?budget (machine t) ~plan ~outputs with
    | Error e -> Result.error e
    | Ok () ->
        Machine.sync_metrics (machine t);
        Ok (result_of_run t plan)

let of_plan ?record_trace ?validate ?counters ?tracer ?metrics ~program ~cache
    ~plan () =
  create ?record_trace ?validate ?counters ?tracer ?metrics ~program ~cache
    ~capacities:plan.Ccs_sched.Plan.capacities ()

let state t v = t.states.(v)
let queue_length t e = Queue.length t.queues.(e)

(* Positions in the common prefix of each sink's value stream where the two
   engines disagree, plus every value of a sink [reference] does not have.
   The common prefix — not full equality — is the right comparison:
   epoch-aligned runs overshoot a requested output count to a whole-period
   boundary, so two correct runs may differ in length but never in
   content. *)
let mismatches ~reference t =
  List.fold_left
    (fun acc (v, xs) ->
      match List.assoc_opt v reference.sunk with
      | None -> acc + Intvec.length xs
      | Some ys ->
          let n = ref acc in
          for i = 0 to min (Intvec.length xs) (Intvec.length ys) - 1 do
            if Intvec.get xs i <> Intvec.get ys i then incr n
          done;
          !n)
    0 t.sunk

let compared ~reference t =
  List.fold_left
    (fun acc (v, xs) ->
      match List.assoc_opt v reference.sunk with
      | None -> acc
      | Some ys -> acc + min (Intvec.length xs) (Intvec.length ys))
    0 t.sunk
