(* In-memory spans for the traced run.  Every span carries a name, its
   start and end on the nanosecond clock, its parent span and the id of
   the request (or job) it belongs to.  Nothing is written until [write]
   runs at the end of the run, so recording costs two clock reads and
   one allocation. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root. *)
  name : string;
  req : int;
  t0 : int;
  t1 : int;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 0 }

(* Run [f id] as a span named [name]; [f] gets the span's id so the
   spans it opens can name it as their parent. *)
let within t ?(parent = -1) ~req name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let t0 = Stats.now_ns () in
  let v = f id in
  let t1 = Stats.now_ns () in
  t.spans <- { id; parent; name; req; t0; t1 } :: t.spans;
  v

let span t ?parent ~req name f = within t ?parent ~req name (fun _ -> f ())
let all t = List.rev t.spans

(* Self time: a span's duration minus the part of it its children
   cover.  Children of one span run one after another, so their
   durations (clipped to the parent) do not overlap. *)
let self_times t =
  let spans = all t in
  let covered = Hashtbl.create 1024 in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_id s.parent with
      | Some p ->
          let d = max 0 (min s.t1 p.t1 - max s.t0 p.t0) in
          Hashtbl.replace covered p.id
            (d + Option.value ~default:0 (Hashtbl.find_opt covered p.id))
      | None -> ())
    spans;
  List.map
    (fun s ->
      (s, s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt covered s.id)))
    spans

(* Self times (ns) of every span named [name], in recording order. *)
let self_of self name =
  List.filter_map (fun (s, ns) -> if s.name = name then Some ns else None) self

let write t ~path =
  let self = self_times t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i (s, self_ns) ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"parent\":%d,\"name\":%s,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
            (if i = 0 then "" else ",")
            s.id s.parent
            (Ccs.Json.to_string (Ccs.Json.String s.name))
            s.req s.t0 s.t1 self_ns)
        self;
      output_string oc "]\n")
