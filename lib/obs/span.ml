type span = {
  trace_id : string;
  span_id : int;
  parent : int;
  stage : string;
  start_us : int;
  end_us : int;
}

type t = { ring : span Ring.t; mutable next_id : int }

let empty =
  {
    trace_id = "";
    span_id = 0;
    parent = -1;
    stage = "";
    start_us = 0;
    end_us = 0;
  }

let create ?(capacity = 256) () =
  { ring = Ring.create ~capacity empty; next_id = 0 }

let capacity t = Ring.capacity t.ring

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~trace_id ~span_id ~parent ~stage ~start_us ~end_us =
  Ring.push t.ring { trace_id; span_id; parent; stage; start_us; end_us }

let length t = Ring.length t.ring
let total t = Ring.total t.ring
let dropped t = Ring.dropped t.ring
let iter t ~f = Ring.iter t.ring ~f
let to_list t = Ring.to_list t.ring
let duration_us s = max 0 (s.end_us - s.start_us)
