(* slot = total mod capacity, so overwrite-oldest is a single store and
   the retained window starts at slot (total - length) mod capacity. *)
type 'a t = { slots : 'a array; mutable total : int }

let create ~capacity fill =
  { slots = Array.make (max 1 capacity) fill; total = 0 }
let capacity t = Array.length t.slots

let push t x =
  t.slots.(t.total mod Array.length t.slots) <- x;
  t.total <- t.total + 1

let length t = min t.total (Array.length t.slots)
let total t = t.total
let dropped t = t.total - length t

let iter t ~f =
  let cap = Array.length t.slots in
  let first = t.total - length t in
  for i = 0 to length t - 1 do
    f t.slots.((first + i) mod cap)
  done

let to_list t =
  let acc = ref [] in
  iter t ~f:(fun x -> acc := x :: !acc);
  List.rev !acc
