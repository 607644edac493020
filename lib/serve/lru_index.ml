(* Weighted LRU index over string keys, as a thin layer on the cache
   simulator's Lru.

   Each live key gets a small int id; [ids] maps the key to it, and the
   per-id arrays hold the key, its weight and its value.  Recency is an
   [Lru.t] over the ids, so the eviction order is the simulator's own.
   Ids are handed out densely (freed ids first), so every live id is
   below the recency set's capacity; when all of them are taken, the
   arrays double and [Lru.resize] carries the recency order over
   unchanged.

   Used twice by the daemon: as the bounded plan store's in-memory index
   (value = unit, weight = record size on disk) and as the per-worker
   hot cache (value = decoded artifact, weight = 1). *)

type 'a t = {
  ids : (string, int) Hashtbl.t;
  mutable order : Ccs.Lru.t; (* recency over the live ids *)
  mutable key : string array;
  mutable weight : int array;
  mutable value : 'a option array;
  mutable free : int list; (* released ids, reused first *)
  mutable fresh : int; (* ids below this have been handed out *)
  mutable total_weight : int;
}

let initial_slots = 16

let create () =
  {
    ids = Hashtbl.create initial_slots;
    order = Ccs.Lru.create ~capacity:initial_slots;
    key = Array.make initial_slots "";
    weight = Array.make initial_slots 0;
    value = Array.make initial_slots None;
    free = [];
    fresh = 0;
    total_weight = 0;
  }

let size t = Hashtbl.length t.ids
let total_weight t = t.total_weight

let find t k = Option.bind (Hashtbl.find_opt t.ids k) (fun id -> t.value.(id))

(* Make [id] most-recent, inserting it if new.  Every live id is below
   the recency set's capacity, so this never evicts. *)
let promote t id = ignore (Ccs.Lru.touch_hit t.order id)

let touch t k =
  Option.bind (Hashtbl.find_opt t.ids k) (fun id ->
      promote t id;
      t.value.(id))

let take_id t =
  match t.free with
  | id :: rest ->
      t.free <- rest;
      id
  | [] ->
      let n = Array.length t.key in
      if t.fresh = n then begin
        let extend a fill = Array.append a (Array.make n fill) in
        t.key <- extend t.key "";
        t.weight <- extend t.weight 0;
        t.value <- extend t.value None;
        t.order <- Ccs.Lru.resize t.order ~capacity:(2 * n)
      end;
      t.fresh <- t.fresh + 1;
      t.fresh - 1

let add t k ~weight v =
  let id =
    match Hashtbl.find_opt t.ids k with
    | Some id ->
        (* Re-adding an existing key updates its weight/value in place
           and bumps it to most-recent — a re-stored record is a fresh
           one. *)
        t.total_weight <- t.total_weight - t.weight.(id);
        id
    | None ->
        let id = take_id t in
        Hashtbl.replace t.ids k id;
        t.key.(id) <- k;
        id
  in
  t.weight.(id) <- weight;
  t.value.(id) <- Some v;
  t.total_weight <- t.total_weight + weight;
  promote t id

let release t id =
  Hashtbl.remove t.ids t.key.(id);
  ignore (Ccs.Lru.remove t.order id);
  t.total_weight <- t.total_weight - t.weight.(id);
  t.value.(id) <- None;
  t.free <- id :: t.free

let remove t k =
  let id = Hashtbl.find_opt t.ids k in
  Option.iter (release t) id;
  Option.is_some id

let evict_lru t =
  Option.map
    (fun id ->
      let entry = (t.key.(id), t.weight.(id), Option.get t.value.(id)) in
      release t id;
      entry)
    (Ccs.Lru.least_recent t.order)

let to_list_mru_first t =
  List.map (fun id -> t.key.(id)) (Ccs.Lru.to_list_mru_first t.order)
