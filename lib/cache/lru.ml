(* Intrusive, preallocated LRU set.

   All structure lives in int arrays sized at [create] time: slots
   [0..capacity-1] form a doubly-linked recency list through [prev]/[next]
   (-1 is nil), and an open-addressed hash table maps keys to slots.  The
   hot path ([touch_hit]) performs no allocation: a hit is an unlink plus a
   push-front of int indices; a miss reuses the evicted slot (or pops the
   free list) and updates the table in place.  Deletions use backward-shift
   compaction, so probes never cross tombstones and lookup cost stays
   bounded by the table's load factor (<= 1/4). *)

type t = {
  capacity : int;
  key : int array; (* key stored in each live slot *)
  prev : int array; (* -1 = nil *)
  next : int array; (* recency chain for live slots, free chain otherwise *)
  mutable head : int; (* most recently used slot, -1 if empty *)
  mutable tail : int; (* least recently used slot, -1 if empty *)
  mutable free : int; (* head of the free-slot chain, -1 if full *)
  mutable size : int;
  (* Open-addressed key -> slot map (linear probing, backward-shift
     deletion).  [h_occ] distinguishes empty from occupied so any int —
     including 0 and negatives — is a valid key. *)
  h_key : int array;
  h_slot : int array;
  h_occ : Bytes.t;
  mask : int; (* table size - 1; table size is a power of two *)
  mutable evictions : int; (* LRU entries displaced since creation *)
}

let table_size capacity =
  let rec go n = if n >= 4 * capacity then n else go (2 * n) in
  go 16

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  let ts = table_size capacity in
  let next =
    Array.init capacity (fun i -> if i = capacity - 1 then -1 else i + 1)
  in
  {
    capacity;
    key = Array.make capacity 0;
    prev = Array.make capacity (-1);
    next;
    head = -1;
    tail = -1;
    free = 0;
    size = 0;
    h_key = Array.make ts 0;
    h_slot = Array.make ts 0;
    h_occ = Bytes.make ts '\000';
    mask = ts - 1;
    evictions = 0;
  }

let capacity t = t.capacity
let size t = t.size
let evictions t = t.evictions

(* Fibonacci-style multiplicative hash; the fold of high bits keeps
   sequential keys from clustering in one probe run. *)
let hash t k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land t.mask

(* Table index of [k], or -1 if absent. *)
let hfind t k =
  let i = ref (hash t k) in
  let r = ref (-2) in
  while !r = -2 do
    if Bytes.unsafe_get t.h_occ !i = '\000' then r := -1
    else if Array.unsafe_get t.h_key !i = k then r := !i
    else i := (!i + 1) land t.mask
  done;
  !r

let hadd t k slot =
  let i = ref (hash t k) in
  while Bytes.unsafe_get t.h_occ !i <> '\000' do
    i := (!i + 1) land t.mask
  done;
  t.h_key.(!i) <- k;
  t.h_slot.(!i) <- slot;
  Bytes.unsafe_set t.h_occ !i '\001'

(* Remove table entry at index [i], shifting later probe-run entries back
   so no tombstone is needed. *)
let hdelete_at t i =
  let mask = t.mask in
  let i = ref i in
  let j = ref ((!i + 1) land mask) in
  while Bytes.unsafe_get t.h_occ !j <> '\000' do
    let kj = t.h_key.(!j) in
    let home = hash t kj in
    (* [kj] may move back to [!i] iff its home does not lie strictly
       inside the cyclic interval (i, j]. *)
    if (!j - home) land mask >= (!j - !i) land mask then begin
      t.h_key.(!i) <- kj;
      t.h_slot.(!i) <- t.h_slot.(!j);
      i := !j
    end;
    j := (!j + 1) land mask
  done;
  Bytes.unsafe_set t.h_occ !i '\000'

let mem t k = hfind t k >= 0

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
  t.head <- s

(* Evict the least-recently-used entry; returns its freed slot.
   Precondition: [t.size = t.capacity >= 1]. *)
let evict_lru t =
  let s = t.tail in
  unlink t s;
  (match hfind t t.key.(s) with
  | -1 -> assert false
  | i -> hdelete_at t i);
  t.evictions <- t.evictions + 1;
  s

(* Take a never-used slot from the free chain.
   Precondition: [t.size < t.capacity]. *)
let take_free t =
  let s = t.free in
  t.free <- t.next.(s);
  t.size <- t.size + 1;
  s

let touch_hit t k =
  let i = hfind t k in
  if i >= 0 then begin
    let s = t.h_slot.(i) in
    if t.head <> s then begin
      unlink t s;
      push_front t s
    end;
    true
  end
  else begin
    let s = if t.size >= t.capacity then evict_lru t else take_free t in
    t.key.(s) <- k;
    push_front t s;
    hadd t k s;
    false
  end

let touch t k =
  let i = hfind t k in
  if i >= 0 then begin
    let s = t.h_slot.(i) in
    if t.head <> s then begin
      unlink t s;
      push_front t s
    end;
    `Hit
  end
  else begin
    let s, evicted =
      if t.size >= t.capacity then begin
        let s = evict_lru t in
        (* the freed slot still holds the evicted key *)
        (s, Some t.key.(s))
      end
      else (take_free t, None)
    in
    t.key.(s) <- k;
    push_front t s;
    hadd t k s;
    `Miss evicted
  end

let least_recent t = if t.tail < 0 then None else Some t.key.(t.tail)

let remove t k =
  match hfind t k with
  | -1 -> false
  | i ->
      let s = t.h_slot.(i) in
      hdelete_at t i;
      unlink t s;
      t.next.(s) <- t.free;
      t.free <- s;
      t.size <- t.size - 1;
      true

let clear t =
  Bytes.fill t.h_occ 0 (Bytes.length t.h_occ) '\000';
  for i = 0 to t.capacity - 1 do
    t.next.(i) <- (if i = t.capacity - 1 then -1 else i + 1);
    t.prev.(i) <- -1
  done;
  t.head <- -1;
  t.tail <- -1;
  t.free <- 0;
  t.size <- 0

(* Rebuild exactly the recency order of a previously-dumped set: clear, then
   re-touch keys oldest-first so the head of [keys] ends up most recent.
   Duplicate keys would silently shrink the set, so they are rejected —
   restored state must be bit-identical, not merely plausible. *)
let restore_mru_first t keys =
  let n = Array.length keys in
  if n > t.capacity then
    invalid_arg
      (Printf.sprintf "Lru.restore_mru_first: %d keys exceed capacity %d" n
         t.capacity);
  clear t;
  for i = n - 1 downto 0 do
    if not (touch_hit t keys.(i)) then ()
    else invalid_arg "Lru.restore_mru_first: duplicate key"
  done

let to_list_mru_first t =
  let rec go acc s =
    if s < 0 then List.rev acc else go (t.key.(s) :: acc) t.next.(s)
  in
  go [] t.head

(* Capacity change with deterministic survivor selection: the arrays are
   sized at creation, so a resize builds a fresh set and reloads the
   [min (size, capacity)] hottest keys in their exact recency order.  Keys
   that no longer fit were displaced by the resize, so they count as
   evictions — the monotone counter carries over and grows by the number
   dropped. *)
let resize t ~capacity =
  if capacity < 1 then invalid_arg "Lru.resize: capacity must be >= 1";
  let fresh = create ~capacity in
  let rec keep n acc s =
    if s < 0 || n = 0 then List.rev acc
    else keep (n - 1) (t.key.(s) :: acc) t.next.(s)
  in
  let survivors = keep capacity [] t.head in
  (* Load coldest-first so the head of [survivors] ends up most recent. *)
  List.iter (fun k -> ignore (touch_hit fresh k)) (List.rev survivors);
  fresh.evictions <- t.evictions + (t.size - List.length survivors);
  fresh
