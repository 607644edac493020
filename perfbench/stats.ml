(* Clocks, sample summaries and the seeded shuffle. *)

(* CLOCK_MONOTONIC in nanoseconds.  [Ccs.Clock] reads the microsecond
   wall clock, too coarse for stages that take a few microseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns *. 1e-9
let us_of_ns ns = float_of_int ns /. 1e3

(* A growable float sample buffer. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 64 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

(* Nearest-rank percentile of an ascending array; [nan] when empty. *)
let rank sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let percentiles s ps =
  let a = to_array s in
  Array.sort Float.compare a;
  List.map (rank a) ps

let median s = List.hd (percentiles s [ 50. ])

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- x
  done

(* Add one to [key]'s tally in an association list of counts. *)
let bump counts key =
  (key, 1 + Option.value ~default:0 (List.assoc_opt key counts))
  :: List.remove_assoc key counts
