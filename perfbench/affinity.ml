(* CPU placement.  With two or more CPUs, the daemon the traced runs
   start gets the last allowed CPU to itself, and the benchmark process
   the others.  Left to itself the scheduler puts a Unix-socket
   ping-pong on one CPU and moves it around from run to run, which made
   serve throughput swing by 3x between identical runs; fixed placement
   is also the realistic one, since a daemon does not share a core with
   its clients.  With one CPU nothing is pinned. *)

external get : unit -> int array = "perfbench_get_affinity"
external set : int array -> bool = "perfbench_set_affinity"

let allowed = get ()
let split = Array.length allowed >= 2

let daemon =
  if split then [| allowed.(Array.length allowed - 1) |] else allowed

let benchmark =
  if split then Array.sub allowed 0 (Array.length allowed - 1) else allowed

let pin cpus = if split then ignore (set cpus)

(* Pin the benchmark process (and so every client it forks later). *)
let init () = pin benchmark
let enter_daemon () = pin daemon
let leave_daemon () = pin benchmark
