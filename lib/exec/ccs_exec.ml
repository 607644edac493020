(** Execution engine: drive streaming graphs over the simulated cache. *)

module Intvec = Intvec
module Machine = Machine
module Replay = Replay
module Fault = Fault
module Checkpoint = Checkpoint
module Clock = Clock
module Plan_key = Plan_key
