(** The bounded response memo of the serve daemon.

    Bounded FIFO memo keyed on digest strings. FIFO (not LRU) keeps
    eviction O(1) and deterministic. Mutex-protected, so worker domains
    may share one memo (the serve daemon does); a capacity [<= 0] memo
    stores nothing and never hits.

    Nothing here is process-wide: each memo is a value its caller
    creates and owns. Other warm state (the rolling simulator's
    feasibility oracle and pinned LP1) lives in the record of the run
    that uses it ([Sim.Rolling]). *)

module Memo : sig
  type 'v t

  val create : capacity:int -> 'v t
  val find : 'v t -> string -> 'v option
  val store : 'v t -> string -> 'v -> unit
  val length : 'v t -> int
end
