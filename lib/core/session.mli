(** Reusable warm solver state across a sequence of related instances.

    A session is the home of the warm state a caller threads from one
    solve to the next. It owns

    - a heterogeneous set of typed {e slots} — a warm feasibility
      oracle, a pinned LP model and its last optimal basis, anything —
      fetched with {!reuse}, which records warm hits, misses and
      validation-failure rebuilds;
    - {!Memo}, the bounded FIFO response memo generalized from the
      serve daemon.

    Nothing here is process-wide, and no solver consults a session on
    its own: the caller takes what it needs out of a slot and passes it
    in explicitly ([Lp.solve ?warm], [?start]). [Sim.Rolling] is the
    caller that keeps slots; the serve daemon keeps only a {!Memo}.

    Domain-safety: {!Memo} is mutex-protected and may be shared across
    worker domains (the serve daemon does); slots are single-domain. *)

type t

(** [create ()] is a session with every slot empty. *)
val create : unit -> t

(** {1 Typed slots}

    A slot holds one piece of warm state of an arbitrary type, looked
    up by a typed key. Keys are generative: two [Slot.key ~name:"x" ()]
    calls name {e different} slots, so independent subsystems cannot
    collide. *)

module Slot : sig
  type 'a key

  val key : name:string -> unit -> 'a key
  val key_name : 'a key -> string
end

val find : t -> 'a Slot.key -> 'a option
val set : t -> 'a Slot.key -> 'a -> unit
val remove : t -> 'a Slot.key -> unit

(** Drop every slot. *)
val clear : t -> unit

(** [reuse t key ~validate ~build] is the instrumented warm-state
    fetch: a stored value passing [validate] is returned as is
    ([session.warm_hits]); a stored value failing it is rebuilt
    ([session.rebuilds]); an empty slot is built cold
    ([session.warm_misses]). The built value is stored back either
    way. *)
val reuse : ?obs:Obs.t -> t -> 'a Slot.key -> validate:('a -> bool) -> build:(unit -> 'a) -> 'a

(** {1 Response memo}

    Bounded FIFO memo keyed on digest strings — the serve daemon's
    per-request memo, generalized. FIFO (not LRU) keeps eviction O(1)
    and deterministic. Mutex-protected; a capacity [<= 0] memo stores
    nothing and never hits. *)

module Memo : sig
  type 'v t

  val create : capacity:int -> 'v t
  val find : 'v t -> string -> 'v option
  val store : 'v t -> string -> 'v -> unit
  val length : 'v t -> int
end
