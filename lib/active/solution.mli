(** Active-time solutions: a set of open slots plus an integral schedule.
    The cost is the number of open slots — the machine's active time. *)

type t = { open_slots : int list;  (** sorted, distinct *) schedule : Workload.Slotted.schedule }

val cost : t -> int

(** Builds a solution by computing a schedule on the given open slots via
    max flow on [net] (default: a fresh {!Feasibility.network} of the
    instance); [None] when the jobs do not fit. *)
val of_open_slots :
  ?net:Feasibility.network -> Workload.Slotted.t -> open_slots:int list -> t option

(** Full validation: the schedule satisfies the instance and uses only
    declared open slots. Returns a violation description, or [None]. *)
val verify : Workload.Slotted.t -> t -> string option

val pp : Format.formatter -> t -> unit
