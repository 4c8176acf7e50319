(** The canonical "instance in" half of the solver seam: one typed sum
    over the problem models of the paper (and its related work), so that
    every solver — CLI, bench, fuzz oracle, cascade tier — receives the
    same value and the dispatchers stop pattern-matching on strings.

    The four models:

    - {e active-slotted} (§1.1, §2–3): slotted jobs with windows,
      capacity [g] per open slot, minimize the number of open slots.
    - {e busy-interval} (§4.1–4.2): real-time jobs already pinned to
      their interval, capacity [g] per machine, minimize total busy time.
    - {e busy-flexible} (§4.3): real-time jobs with slack in their
      windows; a placement pins them before an interval algorithm runs.
    - {e busy-preemptive} (§4.4): jobs may be split across machines and
      time; Theorems 6/7. *)

type kind = Active_slotted | Busy_interval | Busy_flexible | Busy_preemptive

(** The stable CLI/doc spelling: ["active-slotted"], ["busy-interval"],
    ["busy-flexible"], ["busy-preemptive"]. *)
val kind_name : kind -> string

type t =
  | Slotted of Workload.Slotted.t  (** active-slotted *)
  | Interval of { g : int; jobs : Workload.Bjob.t list }
      (** busy-interval: every job must satisfy {!Workload.Bjob.is_interval} *)
  | Flexible of { g : int; jobs : Workload.Bjob.t list }
      (** busy-flexible: windows may be loose *)
  | Preemptive of { g : int; jobs : Workload.Bjob.t list }
      (** busy-preemptive *)

val kind : t -> kind
