(** Slotted (active-time) instances — Section 1.1 of the paper.

    Time is slotted: slot [t] is the unit interval [\[t-1, t)]. A job with
    release [r], deadline [d] and length [p] may occupy the slots
    [{r+1, ..., d}], at most one unit per slot (integral preemption), and
    needs [p] of them. An instance also fixes the machine capacity [g]:
    at most [g] job units in any active slot. *)

type job = private { id : int; release : int; deadline : int; length : int }

type t = { jobs : job array; g : int }

(** Smart constructor. Raises [Invalid_argument] when [length < 1],
    [release < 0], or the window is shorter than the length. *)
val job : id:int -> release:int -> deadline:int -> length:int -> job

(** Slots of the job's window, increasing: [{release+1, ..., deadline}]. *)
val window_slots : job -> int list

(** [deadline - release]. *)
val window_size : job -> int

(** A job is rigid when its window has no slack ([window_size = length]). *)
val is_rigid : job -> bool

(** Raises [Invalid_argument] when [g < 1]. *)
val make : g:int -> job list -> t

val num_jobs : t -> int

(** Total work [P = sum of lengths]. *)
val total_length : t -> int

(** Latest relevant slot [T = max deadline] (0 when empty). *)
val horizon : t -> int

(** Slots belonging to at least one window, sorted. *)
val relevant_slots : t -> int list

(** [window_start slots j] is the index in [slots] of [j]'s first window
    slot, found by binary search. [slots] must be increasing and hold
    every slot of the window (as [relevant_slots] does), so the window
    fills the [window_size j] entries from there on. *)
val window_start : int array -> job -> int

(** [ceil(P / g)], a lower bound on any solution's active time. *)
val mass_lower_bound : t -> int

(** [is_live j ~slot] iff [slot] is in [j]'s window (Definition 1). *)
val is_live : job -> slot:int -> bool

val pp : Format.formatter -> t -> unit

(** A schedule assigns each job the sorted list of slots it occupies. *)
type schedule = (int * int list) list

(** Full validation of a schedule: every job present exactly once,
    correct length, inside its window, no slot over capacity. Returns a
    description of the first violation, or [None] when valid. *)
val check_schedule : t -> schedule -> string option

(** Sorted distinct slots used by a schedule. *)
val active_slots : schedule -> int list
