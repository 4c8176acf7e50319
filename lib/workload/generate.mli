(** Deterministic (seeded) random instance generators.

    The families cover the structures the busy-time literature singles
    out: general windows with controlled slack, interval jobs, cliques,
    proper instances, proper cliques and laminar instances. The same seed
    always yields the same instance. *)

type slotted_params = {
  n : int;  (** number of jobs *)
  horizon : int;  (** slots 1..horizon *)
  max_length : int;
  slack : int;  (** window exceeds the length by at most this *)
  g : int;
}

(** Random slotted (active-time) instance. *)
val slotted : ?params:slotted_params -> seed:int -> unit -> Slotted.t

(** Unit-length slotted jobs (the Chang–Gabow–Khuller special case). *)
val slotted_unit : ?horizon:int -> ?g:int -> n:int -> seed:int -> unit -> Slotted.t

type busy_params = {
  bn : int;
  bhorizon : int;  (** integer grid for the randomness; values stay exact *)
  bmax_length : int;
  bslack : int;  (** 0 makes every job an interval job *)
}

(** Random busy-time jobs with windows. *)
val busy_jobs : ?params:busy_params -> seed:int -> unit -> Bjob.t list

(** Random interval jobs (no slack). *)
val interval_jobs : ?n:int -> ?horizon:int -> ?max_length:int -> seed:int -> unit -> Bjob.t list

(** Interval jobs all containing a common time point. *)
val clique_interval_jobs : ?n:int -> ?max_length:int -> seed:int -> unit -> Bjob.t list

(** Interval jobs with no window contained in another. *)
val proper_interval_jobs : ?n:int -> seed:int -> unit -> Bjob.t list

(** Proper instances that also form a clique (exactly solvable by
    {!Busy.Special.proper_clique_exact}). *)
val proper_clique_interval_jobs : ?n:int -> seed:int -> unit -> Bjob.t list

(** Interval jobs whose windows are pairwise nested or disjoint. *)
val laminar_interval_jobs : ?depth:int -> ?span:int -> seed:int -> unit -> Bjob.t list

(** Interval jobs paired with random widths in [1..max_width] (for the
    Khandekar width generalization, {!Busy.Widths}). *)
val widthed_interval_jobs :
  ?n:int -> ?horizon:int -> ?max_length:int -> ?max_width:int -> seed:int -> unit -> (Bjob.t * int) list

(** Flexible jobs whose windows are about [slack_factor] times their
    length. *)
val flexible_jobs :
  ?n:int -> ?horizon:int -> ?max_length:int -> ?slack_factor:int -> seed:int -> unit -> Bjob.t list

(** Data-center-like flexible jobs: releases cluster around two daily
    peaks (morning and evening batch waves). *)
val diurnal_flexible_jobs :
  ?n:int -> ?horizon:int -> ?max_length:int -> seed:int -> unit -> Bjob.t list

(** Timed (online) slotted mix for the rolling-horizon simulator: the
    diurnal two-peak release pattern on the slot grid, where each job
    becomes known [0..lead] slots (default 4) before its release.
    Returns the instance plus [(job id, arrival)] pairs in the
    {!Io.parse_file_timed} convention. Scale with [params]. *)
val timed_slotted :
  ?params:slotted_params -> ?lead:int -> seed:int -> unit -> Slotted.t * (int * int) list
