(** The multiple-window generalization of active time (Chang, Gabow,
    Khuller, discussed in Section 1.3): a job may be scheduled in a union
    of disjoint windows. NP-hard for capacity [g >= 3] via 3-EXACT-COVER;
    this module ports the flow feasibility test, minimal feasible
    solutions and the exact branch-and-bound to the richer windows. Each
    of {!feasible}, {!minimal} and {!optimum} builds one
    {!Feasibility.windows_network} and probes it with
    {!Feasibility.fits}, one 0/1 count per slot: each probe compares a
    max flow with [P] and reads no schedule. *)

type job = private {
  id : int;
  windows : (int * int) list;  (** disjoint (release, deadline) pairs, sorted *)
  length : int;
}

type t = { jobs : job array; g : int }

(** Raises [Invalid_argument] on an empty/overlapping window list, a
    non-positive length, or windows shorter than the length. *)
val job : id:int -> windows:(int * int) list -> length:int -> job

(** All slots of all windows, increasing. *)
val window_slots : job -> int list

(** Raises [Invalid_argument] when [g < 1]. *)
val make : g:int -> job list -> t

val total_length : t -> int
val relevant_slots : t -> int list
val mass_lower_bound : t -> int

val feasible : t -> open_slots:int list -> bool

(** Inclusion-minimal feasible open set contained in [start] (default all
    relevant slots); [None] when [start] is infeasible. *)
val minimal : ?start:int list -> t -> int list option

(** Exact optimum (cost, open slots) by branch-and-bound; [None] iff
    infeasible. *)
val optimum : t -> (int * int list) option

(** Builds the 3-EXACT-COVER-style instance: one job per set, whose
    windows are its members' unit slots and whose length is its size. *)
val exact_cover_instance : g:int -> int list list -> t
