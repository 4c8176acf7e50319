(** Preemptive busy time (Section 4.4).

    Theorem 6 (exact, unbounded capacity): repeatedly open the rightmost
    [l_max] units of unopened time before the earliest remaining deadline
    and serve every live job maximally.

    Theorem 7 (2-approximation, capacity [g]): keep each job exactly where
    the unbounded solution ran it and split every interesting interval's
    active jobs onto [ceil(n/g)] machines; at most one machine per
    interval is non-full, so the cost is at most [OPT_inf + l(J)/g
    <= 2 OPT]. *)

type assignment = {
  job : Workload.Bjob.t;
  pieces : Intervals.Interval.t list;  (** disjoint, within the window *)
}

type solution = { opened : Intervals.Union.t; assignments : assignment list; cost : Rational.t }

(** Theorem 6's greedy; [cost] is the optimal preemptive busy time for
    unbounded capacity. *)
val unbounded : Workload.Bjob.t list -> solution

(** Validates a preemptive solution: every job fully served inside its
    window by disjoint pieces within the opened time. First violation or
    [None]. *)
val check : Workload.Bjob.t list -> solution -> string option

(** Independent exactness oracle: the unbounded preemptive optimum as an
    LP over the event grid (open [y_c <= |c|] inside each cell, serve
    [x_{j,c} <= y_c]). The tests check [unbounded] matches it. *)
val lp_optimum : Workload.Bjob.t list -> Rational.t

(** The event-grid LP behind {!lp_optimum}, as a bare model (objective
    [min sum y_c]); exposed so [test_lp]'s engine families (EXPERIMENTS
    E21/E23/E24) can solve one model under every engine and read the
    pivot and work counters. *)
val lp_model : Workload.Bjob.t list -> Lp.model

(** Theorem 7: (total cost, the underlying unbounded solution, per-cell
    detail [(cell, active jobs, machines)]). Raises [Invalid_argument]
    when [g < 1]. *)
val bounded :
  g:int ->
  Workload.Bjob.t list ->
  Rational.t * solution * (Intervals.Interval.t * Workload.Bjob.t list * int) list
