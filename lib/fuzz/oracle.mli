(** Differential oracle for the fuzz harness: cross-checks every
    algorithm pair on one instance against the paper's guarantees.

    Checked properties — any failure is a real disagreement:
    - IO round-trip through {!Workload.Io} preserves the instance;
    - every solver's output passes its verifier ({!Active.Solution.verify}
      / {!Busy.Bundle.check});
    - all solvers agree on feasibility;
    - exact optimum <= every approximation <= proven ratio x optimum
      (minimal 3x, LP rounding 2x; FirstFit 4x, GreedyTracking 3x,
      Two_approx and Kumar–Rudra 2x);
    - lower bounds (mass, span, demand profile) never exceed any feasible
      cost, and [max(ceil(P/g), OPT_inf)]
      ({!Workload.Slotted.unbounded_optimum}), the exact search's
      built-in floor, never exceeds the optimum ([mass-bound]);
    - the flow-pruned and LP-based branch and bounds agree (small
      instances), and the unit-job greedy matches the optimum on unit
      instances;
    - when the active cascade answers from its exact tier, which prunes
      against [ceil(LP1)], its cost equals the LP-free
      {!Active.Exact.solve} optimum ([cascade-exact]);
    - uncaught exceptions (failed invariant asserts included) are
      reported as failures, not crashes.

    Exact tiers run under [fuel] ticks; on exhaustion the
    optimum-dependent checks are skipped, never reported as failures, so
    the oracle is deterministic and bounded on adversarial instances. *)

type failure = { check : string; detail : string }

val check_slotted : fuel:int -> Workload.Slotted.t -> failure option

(** Interval jobs with capacity [g]. [planted_bug] (default false) arms a
    deliberately false property ("FirstFit busy time never exceeds the
    span of the job union") used to exercise the shrinker in tests. *)
val check_busy : ?planted_bug:bool -> fuel:int -> g:int -> Workload.Bjob.t list -> failure option

(** Flexible jobs: validates the {!Busy.Placement} pinning (every job
    inside its window, lengths preserved), then runs the interval checks
    on the pinned instance. *)
val check_flexible :
  ?planted_bug:bool -> fuel:int -> g:int -> Workload.Bjob.t list -> failure option
