(** LP rounding for active time (Theorem 2): a 2-approximation.

    Solve LP1 exactly, right-shift block masses against each distinct
    deadline (Lemma 3), then sweep deadlines: fully-open slots open as-is;
    a fractional slot with mass >= 1/2 opens outright; a barely-open slot
    (< 1/2) opens only when a max-flow test shows the jobs processed so
    far do not fit, otherwise its mass is carried right as a {e proxy}
    (Section 3.4). The dependent/trio/filler machinery of the paper is
    analysis only; its content — feasibility after every iteration and
    [#opened <= 2 sum Y] — is asserted at runtime and fuzzed by the
    property tests. *)

type stats = {
  lp_cost : Rational.t;
  rounded_cost : int;
  fallback_used : bool;
      (** defensive re-opening was needed; never expected, and asserted
          false throughout the test suite *)
}

exception Infeasible_instance

(** [None] iff the instance is infeasible; otherwise a verified solution
    of cost at most twice the LP optimum. With [budget], the underlying
    simplex ticks once per pivot and exhaustion raises
    {!Budget.Out_of_fuel} (the deadline sweep after the LP is polynomial
    and not metered).

    [lp1] (default: a fresh {!Lp_model.create} of [inst]) is LP1 of
    [inst], created from this very value (else [Invalid_argument],
    before any work), as an earlier, cold-started {!Lp_model.resolve}
    left it, with every y free: the rounding resumes its cut loop from
    the rows and basis found so far. The loop is deterministic given
    its rows and start basis, so the vertex, and with it the answer, is
    the one a fresh LP1 reaches; only the pivots already spent are
    saved.
    {!Cascade} passes the LP1 its exact tier solved for its floor. Once
    the cut loop returns, the sweep's oracle and the returned schedule
    reuse the LP1's separation network ({!Lp_model.network}).

    With [?obs], runs inside an [active.rounding] span and records
    [active.rounding.blocks] (deadline blocks swept),
    [active.rounding.opened] (slots opened),
    [active.rounding.flow_tests] (barely-open feasibility probes) and
    [active.rounding.proxy_carries], plus the nested [lp.*] and [flow.*]
    counters. *)
val solve :
  ?lp1:Lp_model.lp1 ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  Workload.Slotted.t ->
  (Solution.t * stats) option
