(** The LP relaxation LP1 of the active-time integer program (Section 3):

    {v
    min  sum_t y_t
    s.t. x_{t,j} <= y_t                for each job j, slot t in window
         sum_j x_{t,j} <= g y_t        for each slot t
         sum_t x_{t,j} >= p_j          for each job j
         0 <= y_t <= 1, x >= 0, x = 0 outside windows
    v}

    Solved exactly over the rationals ({!Lp}); the optimum lower-bounds
    the integral optimum, and the y-vector feeds the rounding of
    Theorem 2, which reads nothing else. The integrality gap is 2
    (Section 3.5, experiment E3).

    {b The projection.} Give the paper's Fig. 2 network [G_feas] the
    capacities [p_j] (source -> j), [y_t] (j -> t) and [g y_t]
    (t -> sink). By max-flow/min-cut, a y in [\[0,1\]^T] extends to a
    feasible x iff, for every job set J,
    [sum_t min(g, n_t(J)) y_t >= p(J)], where [n_t(J)] counts the
    windows of J that hold t. So LP1 is [min sum_t y_t] over these
    rows, with one column per relevant slot and no x at all.

    {b The cut loop} ({!resolve}). The model starts with the row of
    every single job. Each round solves it, then separates: y is scaled
    by the least common denominator L of its values, and one max flow of
    [G_feas] with capacities [p_j L], [y_t L] and [g y_t L]
    ({!Feasibility.min_cut_jobs}) either saturates every job arc —
    y is LP1-feasible, hence optimal — or leaves a min cut whose
    source-side jobs form a violated set. That set is split into
    chains, maximal runs (by release) of windows that overlap the ones
    before; chains share no slot, so their rows sum to the set's, and
    the row of every chain that y violates is appended. The rows of
    earlier rounds stay: each is implied by x, whatever the y bounds.

    {b What a round reuses.} Each {!lp1} owns one separation network,
    [G_feas] over every relevant slot ({!Feasibility.network}), built
    with the model; a round re-capacitates it instead of building a
    fresh one, and a slot with [y_t = 0] gets capacity 0, which leaves
    the flow, its counters and the cut as if the slot were absent. The
    minimal min cut is the same for every max flow, so reuse changes no
    cut. Likewise each solve after the first appends only the new rows
    to the compiled LP the model keeps ({!Lp.solve}).

    {b Start bases.} The first solve starts from every [y_t] at its
    upper bound and every surplus basic ([?start]). With every y free
    this is primal feasible, since every window holds its job's length;
    under pins it may not be, and {!Lp.solve} falls back to phase 1.
    Each later round starts
    from the previous optimal basis padded with a basic surplus for
    each new row ([?start]): the new rows' duals are zero, so the basis
    stays dual feasible and {!Lp.solve}'s dual repair runs. A basis
    whose model has gained no row since is passed as [?warm]. The start
    never changes the optimal value, but it may change which optimal
    vertex — hence which y-vector — comes back; Theorem 2's [2 LP1]
    guarantee holds at any optimal vertex. *)

type t = {
  cost : Rational.t;  (** optimal LP objective *)
  y : (int * Rational.t) list;  (** slot -> y_t, all relevant slots *)
}

(** [y_at t slot] is the slot's y value (0 when absent). *)
val y_at : t -> int -> Rational.t

(** Raised by {!resolve} when the common denominator of y, times
    [max(sum_j p_j, g)], overflows a native [int] (flow capacities are
    native integers); never wraps. *)
exception Scale_overflow

(** LP1 over y and the rows found so far, with its last optimal basis
    and its separation network: one value serves every solve of one job
    set, owned by its caller and used by one domain at a time.
    {!solve} takes a fresh one; [Sim.Rolling]'s pinned bound keeps one
    across epochs and {!Ilp.solve} one for its whole tree, since both
    change only y bounds, which leave every row valid; {!Cascade.solve}
    keeps one per run, which its rounding tier resumes from where the
    exact tier's floor left it. *)
type lp1

(** The y-only model with the row of every single job, every y free in
    [\[0,1\]] and no basis yet. *)
val create : Workload.Slotted.t -> lp1

(** The relevant slots, one y column each, increasing. *)
val slots : lp1 -> int list

(** [fix lp fixing] rewrites every y's bounds: [Some true] pins it to
    1, [Some false] to 0, [None] frees it in [\[0,1\]]. *)
val fix : lp1 -> (int -> bool option) -> unit

(** The basis of the last optimum {!resolve} reached ([None] before the
    first, and with the dense engine, which returns no basis). *)
val basis : lp1 -> Lp.Basis.t option

(** The LP solves run on this model so far: one per round of every
    {!resolve}, the same events [active.lp1.rounds] counts, so
    {!Ilp.solve} can report them with or without a recorder. *)
val solves : lp1 -> int

(** Runs the cut loop (see the header) from [from] (default: the last
    optimal basis, or the all-upper start before the first); [None] iff
    LP1 under the current bounds is infeasible. [rule], [engine],
    [budget] and [obs] reach every {!Lp.solve} of the loop: each
    simplex pivot costs one tick of [budget], whose exhaustion raises
    {!Budget.Out_of_fuel} (rows already appended stay valid). With
    [obs], also records [active.lp1.rounds] (one per LP solve) and
    [active.lp1.cuts] (rows appended), plus the separation's [flow.*]
    counters. Raises {!Scale_overflow} as documented there. *)
val resolve :
  ?rule:Lp.pivot_rule ->
  ?engine:Lp.engine ->
  ?from:Lp.Basis.t ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  lp1 ->
  t option

(** [solve inst] is {!resolve} on [create inst]: LP1 with every y free;
    [None] iff the instance is infeasible. *)
val solve :
  ?engine:Lp.engine ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  Workload.Slotted.t ->
  t option

(** LP1 in its x-form above, every [y] free in [0,1], plus the y
    variables by slot: the reference that the tests and the fuzz oracle
    solve with {!Lp.solve} directly, to check the cut loop against code
    that shares none of its separation. No solver path uses it. *)
val build_lp1 : Workload.Slotted.t -> Lp.model * (int * Lp.var) list

(** LP2 of Section 3.1: with the slot openings fixed to the given y
    vector, does a feasible fractional assignment exist? *)
val feasible_with_y : Workload.Slotted.t -> (int * Rational.t) list -> bool

(** The right-shifted y vector (Section 3.1): block masses between
    consecutive distinct deadlines packed against their right ends.
    Lemma 3 asserts [feasible_with_y inst (right_shift inst t)] whenever
    [t] is a feasible LP solution; the property tests verify this. *)
val right_shift : Workload.Slotted.t -> t -> (int * Rational.t) list
