(** Linear programming with exact rational results.

    A small modelling layer (named variables with bounds, linear
    constraints, a linear objective) over three simplex engines.
    Exactness matters here: the paper's LP-rounding algorithm
    (Theorem 2) branches on exact thresholds of the optimal solution
    ([y_t = 1], [y_t >= 1/2], [y_t > 0]), which are ill-defined under
    floating point — so every engine returns exact rational objectives
    and vertices, whatever arithmetic it pivots in.

    The engines ({!engine}):
    - {!Revised} (the default, and the only one a solver uses) — a
      bounded-variable primal simplex with exact rational pivots over
      sparse basis algebra. Variable upper bounds are handled implicitly
      by nonbasic-at-lower/nonbasic-at-upper statuses and bound flips,
      so the basis has one row per constraint and artificial variables
      exist only for rows whose slack cannot start basic. The constraint
      matrix is stored as sparse columns, the basis is refactorized as a
      sparse LU with a fill-minimizing ordering, each pivot appends a
      product-form eta (refactorizing after 64 etas, or earlier when the
      eta file outgrows the factors). A pivot's column is one
      hypersparse FTRAN, and the ratio test, basic-value update and
      eta append touch only its nonzeros; the reduced costs are updated
      row-wise from one BTRAN, touching only the columns that the
      nonzero rows of [B^-T e_r] reach. Beyond that, a pivot makes one
      pricing pass over the columns and one BTRAN sweep over the LU
      factors — instead of the dense O(rows x columns) elimination.
    - {!Dense} — the original two-phase tableau simplex with
      every upper bound expanded into an explicit row, kept as the
      reference implementation.
    - {!Float_certified} — the same sparse driver running in
      double precision (reduced-cost tolerance [1e-9], giving up after
      [64 * (rows + columns) + 1024] pivots and bound flips) to find a
      candidate optimal basis fast; one exact rational LU of that basis
      then proves it (primal feasibility, dual feasibility, objective).
      On any certification failure it falls back to {!Revised}, so its
      results never depend on floating point.

    All engines return the same status and objective value on every
    model (see [prop_engines_agree] and the fuzz differential); the
    optimal vertex may differ when the optimum is not unique. Theorem
    2's rounding reads the vertex, so a different engine can round to a
    different schedule: no solver, CLI flag or protocol field chooses
    the engine. {!Dense} and {!Float_certified} are references that
    callers name directly ([?engine]): the LP tests, the fuzz LP
    differential and the benchmark's independent LP1 check.

    Starting points: a cold solve runs phase 1 over artificial
    variables. A re-solve can restore an earlier optimum of the same
    model instead ([?warm]), and a caller that knows a primal or dual
    feasible basis of its model can pass it ([?start], {!Basis.make}):
    LP1's cut loop starts from every y at its upper bound this way, and
    resumes each round from its last optimum padded for the new rows.
    Both are passed
    explicitly on each call. Neither start changes the status or the
    objective.

    What carries over: a model keeps its compiled form for the revised
    engine — the sparse columns, their row-wise copy and the rhs. The
    first warm or [?start] solve builds it; each later one appends only
    the rows added since and re-reads every bound in place; {!add_var}
    and {!set_objective} drop it. Beside it the model keeps the live
    state of its last optimum: the statuses, the basic values, the
    reduced costs, each nonbasic column's value and the final basis's
    LU factors with their eta file. Each warm or [?start] revised solve
    clears it as it starts and stores it again only when it ends
    optimal, so an abort, a fallback to phase 1 or an infeasible or
    unbounded answer leaves none; {!add_var} and {!set_objective} drop
    it, and {!set_bounds} keeps it. A solve that resumes from it (see
    [?warm]) keeps its reduced costs, which no bound enters, and moves
    its basic values by one FTRAN of the change in the nonbasic
    columns' values that the bound moves made. When no row was added
    since, it also takes the LU factors over instead of factoring the
    basis, and charges their work to itself; otherwise it factors the
    grown basis. The values it starts from are exactly the ones a fresh
    start computes, so the same call returns the same vertex, pivots and
    basis whatever ran before it; the work counters depend on what the
    model carries. Solving writes both, so a model, like any mutable
    model, belongs to one domain at a time.

    Pricing and anti-cycling: every engine prices by Dantzig's rule
    while the objective strictly improves and falls back to Bland's rule
    after a bounded number of degenerate pivots, which guarantees
    termination.

    Scale: intended for the LP1/LP2 programs of the active-time model at
    laptop instance sizes (hundreds of variables/constraints), not for
    industrial LPs. *)

type model
type var

(** Row comparison senses. *)
type sense = Le | Ge | Eq

type objective_direction = Minimize | Maximize

(** {1 Model building} *)

val create : unit -> model

(** [add_var m ~lower ?upper name] declares a variable with finite lower
    bound [lower] (default 0) and optional upper bound. Raises
    [Invalid_argument] when [upper < lower]. *)
val add_var : ?lower:Rational.t -> ?upper:Rational.t -> model -> string -> var

val var_name : model -> var -> string
val num_vars : model -> int
val num_constraints : model -> int

(** [set_bounds m v ~lower ~upper] replaces the bounds of an existing
    variable ([upper = None] removes the upper bound). The intended use
    is repeated re-solves of one model under changing bounds (branch and
    bound fixings), typically warm-started from the previous basis.
    The model's live state stays (module header): the next solve from
    its basis moves the basic values to the new bounds by one FTRAN.
    Raises [Invalid_argument] on an unknown variable or [upper < lower]. *)
val set_bounds : model -> var -> lower:Rational.t -> upper:Rational.t option -> unit

(** [add_constraint m terms sense rhs] adds [sum(c_i * x_i) sense rhs].
    Duplicate variables in [terms] are summed. *)
val add_constraint : model -> (Rational.t * var) list -> sense -> Rational.t -> unit

(** Replaces any previous objective. Default objective is [Minimize 0]. *)
val set_objective : model -> objective_direction -> (Rational.t * var) list -> unit

(** {1 Solving} *)

type solution

type result = Optimal of solution | Infeasible | Unbounded

(** Pricing rule. [Dantzig_with_fallback] (the default) picks the most
    attractive reduced cost and switches to Bland's rule after a bounded
    number of degenerate pivots; [Pure_bland] always takes the first
    eligible column (fewer comparisons per pivot, usually many more
    pivots — see the ablation experiment). Both terminate. *)
type pivot_rule = Dantzig_with_fallback | Pure_bland

(** Simplex engine; see the module header. *)
type engine = Revised | Dense | Float_certified

(** How the returned objective was established. [Exact]: every pivot ran
    in rational arithmetic. [Certified]: a float simplex chose the final
    basis and one exact refactorization proved it optimal — the reported
    objective and vertex come from the exact refactorization, so they
    are bit-identical to what an exact engine returns. [Fallback]: float
    certification failed (or the float phase gave up) and the exact
    revised engine re-solved from scratch. *)
type certification = Exact | Certified | Fallback

(** A basis: the nonbasic-at-bound / basic status of every structural
    variable and row slack. {!basis} snapshots the one an optimum ended
    on, for {!solve}'s [?warm]; {!Basis.make} builds one from a known
    feasible point, for [?start]. *)
module Basis : sig
  type status = Lower | Upper | Basic

  type t = private {
    b_nvars : int;
    b_nrows : int;
    vstat : status array;
    sstat : status array;
  }

  (** [make ~vstat ~sstat] takes the status of every structural variable
      in declaration order and of every row's slack in row order (the
      slack of a [Ge] row is its surplus; an [Eq] row's entry is
      ignored). The arrays are copied. Nothing is checked here: {!solve}
      decides whether the basis is usable. *)
  val make : vstat:status array -> sstat:status array -> t
end

(** Solves the model. The model may be re-solved after adding constraints
    or changing the objective or bounds.

    [engine] selects the simplex implementation (default {!Revised});
    see the module header for who passes another.

    [warm] (every engine except {!Dense}, which ignores it) restores a
    basis snapshot from a previous solution of this model: the basis is
    refactorized and the solve re-enters phase 2 directly when it is
    still primal feasible, or repairs feasibility with a
    bounded-variable dual simplex when only the bounds changed (which
    leaves the reduced costs, hence dual feasibility, intact). The
    revised engine resumes when the model holds the live state of an
    optimum (module header) and the basis it is given is that
    optimum's, with a basic slack for every row appended since and
    every such row [Le] or [Ge], whatever bounds moved since: it keeps
    that optimum's reduced costs (the new rows' duals are zero, and no
    bound enters them) and basic values, moved by one FTRAN of the
    moved bounds' change (the new rows reach no old row; each new
    slack's value is read off its row), instead of pricing every column
    and solving for them, and with no row appended it keeps the
    optimum's LU factors too. Either way the same pivots follow. The
    float engine restores the snapshot in double precision and
    certifies whatever basis the warm re-solve ends on, exactly as for a
    cold float solve. When the snapshot cannot be reused — dimensions
    changed, the basis went singular, dual infeasible, or the repair
    exceeds its pivot cap — the solve silently falls back to a cold
    start, so [?warm] never changes the status or the objective, only
    work. It may change which optimal vertex is returned when the
    optimum is not unique, and the rounding of Theorem 2 reads the
    vertex: that is why warm state is always the caller's own.

    [start] (every engine except {!Dense}) is a basis the caller built
    for its own model ({!Basis.make}), used in place of phase 1. It is
    taken only when no [?warm] was given. It runs through the [?warm]
    machinery — refactorize, then phase 2 when primal feasible, dual
    repair when only dual feasible — and a start that cannot be used
    (wrong dimensions, singular, neither primal nor dual feasible)
    falls back to phase 1 silently. A start never changes the status or
    the objective, but it may change which optimal vertex is returned
    when the optimum is not unique. It does not count in
    [lp.warm_starts]; [lp.phase1_pivots = 0] shows that it was taken.
    [Active.Lp_model]'s cut loop passes two kinds: every y at its upper
    bound with every surplus basic (primal feasible), and an earlier
    optimal basis with a basic surplus for each row appended since
    (dual feasible, since the new rows' duals are zero). The second
    resumes from the model's live state when the earlier optimum was
    the model's last, as for [?warm].

    When [budget] is given, every simplex pivot and bound flip consumes
    one tick of it; on exhaustion the solve aborts by raising
    {!Budget.Out_of_fuel}. A half-pivoted tableau has no meaningful
    incumbent, so unlike the combinatorial solvers there is no
    [Exhausted] result here — callers that want degradation catch the
    exception (see [Active.Cascade]).

    With [obs], records [lp.solves], [lp.pivots], [lp.phase1_pivots],
    [lp.degenerate_pivots], [lp.bound_flips] (revised only),
    [lp.warm_starts] (warm snapshot successfully reused) and
    [lp.exact_cells] (rational cell operations actually performed by the
    exact engines and by certification — the engine-comparable work
    measure) counters plus [lp.phase1] / [lp.phase2] spans. Engines on
    the sparse basis algebra (revised, float) additionally record
    [lp.refactorizations] (sparse LU basis factorizations),
    [lp.eta_updates] (product-form eta pivots applied in place of a
    refactorization) and [lp.fill_nonzeros] (total LU nonzeros produced,
    fill included). The revised engine also records
    [lp.priced_columns]: every nonbasic column once per phase, when the
    reduced costs are computed in full (a warm start does so once, before
    its dual-feasibility check; a resumed one does not re-price), plus
    after each pivot, primal or dual, the nonbasic columns that the
    row-wise reduced-cost update reaches. The float engine additionally
    records [lp.float_pivots] (double-precision pivots),
    [lp.certify_ops] (rational multiplications/divisions spent in
    certification), [lp.certify_ok], [lp.certify_fail] and
    [lp.fallbacks] (exact re-solves, whether after a failed
    certification or a float give-up).
    Counters recorded so far survive a {!Budget.Out_of_fuel} abort. *)
val solve :
  ?rule:pivot_rule ->
  ?engine:engine ->
  ?warm:Basis.t ->
  ?start:Basis.t ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  model ->
  result

(** Objective value at the returned vertex. *)
val objective_value : solution -> Rational.t

(** Value of a variable at the returned vertex. *)
val value : solution -> var -> Rational.t

(** All values, in declaration order. *)
val values : solution -> (string * Rational.t) list

(** Simplex pivots performed by the solve that produced this solution
    (all phases, including any warm-start dual repair; bound flips are
    not pivots). *)
val pivots : solution -> int

(** Scalar cell operations the solve actually performed: tableau cells
    updated by eliminations for the dense engine, LU / triangular-solve
    / eta / pricing multiplications for the revised engine,
    and float cells plus exact certification operations for the float
    engine. This is the engine-comparable measure of simplex work that
    [test_lp]'s engine families compare (EXPERIMENTS E21/E23/E24);
    before 1.8.0 it reported the static tableau area instead. *)
val tableau_cells : solution -> int

(** Basis snapshot for {!solve}'s [?warm] — [None] when the solution was
    produced by the dense engine. *)
val basis : solution -> Basis.t option

(** Provenance of the returned objective (see {!certification}). Exact
    engines return [Exact]; the float engine returns [Certified] when
    its basis certified, [Fallback] when the exact re-solve produced the
    answer. All three carry exact rational results. *)
val certification : solution -> certification
