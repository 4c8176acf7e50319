(** Exact optima for the active-time problem, used by tests and benches to
    measure true approximation ratios (the problem is NP-hard, Saha &
    Purohit, arXiv:2112.03255; both solvers are exponential in the worst
    case).

    [branch_and_bound] decides open/closed per relevant slot with monotone
    feasibility pruning and cost pruning against an incumbent seeded by a
    minimal feasible solution; practical to a few dozen slots.
    [brute_force] enumerates slot subsets and cross-checks the B&B in the
    tests. *)

(** Raises [Invalid_argument] beyond 20 relevant slots. [None] iff
    infeasible. *)
val brute_force : Workload.Slotted.t -> Solution.t option

(** [None] iff infeasible. Equivalent to [solve] with unlimited fuel and
    no floor. *)
val branch_and_bound : Workload.Slotted.t -> Solution.t option

(** Budgeted branch and bound: one tick per search node (default:
    unlimited). On exhaustion returns [Exhausted] whose incumbent is the
    best feasible solution found so far (at worst the minimal-solution
    seed) — [None] inside the outcome still means the instance is
    infeasible, which is always detected before any node is expanded.

    The built-in floor is [max(ceil(P/g), OPT_inf)], where [OPT_inf]
    is the optimum with [g] unbounded
    ({!Workload.Slotted.unbounded_optimum}). [?floor] is a lower bound
    on the optimum that the caller has proven, and raises it. The
    search calls [floor] at most once, and only when the
    minimal-solution seed costs more than the built-in floor, before
    the first node; the call runs inside the search's
    {!Budget.Out_of_fuel} handler, so a floor that ticks [budget] (the
    cascade's exact tier solves LP1 on it) has its work counted, and
    its exhaustion returns [Exhausted] with the seed as incumbent,
    never the exception. A valid floor never changes the returned
    solution, only the nodes, flow checks and ticks it takes; an
    invalid one (above the optimum) may return a worse solution as
    [Complete].

    A search whose floor reaches the seed's cost at the root node
    probes nothing: it builds no oracle beyond the seed's, runs no flow
    check and returns the seed's own {!Solution.t}.

    [?oracle] selects the feasibility probe (default
    {!Feasibility.Incremental}): the incremental mode drives one
    persistent warm {!Feasibility.Oracle} through the whole search
    (close slot, re-augment, reopen on backtrack), the [Rebuild] mode
    reconstructs the flow network per probe. Both modes compute exact
    max flows, so they return byte-identical optima and record identical
    [active.exact.nodes] / [active.exact.flow_checks] counters; only the
    flow-level telemetry (and the wall clock) differs. The oracle is
    readied on the first close probe, by a root check (every relevant
    slot open) that counts as one flow check in both modes. The seed,
    the oracle and the returned schedule share one
    {!Feasibility.network}.

    With [?obs], runs inside an [active.exact] span and records
    [active.exact.nodes] / [active.exact.flow_checks] (on the exhausted
    path too) plus the nested seed ([active.minimal]) and flow
    counters. *)
val solve :
  ?budget:Budget.t ->
  ?oracle:Feasibility.probe_mode ->
  ?floor:(unit -> int) ->
  ?obs:Obs.t -> Workload.Slotted.t -> Solution.t option Budget.outcome

(** Optimal active time ([None] iff infeasible). *)
val optimum : Workload.Slotted.t -> int option
