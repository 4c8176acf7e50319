(** LP-based branch and bound for the active-time integer program: at
    each node LP1 is re-solved with the branching fixings; pruning uses
    infeasibility and [ceil(LP) >= incumbent] (active time is integral);
    integral LP solutions become incumbents directly. Complements the
    combinatorial flow-pruned search of {!Exact}; experiment E16 compares
    their search effort. *)

(** Budgeted LP-based branch and bound (default: unlimited fuel). One
    tick per node plus one per simplex pivot inside each LP re-solve, so
    the budget bounds total work, not just tree size. The exhausted
    incumbent is the best integral solution found (at worst the
    minimal-solution seed); [None] inside the outcome iff the instance is
    infeasible.

    One {!Lp_model.lp1} serves the whole search tree: each node rewrites
    the branching bounds ({!Lp_model.fix}) and runs the cut loop from
    its parent's optimal basis, padded for the rows found since. Rows
    found at one node stay valid at every other, so they are kept for
    the whole tree. Its separation network also serves the minimal
    seed, which runs first, and the returned schedule, so a solve builds
    one network.

    With [?obs], runs inside an [active.ilp] span and records
    [active.ilp.nodes] and [active.ilp.lp_solves] (every {!Lp.solve} of
    the tree, equal to [lp.solves]: a node's cut loop may run several,
    so it is at least the node count) plus the nested [active.lp1.*],
    [lp.*] and [flow.*] counters of every re-solve ([lp.warm_starts]
    counts the nodes that resumed their parent's basis with no row added
    since). These counters are the search statistics: experiment E16
    reads its columns from them. *)
val solve :
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  Workload.Slotted.t ->
  Solution.t option Budget.outcome

(** [None] iff the instance is infeasible; otherwise the exact optimum
    ([solve] with unlimited fuel). *)
val exact : Workload.Slotted.t -> Solution.t option

val optimum : Workload.Slotted.t -> int option
