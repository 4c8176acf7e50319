(** Exact optimal bundling of interval jobs: branch-and-bound over set
    partitions (insert jobs left-to-right into an existing or a fresh
    bundle), pruned by partial cost against an incumbent seeded by
    FirstFit/GreedyTracking. The problem is NP-hard even for [g = 2], so
    this is exponential; without a budget, [solve] raises
    [Invalid_argument] beyond 14 jobs, while with one it takes any size
    and lets the fuel bound the work instead. *)

(** Budgeted set-partition search, one tick per node (job insertion
    point, leaves included). With a budget there is no job cap:
    exhaustion returns the best packing found so far, which is always
    valid — at worst the FirstFit/GreedyTracking seed, so the incumbent
    is never more than 3x optimal. Raises [Invalid_argument] on [g < 1],
    flexible jobs, or more than 14 jobs without a budget.

    The kernel mutates one bundle vector in place with O(1) undo, breaks
    bundle symmetries (only the first bundle of each clipped-signature
    class is tried; a fresh bundle is never opened while a dead one
    exists) and prunes with a suffix lower bound (the uncovered measure
    of the remaining jobs' intervals must still be paid).

    With [?obs], runs inside a [busy.exact] span and records
    [busy.exact.nodes] (on the exhausted path too) plus the seeds'
    [busy.first_fit.*] / [busy.greedy_tracking.*] counters. *)
val solve :
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  g:int ->
  Workload.Bjob.t list ->
  Bundle.packing Budget.outcome

(** [solve] with unlimited fuel (so the 14-job cap applies). *)
val exact : g:int -> Workload.Bjob.t list -> Bundle.packing

val optimum : g:int -> Workload.Bjob.t list -> Rational.t
