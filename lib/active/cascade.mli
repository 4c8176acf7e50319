(** Graceful-degradation cascade for active time: exact branch and bound,
    then the Theorem-2 LP rounding (2-approximation), then the
    minimal-feasible greedy (3-approximation). Each tier gets a fresh
    budget of the same tick limit; the first tier to finish within its
    budget answers. The final greedy tier is polynomial and unmetered, so
    on a feasible instance the cascade always returns a solution — at
    degraded quality rather than not at all.

    The exact tier prunes against [ceil(LP1)] ({!Exact.solve}'s
    [?floor]), solved by {!Lp_model.resolve} on the tier's own budget,
    so its pivots count among the tier's ticks and a deadline still
    fires inside it; an LP1 that raises {!Lp_model.Scale_overflow} gives
    no floor. The search asks for the floor only when its minimal seed
    costs more than its built-in floor [max(ceil(P/g), OPT_inf)]
    ({!Workload.Slotted.unbounded_optimum}); a run whose seed meets
    that floor builds no LP1 and no network for it. A valid floor
    leaves the tier's answer
    as the floor-free search's (the registry's [exact], which stays
    LP-free), and cuts its nodes: on the [sim_rolling] windows of
    EXPERIMENTS E28, from hundreds per epoch to one or two.

    One {!Lp_model.lp1} serves a run, built the first time a tier needs
    it. When the exact tier solved it for the floor and then exhausts,
    the rounding tier resumes it ({!Rounding.solve}'s [?lp1]) on its own
    budget: a floor that completed costs the rounding no pivot, and one
    cut short leaves its rows and last basis to resume from. The
    rounding reaches the vertex a fresh LP1 does, so its answer is
    unchanged. *)

(** Provenance with [int] active-time cost, ["cost"] / ["mass-bound"]
    labels, and [bound] = the instance's mass lower bound ceil(P/g) on
    OPT; [gap] bounds how far the degraded answer can be from optimal.
    See {!Budget.Cascade.provenance} for the fields. *)
type provenance = int Budget.Cascade.provenance

(** [solve ~limit inst] runs the cascade with [limit] ticks per tier.
    [None] in the first component iff the instance is infeasible (always
    detected — infeasibility is decided before any search) {e or} the
    [?deadline] probe fired (the provenance then ends in a
    {!Budget.Cascade.Deadline} attempt and has no winner). [?obs] is
    threaded through the runner (cascade.* counters and per-tier spans)
    and every tier's solver; [?deadline] is re-armed on each per-tier
    budget ({!Budget.Cascade.run}). *)
val solve :
  ?obs:Obs.t ->
  ?deadline:(unit -> bool) ->
  limit:int ->
  Workload.Slotted.t ->
  Solution.t option * provenance

(** Multi-line human-readable provenance: one line per attempt plus a
    final [provenance: tier=... cost=... mass-bound=... gap=...] line
    ({!Budget.Cascade.pp_provenance} with the int cost printer). *)
val pp_provenance : Format.formatter -> provenance -> unit
