(** Graceful-degradation cascade for busy time: exact set-partition
    branch and bound, then GreedyTracking (3-approximation, Thm 5).
    Each tier gets a fresh budget of the same tick limit;
    GreedyTracking is polynomial and unmetered, so the cascade always
    returns a packing, within 3 times the optimum. Interval jobs only (pin
    flexible jobs with {!Placement} first); raises [Invalid_argument]
    otherwise. *)

(** Provenance with rational busy-time cost, ["busy"] / ["lower-bound"]
    labels, and [bound] = the best Section-4.1 lower bound on OPT (mass /
    span / demand profile); [gap] bounds the regret of a degraded answer.
    See {!Budget.Cascade.provenance} for the fields. *)
type provenance = Rational.t Budget.Cascade.provenance

(** [solve ~limit ~g jobs] runs the cascade with [limit] ticks per tier.
    The packing is always [Some] (GreedyTracking accepts any
    interval-job list, including the empty one) unless the [?deadline]
    probe fired — the provenance then ends in a
    {!Budget.Cascade.Deadline} attempt and has no winner. [?obs] is threaded through the runner (cascade.*
    counters and per-tier spans) and every tier's solver; [?deadline] is
    re-armed on each per-tier budget ({!Budget.Cascade.run}). *)
val solve :
  ?obs:Obs.t ->
  ?deadline:(unit -> bool) ->
  limit:int ->
  g:int ->
  Workload.Bjob.t list ->
  Bundle.packing option * provenance

(** One line per attempt plus a final
    [provenance: tier=... busy=... lower-bound=... gap=...] line
    ({!Budget.Cascade.pp_provenance} with the rational cost printer). *)
val pp_provenance : Format.formatter -> provenance -> unit
