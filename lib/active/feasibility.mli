(** Feasibility of an active-time instance on a set of open slots, via the
    flow network [G_feas] of the paper's Fig. 2:

    {v source --p_j--> job j --1--> open slot t in window --g--> sink v}

    The instance is feasible iff the max flow saturates every job arc; an
    integral max flow is a schedule. This check backs the minimal-feasible
    closing loop, the LP rounding's "may this barely-open slot stay
    closed" test and the exact branch-and-bound. *)

(** [feasible ?only_jobs t ~open_slots] decides whether all jobs (or just
    those with ids in [only_jobs]) fit into the open slots. [?obs] is
    forwarded to {!Flow.max_flow}. *)
val feasible :
  ?only_jobs:int list -> ?obs:Obs.t -> Workload.Slotted.t -> open_slots:int list -> bool

(** An integral schedule on the open slots, or [None] when infeasible. *)
val schedule : Workload.Slotted.t -> open_slots:int list -> Workload.Slotted.schedule option

(** [min_cut_jobs t ~job_cap ~slot_cap] runs one max flow of [G_feas]
    with caller-chosen capacities: [job_cap j] on the arc source -> j,
    and for each relevant slot [t] with [slot_cap t = Some (arc, out)],
    [arc] on every arc j -> t from a job whose window holds [t] and
    [out] on t -> sink; slots mapped to [None] are left out. It returns
    the array indices (increasing) of the jobs on the source side of a
    minimum cut, which is empty iff the flow saturates every job arc.
    {!feasible} is the case [job_cap j = p_j], [(1, g)] on the open
    slots; LP1's separation ({!Lp_model}) scales a fractional y to
    [p_j L], [(y_t L, g y_t L)]. [?obs] is forwarded to
    {!Flow.max_flow}. *)
val min_cut_jobs :
  ?obs:Obs.t ->
  Workload.Slotted.t ->
  job_cap:(Workload.Slotted.job -> int) ->
  slot_cap:(int -> (int * int) option) ->
  int list

(** How a search kernel probes feasibility: [Incremental] retargets one
    persistent warm {!Oracle} per solve, [Rebuild] reconstructs the flow
    network per probe (the pre-oracle baseline, kept selectable so
    [test_obs]'s "bb_hard oracles agree (groups 2-4)" (EXPERIMENTS E20)
    and the fuzz oracle can cross-check observational equivalence). *)
type probe_mode = Incremental | Rebuild

(** Persistent incremental feasibility oracle.

    The Fig. 2 network is built once per instance with every relevant slot
    and every job wired in; probes then toggle arc capacities on the warm
    residual graph instead of rebuilding:

    - closing a slot drains the [<= g] displaced flow units back through
      the residual graph ({!Flow.drain_edge}) and zeroes its slot->sink
      arc; reopening restores capacity [g];
    - activating a job raises its source->job arc from [0] to [p_j]
      (deactivating drains it);
    - {!Oracle.check} re-augments from the current residual state
      ({!Flow.augment}) and reports whether the flow saturates every
      active job arc.

    Amortized work per consecutive-probe toggle is one drain plus the
    re-augmentation of the recovered units — not a fresh network build
    plus a from-scratch Dinic run. Answers are observationally equivalent
    to {!feasible} on the same open set / active jobs (max flow is exact
    either way); the fuzz oracle and qcheck suites pin this. *)
module Oracle : sig
  type t

  (** [create inst] wires the full network. [open_all] (default [true])
      starts with every relevant slot open; [activate_all] (default
      [true]) with every job active. With [?obs], records
      [active.oracle.builds]. *)
  val create : ?obs:Obs.t -> ?open_all:bool -> ?activate_all:bool -> Workload.Slotted.t -> t

  (** Sum of active job lengths — the flow value [check] must reach. *)
  val target : t -> int

  (** Flow currently routed (maintained across toggles and drains). *)
  val flow_value : t -> int

  val slot_is_open : t -> slot:int -> bool

  (** Toggle a slot. Closing drains its routed flow; opening an already
      open slot (or closing a closed one) is a no-op. Toggling a slot no
      job can use is a no-op either way (such slots exist in no window
      and never carry flow, matching [feasible], which ignores them). *)
  val set_slot : ?obs:Obs.t -> t -> slot:int -> open_:bool -> unit

  (** Toggle every job with the given id (ids are expected unique, but
      duplicates are all toggled, matching [feasible ?only_jobs]). Raises
      [Invalid_argument] on an unknown id. *)
  val set_job : ?obs:Obs.t -> t -> id:int -> active:bool -> unit

  (** Re-augment on the warm residual graph and decide feasibility of the
      current open set for the currently active jobs. With [?obs],
      records [active.oracle.checks] plus the {!Flow.augment}
      counters. *)
  val check : ?obs:Obs.t -> t -> bool

  (** Currently open slots, sorted. *)
  val open_slots : t -> int list
end
