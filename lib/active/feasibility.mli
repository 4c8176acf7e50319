(** Feasibility of an active-time instance on a set of open slots, via the
    flow network [G_feas] of the paper's Fig. 2:

    {v source --p_j--> job j --1--> open slot t in window --g--> sink v}

    The instance is feasible iff the max flow saturates every job arc; an
    integral max flow is a schedule. This check backs the minimal-feasible
    closing loop, the LP rounding's "may this barely-open slot stay
    closed" test and the exact branch-and-bound; the same network, with
    scaled capacities, is LP1's separation oracle ({!min_cut_jobs}).

    {b One network per solve.} This module wires every [G_feas]:
    {!network} over every job and every relevant slot of an instance,
    {!windows_network} over jobs with several windows ([Multi_window]),
    both with every capacity 0. Each use — {!schedule},
    {!min_cut_jobs}, {!fits} and {!Oracle.create} — zeroes the flow and
    sets every capacity, so a solve builds one network and hands it
    from use to use: its LP1's cut loop, its oracles and the schedule
    it returns. The machine pool ([Machines]), the multi-window model
    and the ILP build one per solve too. ({!feasible} builds its own
    per call: it is the cold reference that the tests and the fuzz
    differential compare against.) A closed slot, or a job left out,
    gets capacity 0;
    no walk crosses such an arc, so the max flow, its [flow.*] counters
    and the cut are those of the network without it, and a reused
    network answers as a fresh one. A network has one user at a time:
    an {!Oracle} keeps its warm flow only until the next use
    re-capacitates the network.

    Every network has one vertex per relevant slot, and a job's window
    is located in the sorted relevant slots by binary search, so nothing
    is sized by the horizon: times near [10^15] cost what small ones
    do. *)

(** [G_feas] of one instance. *)
type network

(** [network t] wires every job and every relevant slot of [t], every
    capacity 0: job arcs first, then each job's window slots in
    increasing order, then the slot arcs. {!Flow} walks arcs newest
    first, so this order decides which max flow, hence which schedule,
    comes back. *)
val network : Workload.Slotted.t -> network

(** [windows_network ~g jobs] wires the same network for jobs that may
    run in any of several windows, each given as (id, length, allowed
    slots, increasing), in the order of [jobs]: job arcs first, then
    each job's allowed slots in increasing order, then the slot arcs,
    one per slot some job allows. Job indices below are indices into
    [jobs]. *)
val windows_network : g:int -> (int * int * int list) array -> network

(** [network_for ?net t] is [net], or a fresh [network t] without one.
    Raises [Invalid_argument] when [net] was built for another instance
    (compared physically), or by {!windows_network}. *)
val network_for : ?net:network -> Workload.Slotted.t -> network

(** The relevant slots, increasing: [slot_cap]'s index [i] below is the
    [i]-th of them. *)
val network_slots : network -> int array

(** [feasible ?only_jobs t ~open_slots] decides whether all jobs (or just
    those with ids in [only_jobs]) fit into the open slots, on a network
    of its own: the reference that the fuzz differential and the tests
    probe job subsets with. [?obs] is forwarded to {!Flow.max_flow}. *)
val feasible :
  ?only_jobs:int list -> ?obs:Obs.t -> Workload.Slotted.t -> open_slots:int list -> bool

(** [fits net ~on] decides whether every job fits when [on.(i) >= 0]
    machines of capacity [g] are on in the slot of index [i], one count
    per slot of {!network_slots} (Koehler–Khuller's machine pool,
    [Machines]): capacity [p_j] on each job arc, 1 on a job -> slot arc
    where a machine is on and [g] per machine on the slot -> sink arc.
    [on] is read, not kept, so a caller may change it between probes.
    [?obs] is forwarded to {!Flow.max_flow}. *)
val fits : ?obs:Obs.t -> network -> on:int array -> bool

(** An integral schedule of the network's jobs on the open slots, as
    (job id, slots increasing) in job order, or [None] when
    infeasible. *)
val schedule : network -> open_slots:int list -> Workload.Slotted.schedule option

(** [min_cut_jobs net ~job_cap ~slot_cap] sets the capacities —
    [job_cap idx] on source -> job [idx] (an array index), and for the
    slot of index [i], [slot_cap i] on every arc j -> slot and [g] times
    that on slot -> sink — and runs one max flow. It returns the array
    indices (increasing) of the jobs on the source side of the minimal
    minimum cut, which is empty iff the flow saturates every job arc.
    The minimal min cut is the same for every max flow. LP1's
    separation ({!Lp_model}) scales a fractional y to [p_j L] and
    [y_t L]. [?obs] is forwarded to {!Flow.max_flow}. *)
val min_cut_jobs :
  ?obs:Obs.t -> network -> job_cap:(int -> int) -> slot_cap:(int -> int) -> int list

(** How a search kernel probes feasibility: [Incremental] retargets one
    persistent warm {!Oracle} per solve, [Rebuild] builds a fresh
    network per probe and runs a cold max flow on it (the pre-oracle
    baseline, kept selectable so [test_obs]'s "bb_hard oracles agree
    (groups 2-4)" (EXPERIMENTS E20) and the fuzz oracle can cross-check
    observational equivalence). *)
type probe_mode = Incremental | Rebuild

(** Persistent incremental feasibility oracle on a {!network}.

    {!create} capacitates the network with every relevant slot and
    every job wired in; probes then toggle arc capacities on the warm
    residual graph:

    - closing a slot drains the [<= g] displaced flow units back through
      the residual graph ({!Flow.drain_edge}) and zeroes its slot->sink
      arc; reopening restores capacity [g];
    - activating a job, addressed by its index in the instance's job
      array, raises its source->job arc from [0] to [p_j] (deactivating
      drains it);
    - {!Oracle.check} re-augments from the current residual state
      ({!Flow.augment}) and reports whether the flow saturates every
      active job arc.

    Amortized work per consecutive-probe toggle is one drain plus the
    re-augmentation of the recovered units — not a from-scratch Dinic
    run. Answers are observationally equivalent to {!feasible} on the
    same open set / active jobs (max flow is exact either way); the
    fuzz oracle and qcheck suites pin this. The oracle owns the network
    until its next use: any other use re-capacitates it and ends the
    oracle. *)
module Oracle : sig
  type t

  (** [create net] capacitates [net] for the oracle. [open_all] (default
      [true]) starts with every relevant slot open; [activate_all]
      (default [true]) with every job active. With [?obs], records
      [active.oracle.builds], which counts oracle set-ups, each on a
      network built for it or reused. *)
  val create : ?obs:Obs.t -> ?open_all:bool -> ?activate_all:bool -> network -> t

  (** Sum of active job lengths — the flow value [check] must reach. *)
  val target : t -> int

  (** Flow currently routed (maintained across toggles and drains). *)
  val flow_value : t -> int

  (** Toggle a slot. Closing drains its routed flow; opening an already
      open slot (or closing a closed one) is a no-op. Toggling a slot no
      job can use is a no-op either way (such slots exist in no window
      and have no vertex in the network). *)
  val set_slot : ?obs:Obs.t -> t -> slot:int -> open_:bool -> unit

  (** [set_job t idx ~active] toggles the job at index [idx] of the
      instance's job array (its callers walk that array). Setting a job
      to the state it is in is a no-op. Raises [Invalid_argument] when
      no job has that index. *)
  val set_job : ?obs:Obs.t -> t -> int -> active:bool -> unit

  (** Re-augment on the warm residual graph and decide feasibility of the
      current open set for the currently active jobs. With [?obs],
      records [active.oracle.checks] plus the {!Flow.augment}
      counters. *)
  val check : ?obs:Obs.t -> t -> bool

  (** Currently open slots, sorted. *)
  val open_slots : t -> int list
end
