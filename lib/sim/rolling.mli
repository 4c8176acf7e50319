(** Epoch-driven rolling-horizon re-optimization — the datacenter
    replay loop the ROADMAP names as the showcase tying the service,
    online and perf tracks together.

    A trace is a slotted instance plus per-job arrival times (the
    [arrival <t>] directive of {!Workload.Io}; busy-time traces with
    integral coordinates convert via {!of_busy}). Time advances in
    epochs of [epoch_len] slots. Each epoch the simulator

    + marks SLA misses: arrived jobs that can no longer finish inside
      their window (their remaining work exceeds the slots left before
      the deadline) are dropped and counted;
    + re-solves the sliding window — the arrived, unfinished jobs with
      clipped releases and remaining lengths, up to [lookahead] slots
      ahead — with a registry solver ([epoch_budget] fuel,
      [epoch_deadline] probe composed on top);
    + commits the plan's first [epoch_len] slots: executed units are
      pinned — jobs already started keep their slots, only future work
      is re-decided next epoch;
    + re-checks global feasibility on a warm
      {!Active.Feasibility.Oracle}: the full network is built once,
      then arrivals activate jobs and passed unopened slots close
      incrementally on the warm residual graph;
    + re-solves a pinned LP1 for a lower bound on the final active
      time: committed opens are pinned [y_t = 1] and passed unopened
      slots [y_t = 0] ({!Active.Lp_model.fix}, a bound-only rewrite),
      and the cut loop resumes from the previous epoch's basis with
      every row found so far, on the dual-repair path.

    The oracle and the pinned LP1 are the run's warm state, kept in a
    record the run owns: nothing is shared between runs or domains.
    With [warm = false] every epoch takes a fresh record (and rebuilds
    the oracle and the LP model cold) — the baseline that [test_sim]'s
    "warm = cold on vm_day and timed traces" compares against
    (EXPERIMENTS E25); the answers are identical, only the work
    differs. Either way the fetches are counted as [session.warm_hits]
    (reused), [session.rebuilds] (the LP1 after a new miss) and
    [session.warm_misses] (built cold).

    When the epoch solve degrades — deadline expired (the cascade's
    provenance records the aborted tiers), budget exhausted without an
    incumbent, or an infeasible overload — the epoch falls back to a
    deterministic earliest-deadline-first commit and is marked
    [degraded], with the cascade provenance preserved. *)

type epoch = {
  index : int;
  now : int;  (** epoch start time; slots [<= now] are the past *)
  arrived : int;  (** jobs known at epoch start (cumulative) *)
  window_jobs : int;  (** jobs in this epoch's re-solved window *)
  opened : int list;  (** slots committed open this epoch, sorted *)
  energy : int;  (** [List.length opened] *)
  work : int;  (** job units executed this epoch *)
  completed : int;  (** jobs finishing this epoch *)
  sla_misses : int;  (** jobs newly marked missed this epoch *)
  feasible : bool;
      (** warm-oracle check: the committed open set still admits a
          schedule completing every arrived, unmissed job (past units may
          be re-assigned within committed open slots) *)
  lower_bound : Rational.t option;
      (** pinned-LP1 bound on the final total active time; [None] when
          the pinned LP was skipped (deadline epoch) or infeasible —
          the latter is an early warning: the commitments (or an
          overload) admit no completion of the remaining full job set,
          so a miss is under way *)
  ticks : int;  (** fuel spent by the epoch's window solve *)
  lp_work : int;
      (** [lp.exact_cells] recorded this epoch: the pinned LP1's and,
          under ["cascade"], those of the LP1 that the exact tier
          solves for its [ceil(LP1)] floor and the rounding tier
          resumes ({!Active.Cascade}) *)
  warm_hits : int;
      (** warm reuses this epoch: the oracle, the LP1 model and its
          basis *)
  degraded : bool;
  provenance : Core.Result.objective Budget.Cascade.provenance option;
}

type run = {
  instance : Workload.Slotted.t;
  epoch_len : int;
  algorithm : string;
  warm : bool;
  epochs : epoch list;  (** in order *)
  schedule : Workload.Slotted.schedule;
      (** all committed units per job (missed jobs keep the units they
          did execute) *)
  open_slots : int list;  (** all committed open slots, sorted *)
  total_energy : int;
  total_work : int;
  total_misses : int;
  completed_jobs : int;
  replay : Replay.report option;
      (** {!Replay.run_active} replay of the committed schedule as the
          energy oracle — only when the trace has jobs and every job
          completed (a schedule with missed jobs fails the offline
          checker by construction); {!pp} prints which reason skipped it *)
}

type config = {
  epoch_len : int;
  lookahead : int option;  (** window extent in slots; [None] = horizon *)
  algorithm : string;
      (** registry solver for the window re-solve; it must return a
          schedule, so a bound-only solver is refused *)
  epoch_budget : int option;  (** fuel per epoch; [None] = unlimited *)
  epoch_deadline : (unit -> unit -> bool) option;
      (** per-epoch deadline probe factory: called at each epoch start,
          the returned probe is armed on that epoch's budget
          ({!Budget.set_deadline}). The CLI turns [--epoch-deadline-ms]
          into a wall-clock factory, or an always-expired probe for [0]
          (deterministic degradation) *)
  warm : bool;  (** keep the warm state across epochs (default) *)
}

(** [epoch_len = 4], lookahead to the horizon, ["cascade"], fuel
    500_000 per epoch, no deadline, warm. *)
val default_config : config

(** Convert an integral busy-time trace to the slotted model ([g] from
    the caller, slot [t] = [\[t-1, t)]). Raises [Invalid_argument] when
    a coordinate is not a nonnegative integer. *)
val of_busy : g:int -> Workload.Bjob.t list -> Workload.Slotted.t

(** Replay the trace. [arrivals] follow the {!Workload.Io} convention
    (missing ids arrive at 0). Raises {!Core.Solver.Unsupported},
    before the first epoch, when [config.algorithm] is not a registered
    active-time solver or returns only a bound, and from an epoch whose
    window fails the solver's precondition.
    Counters recorded into [obs]: the underlying
    [lp.*]/[flow.*]/[session.*] counters ([session.solves] counts the
    window re-solves) plus [sim.epochs], [sim.energy],
    [sim.sla_misses], [sim.work], [sim.degraded_epochs]. *)
val run :
  ?obs:Obs.t -> ?config:config -> ?arrivals:(int * int) list -> Workload.Slotted.t -> run

(** Per-epoch text table plus the totals line; degraded epochs print
    their cascade attempts underneath. *)
val pp : Format.formatter -> run -> unit

(** Schema-1 style document: config echo, one object per epoch, totals.
    Byte-stable for a fixed trace and config (no wall-clock fields). *)
val to_json : run -> Obs.Json.t
