(** Deterministic fuel budgets for the exponential solvers.

    A budget counts abstract {e ticks} — search nodes, subset masks,
    simplex pivots — not wall-clock time, so a budgeted run is exactly
    reproducible across machines and CI. Solver hot loops call {!tick};
    when the fuel is gone {!Out_of_fuel} aborts the search and the
    budgeted entry points ({!Active.Exact.solve}, {!Active.Ilp.solve},
    {!Busy.Exact.solve}, {!Busy.Maximize.solve}, {!Lp.solve} — every
    exponential solver takes [?budget] and returns an outcome) turn it
    into a structured {!outcome} carrying the best incumbent found, so a
    caller can degrade to an approximation instead of hanging.

    {!Cascade} is the degradation runner: it tries a list of solver tiers
    in order — each with a fresh budget of the same limit — and returns
    the first definitive answer plus a provenance record of every
    attempt. *)

type t

(** Raised by {!tick} when the fuel is spent. Escapes budgeted solvers
    only through {!Lp.solve} (whose tableau has no meaningful incumbent)
    and the functions documented to re-raise it. *)
exception Out_of_fuel

(** Raised by {!tick} when the budget's deadline probe (see
    {!set_deadline}) reports expiry. Unlike {!Out_of_fuel}, solvers do
    {e not} catch this — it unwinds the whole solve, because a missed
    wall-clock deadline invalidates incumbents and further tiers alike.
    Callers that set a deadline (the [atbt serve] workers) catch it and
    answer with a structured timeout. *)
exception Deadline_exceeded

(** A budget that never exhausts (for the thin unbounded wrappers). *)
val unlimited : unit -> t

(** [limited n] allows exactly [n] ticks. Raises [Invalid_argument] when
    [n < 0]. *)
val limited : int -> t

(** Consume one tick. Raises {!Out_of_fuel} when none remain; [spent]
    then equals the limit. *)
val tick : t -> unit

(** Ticks consumed so far. *)
val spent : t -> int

(** Ticks left ([max_int] for an unlimited budget). *)
val remaining : t -> int

val is_limited : t -> bool
val exhausted : t -> bool

(** [set_deadline ?interval b probe] arms a wall-clock deadline on [b]:
    {!tick} calls [probe ()] on its next invocation and then once every
    [interval] ticks (default 256, amortizing the clock read), raising
    {!Deadline_exceeded} when it returns [true]. The clock stays outside
    this library — pass a closure over [Unix.gettimeofday] (or a fake
    clock in tests), so fuel accounting remains deterministic and a
    budget without a probe behaves exactly as before. Because the check
    rides the existing [tick] sites, every budgeted solver honours
    deadlines with zero new instrumentation; solvers that ignore their
    budget also ignore deadlines (documented per solver by the
    [supports_budget] registry flag). *)
val set_deadline : ?interval:int -> t -> (unit -> bool) -> unit

(** The deadline probe armed on this budget, if any — used by composite
    solvers (the cascades) to re-arm the probe on the fresh per-tier
    budgets they create. *)
val probe : t -> (unit -> bool) option

(** [expired b] polls the probe immediately (no tick consumed); [false]
    when no deadline is armed. *)
val expired : t -> bool

(** Result of a budgeted search: either it ran to completion, or the fuel
    ran out and [incumbent] is the best (feasible but possibly
    suboptimal) answer found within [spent] ticks. *)
type 'a outcome = Complete of 'a | Exhausted of { spent : int; incumbent : 'a }

(** Graceful-degradation runner: exact -> approximation -> greedy. *)
module Cascade : sig
  type status =
    | Answered  (** tier completed with an answer *)
    | No_answer  (** tier completed and proved there is none (infeasible) *)
    | Tier_exhausted  (** tier ran out of fuel; the next tier was tried *)
    | Deadline
        (** the wall-clock deadline expired inside this tier; the
            cascade stopped — no further tier was tried *)

  type attempt = { tier : string; ticks : int; status : status }

  type 'a result = {
    value : 'a option;
    winner : string option;
        (** the tier that completed — also set when it completed with
            [No_answer] (a definitive infeasibility); [None] only when
            every tier exhausted *)
    attempts : attempt list;  (** in run order *)
  }

  (** [run ~limit tiers] gives each [(name, solve)] tier a fresh budget
      of [limit] ticks, in order. A tier returns [Some answer] or [None]
      (definitive: no answer exists) to stop the cascade, or raises
      {!Out_of_fuel} to pass the baton. Total work is at most
      [limit * length tiers] ticks; make the last tier polynomial so the
      cascade always terminates with an answer. With [?obs], each tier
      runs inside a [cascade.<tier>] span and the runner records
      [cascade.attempts], [cascade.ticks] and [cascade.tiers_exhausted]
      counters. With [?deadline], the probe is armed (via
      {!set_deadline}) on every per-tier budget; when it fires the
      aborted attempt is recorded with status {!Deadline}, a
      [cascade.deadline_hits] counter bumps, and the remaining tiers are
      skipped — the result has [value = None] and [winner = None], with
      the partial attempt list as provenance. *)
  val run :
    ?obs:Obs.t ->
    ?deadline:(unit -> bool) ->
    limit:int ->
    (string * (t -> 'a option)) list ->
    'a result

  val pp_attempt : Format.formatter -> attempt -> unit

  (** Model-independent provenance: what each cascade reports about a
      run. The cost type is a parameter (active time is an [int] slot
      count, busy time a rational); [cost_label] / [bound_label] carry the
      model's vocabulary (["cost"]/["mass-bound"] vs.
      ["busy"]/["lower-bound"]) so {!pp_provenance} is the only
      formatter. *)
  type 'cost provenance = {
    winner : string option;
        (** tier that completed — also set on a definitive [No_answer];
            [None] only when every tier exhausted *)
    attempts : attempt list;  (** every tier tried, in run order *)
    cost : 'cost option;  (** cost of the returned answer *)
    bound : 'cost;  (** lower bound on OPT, the gap witness *)
    gap : 'cost option;  (** [cost - bound] when an answer exists *)
    cost_label : string;
    bound_label : string;
  }

  (** Build a provenance from a cascade {!result}; [sub] computes the
      gap in the model's cost type. *)
  val provenance :
    cost_label:string ->
    bound_label:string ->
    sub:('cost -> 'cost -> 'cost) ->
    bound:'cost ->
    cost:'cost option ->
    'a result ->
    'cost provenance

  (** Map the cost type of a provenance (labels and attempts unchanged):
      how the registry lifts a model-specific provenance ([int] slots or
      rational busy time) into the shared objective type. *)
  val map_provenance : ('a -> 'b) -> 'a provenance -> 'b provenance

  (** The ticks of a provenance's attempts, added up: what a cascade
      spent over its fresh per-tier budgets. *)
  val spent : 'cost provenance -> int

  (** One [cascade: tier ...] line per attempt, then a final
      [provenance: tier=<w> <cost_label>=<c> <bound_label>=<b> gap=<g>]
      line (or [... no-answer <bound_label>=<b>] without an answer). *)
  val pp_provenance :
    pp_cost:(Format.formatter -> 'cost -> unit) ->
    Format.formatter ->
    'cost provenance ->
    unit

  (** Provenance as a JSON object (winner, attempts, cost, bound, gap)
      for the [--format json] telemetry document. *)
  val provenance_to_json : cost_to_json:('cost -> Obs.Json.t) -> 'cost provenance -> Obs.Json.t
end
