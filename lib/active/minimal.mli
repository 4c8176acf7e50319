(** Minimal feasible solutions (Section 2, Theorem 1): start from a
    feasible open-slot set and close slots while feasibility is preserved.
    Feasibility is monotone in the open set, so a single pass over any
    closing order reaches an inclusion-minimal set, and Theorem 1 bounds
    every minimal solution by [3 OPT] (tight on the Fig. 3 gadget).

    The closing order selects {e which} minimal solution is found; the
    directional orders are empirically optimal for unit jobs (see
    {!Unit_jobs}) while a shuffled order can land on strictly worse
    minimal sets. *)

type order =
  | Left_to_right
  | Right_to_left
  | Shuffled of int  (** seed *)

(** [minimalize inst ~start order] closes slots of [start] greedily.
    [None] when [start] itself is infeasible. [?oracle] selects the
    feasibility probe (default {!Feasibility.Incremental}: one warm
    {!Feasibility.Oracle} drives the whole closing pass); both modes take
    identical close/keep decisions and record identical
    [active.minimal.*] counters. The oracle and the returned schedule
    use [net] (default: a fresh {!Feasibility.network} of [inst]).
    Before a close probe runs a flow, two counting tests that every
    feasible set passes may settle it: [g (|open| - 1) >= P], and every
    job live at the slot keeps [p_j] open slots in its window. A slot
    that fails one stays open without a flow; the tests refuse only
    closures the flow would refuse, so the answer is the flow's. With
    [?obs], runs inside an [active.minimal] span and records
    [active.minimal.feasibility_checks] (every decision, those the
    tests settle included) / [active.minimal.closures]. *)
val minimalize :
  ?oracle:Feasibility.probe_mode ->
  ?obs:Obs.t ->
  ?net:Feasibility.network ->
  Workload.Slotted.t ->
  start:int list ->
  order ->
  Solution.t option

(** [solve inst order] minimalizes from all relevant slots open. [None]
    iff the instance is infeasible. *)
val solve :
  ?oracle:Feasibility.probe_mode ->
  ?obs:Obs.t ->
  ?net:Feasibility.network ->
  Workload.Slotted.t ->
  order ->
  Solution.t option

(** Definition 4: feasible, and closing any single slot breaks
    feasibility. *)
val is_minimal : Workload.Slotted.t -> open_slots:int list -> bool
