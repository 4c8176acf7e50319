(** The solver catalogue: every solver of [lib/active] and [lib/busy],
    as one immutable list. The tables live beside this module
    ([active_solvers.ml], [busy_solvers.ml]); the CLI, bench, fuzz
    oracle, serve and sim resolve solvers from here instead of
    hand-rolled dispatch. Nothing registers at run time, so the list is
    the same in every executable and on every domain.

    All query results are deterministically ordered — by kind (model
    order), then name — so golden outputs built on the registry are
    stable. [test_registry] checks that no (kind, name) pair repeats. *)

(** Every solver, sorted by (kind, name). *)
val all : Solver.t list

val find : Instance.kind -> string -> Solver.t option

(** Raises {!Solver.Unsupported} with the valid-name list when absent. *)
val find_exn : Instance.kind -> string -> Solver.t

(** [run s inst] is [s.solve inst] with the answer checked: a [Solved]
    result's [Opened] witness on a [Slotted] instance must pass
    {!Active.Solution.verify}, and its [Packing] on an [Interval]
    instance {!Busy.Bundle.check}. A witness that fails raises
    {!Solver.Bad_result} ["invalid solution: ..."] or
    ["invalid packing: ..."]; a valid answer is returned unchanged.
    The CLI and serve answer through [run]. The fuzz oracle,
    [Sim.Rolling] and the bench call [s.solve] directly: the oracle
    checks witnesses itself under its own failure names, and Rolling's
    replay re-checks every slot it commits. *)
val run :
  Solver.t ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  ?params:(string * string) list ->
  Instance.t ->
  Result.t

(** Solver names for a kind, sorted. *)
val names : Instance.kind -> string list

(** Solvers of a kind, sorted by name. *)
val of_kind : Instance.kind -> Solver.t list

(** Exact solvers of a kind (non-composite), sorted by (rank, name). *)
val exact : Instance.kind -> Solver.t list

(** Approximation solvers of a kind (non-composite, offline), sorted
    worst ratio first, then (rank, name) — the order the differential
    oracle and the bench survey tables iterate. *)
val approx : Instance.kind -> Solver.t list
