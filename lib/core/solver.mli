(** A first-class solver: the capability-typed record {!Registry} lists
    for every algorithm in [lib/active] and [lib/busy]. The [solve]
    closure calls the module's existing [solve ?budget ?obs] entry point
    once the instance passes the [guard] — the record adds the metadata
    (problem kind, quality, capability flags, cascade tier, paper
    reference) that the CLI, bench and fuzz oracle previously duplicated
    by hand. *)

(** Raised by [solve] when a precondition fails: wrong instance kind, a
    structural restriction ([unit], [laminar], ...) not met, or a missing
    budget where one is mandatory. The first two are the [guard]'s
    verdict, raised before the wrapped solver runs. The CLI maps it to a
    usage error. *)
exception Unsupported of string

(** Raised when an answer fails its verifier: by {!Registry.run} for a
    witness the model's verifier rejects, and by solvers that self-check
    (the preemptive ones). The CLI maps it to an internal error. *)
exception Bad_result of string

(** Solution quality: provably optimal, within a proven factor of
    optimal, a lower bound only (no schedule), or no proven offline
    ratio (the online algorithms, whose competitive ratio depends
    on [g]). *)
type quality = Exact | Approx of Rational.t | Bound | Heuristic

val quality_to_string : quality -> string

type t = {
  name : string;  (** CLI name, unique per kind ([--algorithm <name>]) *)
  kind : Instance.kind;
  quality : quality;
  online : bool;
  preemptive : bool;
  supports_budget : bool;  (** accepts [?budget] and reports exhaustion *)
  composite : bool;  (** dispatches to other registered solvers *)
  restriction : string option;
      (** human description of a structural precondition, when any *)
  guard : Instance.t -> string option;
      (** [None] when the solver applies to the instance; [Some why]
          otherwise: first the kind, then the solver's restriction, if
          any. [solve] raises {!Unsupported} [why] in the latter case
          before the solver runs; callers that iterate the registry use
          [guard] to skip. *)
  cascade_tier : (int * string) option;
      (** position and tier label in the kind's degradation ladder, as
          display data: [Active.Cascade] and [Busy.Cascade] call their
          tiers directly, and [test_registry] checks these entries
          against the tiers their provenance reports. The labels are the
          historical cascade vocabulary (["lp-rounding"], not the CLI
          name ["rounding"]) pinned by tests and docs *)
  rank : int;  (** display/tie-break order among equal-quality solvers *)
  exhausted_hint : string;
      (** message stem when the budget runs out, e.g.
          ["exact search ran out of budget"] *)
  paper : string;  (** paper artifact, matching PAPER_MAP.md *)
  impl : string;  (** implementing module, e.g. ["Active.Exact"] *)
  solve :
    ?budget:Budget.t ->
    ?obs:Obs.t ->
    ?params:(string * string) list ->
    Instance.t ->
    Result.t;
}

(** All flags default to [false] / [None] / rank [max_int];
    [exhausted_hint] defaults to ["search ran out of budget"].

    The record's [guard] checks the instance kind
    (["NAME expects a KIND instance, got OTHER"]) and then, on an instance
    of [kind], the given [?guard], which states only the restriction. The
    record's [solve] raises {!Unsupported} with the guard's message
    before it calls the given [solve], so that one may assume an
    instance of [kind] that meets its restriction. *)
val make :
  name:string ->
  kind:Instance.kind ->
  quality:quality ->
  ?online:bool ->
  ?preemptive:bool ->
  ?supports_budget:bool ->
  ?composite:bool ->
  ?restriction:string ->
  ?guard:(Instance.t -> string option) ->
  ?cascade_tier:int * string ->
  ?rank:int ->
  ?exhausted_hint:string ->
  paper:string ->
  impl:string ->
  solve:
    (?budget:Budget.t ->
    ?obs:Obs.t ->
    ?params:(string * string) list ->
    Instance.t ->
    Result.t) ->
  unit ->
  t

(** Comma-joined capability tokens in a fixed order
    ([online], [preemptive], [budget], [composite],
    [tier:<i>], [restricted]) — the FLAGS column of [--list-solvers];
    ["-"] when none apply. *)
val flags_to_string : t -> string
