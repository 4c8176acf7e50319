(** The "result out" half of the solver seam. Every registered solver
    returns this record: a status, the objective value in the model's
    cost type, a checkable schedule witness, an optional human note, and
    — for composite solvers — the {!Budget.Cascade} provenance of the
    degradation ladder. Telemetry is not carried here: solvers thread the
    caller's {!Obs.t} recorder directly, so counters and spans accumulate
    in the caller's document exactly as they did before the registry. *)

(** Objective value. Active time is an integral slot count; busy time an
    exact rational; [Value] is a fractional bound (the LP relaxation)
    that witnesses no schedule. *)
type objective = Slots of int | Busy of Rational.t | Value of Rational.t

(** [Slots n] prints as the int, the rationals via {!Rational.to_string}. *)
val objective_to_string : objective -> string

(** [Slots n] as a JSON int, the rationals as JSON strings of
    {!objective_to_string}: the one encoding the CLI's, serve's and
    [atbt sim]'s JSON documents share. *)
val objective_to_json : objective -> Obs.Json.t

(** A cascade's provenance via {!Budget.Cascade.provenance_to_json} with
    {!objective_to_json}; [None] (a solver that is no cascade) is
    [null]. *)
val provenance_to_json : objective Budget.Cascade.provenance option -> Obs.Json.t

(** A schedule the model's verifier can check: the open-slot set plus
    job assignment of an active-time solution, or a busy-time packing
    (bundles of interval jobs). Bound-only solvers return no witness. *)
type witness =
  | Opened of { open_slots : int list; schedule : Workload.Slotted.schedule }
  | Packing of Workload.Bjob.t list list

type status =
  | Solved  (** definitive answer; [objective] is set *)
  | Infeasible  (** definitive: no schedule exists *)
  | Exhausted of { spent : int }
      (** the fuel budget ran out after [spent] ticks; [objective] and
          [witness] carry the best incumbent when one exists *)

type t = {
  status : status;
  objective : objective option;
  witness : witness option;
  note : string option;  (** e.g. the structure detected by [auto] *)
  provenance : objective Budget.Cascade.provenance option;
}

val solved :
  ?note:string ->
  ?provenance:objective Budget.Cascade.provenance ->
  ?witness:witness ->
  objective ->
  t

val infeasible : ?provenance:objective Budget.Cascade.provenance -> unit -> t
val exhausted :
  ?objective:objective ->
  ?witness:witness ->
  ?provenance:objective Budget.Cascade.provenance ->
  spent:int ->
  unit ->
  t
