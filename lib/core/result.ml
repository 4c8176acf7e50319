type objective = Slots of int | Busy of Rational.t | Value of Rational.t

let objective_to_string = function
  | Slots n -> string_of_int n
  | Busy q | Value q -> Rational.to_string q

let objective_to_json = function
  | Slots n -> Obs.Json.Int n
  | Busy q | Value q -> Obs.Json.String (Rational.to_string q)

let provenance_to_json = function
  | None -> Obs.Json.Null
  | Some p -> Budget.Cascade.provenance_to_json ~cost_to_json:objective_to_json p

type witness =
  | Opened of { open_slots : int list; schedule : Workload.Slotted.schedule }
  | Packing of Workload.Bjob.t list list

type status = Solved | Infeasible | Exhausted of { spent : int }

type t = {
  status : status;
  objective : objective option;
  witness : witness option;
  note : string option;
  provenance : objective Budget.Cascade.provenance option;
}

let solved ?note ?provenance ?witness objective =
  { status = Solved; objective = Some objective; witness; note; provenance }

let infeasible ?provenance () =
  { status = Infeasible; objective = None; witness = None; note = None; provenance }

let exhausted ?objective ?witness ?provenance ~spent () =
  { status = Exhausted { spent }; objective; witness; note = None; provenance }
