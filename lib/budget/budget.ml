(* Deterministic fuel budgets: a mutable tick counter against a fixed
   limit. Ticks count solver events (search nodes, simplex pivots), never
   wall-clock time, so budgeted runs are bit-for-bit reproducible.

   A budget may additionally carry a deadline probe — an arbitrary
   [unit -> bool] the budget polls every [interval] ticks from inside
   {!tick}. The probe is how wall-clock deadlines compose with fuel:
   the clock stays outside this library (the caller closes over
   [Unix.gettimeofday], or a fake clock in tests), every existing
   [tick] call site becomes a deadline check site for free, and a
   budget without a probe behaves exactly as before. *)

type t = {
  limit : int;
  mutable used : int;
  mutable probe : (unit -> bool) option;
  mutable probe_interval : int;
  mutable next_probe : int;
}

exception Out_of_fuel
exception Deadline_exceeded

let unlimited () =
  { limit = max_int; used = 0; probe = None; probe_interval = 0; next_probe = 0 }

let limited n =
  if n < 0 then invalid_arg "Budget.limited: negative limit";
  { limit = n; used = 0; probe = None; probe_interval = 0; next_probe = 0 }

let set_deadline ?(interval = 256) b probe =
  if interval < 1 then invalid_arg "Budget.set_deadline: interval must be positive";
  b.probe <- Some probe;
  b.probe_interval <- interval;
  (* first probe on the very next tick, so an already-expired deadline
     aborts as soon as the solver does any metered work at all *)
  b.next_probe <- b.used

let probe b = b.probe

let expired b = match b.probe with None -> false | Some p -> p ()

let tick b =
  if b.used >= b.limit then raise Out_of_fuel;
  b.used <- b.used + 1;
  match b.probe with
  | Some p when b.used > b.next_probe ->
      b.next_probe <- b.used + b.probe_interval;
      if p () then raise Deadline_exceeded
  | _ -> ()

let spent b = b.used
let remaining b = if b.limit = max_int then max_int else b.limit - b.used
let is_limited b = b.limit <> max_int
let exhausted b = b.used >= b.limit

type 'a outcome = Complete of 'a | Exhausted of { spent : int; incumbent : 'a }

module Cascade = struct
  type status = Answered | No_answer | Tier_exhausted | Deadline

  type attempt = { tier : string; ticks : int; status : status }

  type 'a result = {
    value : 'a option;
    winner : string option;
    attempts : attempt list;
  }

  let run ?(obs = Obs.null) ?deadline ~limit tiers =
    let attempts = ref [] in
    let record tier ticks status =
      Obs.incr obs "cascade.attempts";
      Obs.add obs "cascade.ticks" ticks;
      attempts := { tier; ticks; status } :: !attempts
    in
    let rec go = function
      | [] -> { value = None; winner = None; attempts = List.rev !attempts }
      | (name, solve) :: rest -> (
          let b = limited limit in
          (match deadline with Some p -> set_deadline b p | None -> ());
          match Obs.span obs ("cascade." ^ name) (fun () -> solve b) with
          | Some v ->
              record name (spent b) Answered;
              { value = Some v; winner = Some name; attempts = List.rev !attempts }
          | None ->
              record name (spent b) No_answer;
              { value = None; winner = Some name; attempts = List.rev !attempts }
          | exception Out_of_fuel ->
              record name (spent b) Tier_exhausted;
              Obs.incr obs "cascade.tiers_exhausted";
              go rest
          | exception Deadline_exceeded ->
              (* the wall clock is gone for every tier, not just this
                 one: record the aborted attempt and stop the ladder *)
              record name (spent b) Deadline;
              Obs.incr obs "cascade.deadline_hits";
              { value = None; winner = None; attempts = List.rev !attempts })
    in
    go tiers

  let pp_attempt fmt a =
    let verdict =
      match a.status with
      | Answered -> "answered"
      | No_answer -> "no answer (definitive)"
      | Tier_exhausted -> "exhausted"
      | Deadline -> "deadline expired"
    in
    Format.fprintf fmt "tier %s: %s after %d ticks" a.tier verdict a.ticks

  (* One provenance shape for every cascade, with the cost type (int
     active slots vs. rational busy time) as a parameter; the label
     strings let a single formatter reproduce each model's historical
     output byte for byte. *)
  type 'cost provenance = {
    winner : string option;
    attempts : attempt list;
    cost : 'cost option;
    bound : 'cost;
    gap : 'cost option;
    cost_label : string;
    bound_label : string;
  }

  let provenance ~cost_label ~bound_label ~sub ~bound ~cost (r : 'a result) =
    {
      winner = r.winner;
      attempts = r.attempts;
      cost;
      bound;
      gap = Option.map (fun c -> sub c bound) cost;
      cost_label;
      bound_label;
    }

  let map_provenance f p =
    {
      winner = p.winner;
      attempts = p.attempts;
      cost = Option.map f p.cost;
      bound = f p.bound;
      gap = Option.map f p.gap;
      cost_label = p.cost_label;
      bound_label = p.bound_label;
    }

  let spent p = List.fold_left (fun acc a -> acc + a.ticks) 0 p.attempts

  let pp_provenance ~pp_cost fmt p =
    List.iter (fun a -> Format.fprintf fmt "cascade: %a@." pp_attempt a) p.attempts;
    let tier = Option.value p.winner ~default:"none" in
    match (p.cost, p.gap) with
    | Some c, Some g ->
        Format.fprintf fmt "provenance: tier=%s %s=%a %s=%a gap=%a@." tier p.cost_label pp_cost c
          p.bound_label pp_cost p.bound pp_cost g
    | _ ->
        Format.fprintf fmt "provenance: tier=%s no-answer %s=%a@." tier p.bound_label pp_cost
          p.bound

  let provenance_to_json ~cost_to_json p =
    let attempt_to_json a =
      Obs.Json.Obj
        [ ("tier", Obs.Json.String a.tier);
          ("ticks", Obs.Json.Int a.ticks);
          ( "status",
            Obs.Json.String
              (match a.status with
              | Answered -> "answered"
              | No_answer -> "no-answer"
              | Tier_exhausted -> "exhausted"
              | Deadline -> "deadline") ) ]
    in
    let opt f = function None -> Obs.Json.Null | Some v -> f v in
    Obs.Json.Obj
      [ ("winner", opt (fun w -> Obs.Json.String w) p.winner);
        ("attempts", Obs.Json.List (List.map attempt_to_json p.attempts));
        (p.cost_label, opt cost_to_json p.cost);
        (p.bound_label, cost_to_json p.bound);
        ("gap", opt cost_to_json p.gap) ]
end
