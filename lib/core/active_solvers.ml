(* Every active-time solver, wrapped behind the Solver seam. The
   wrappers only adapt types — Instance.t in, Result.t out — around the
   modules' existing [solve ?budget ?obs] entry points; they add no
   telemetry of their own, so counters and spans through the registry
   are identical to direct calls (the CLI goldens pin this). *)

open Active
module Q = Rational
module I = Instance
module R = Result
module Sv = Solver

(* [Solver.make] checks the kind before a wrapper or a restriction
   guard runs *)
let slotted = function
  | I.Slotted s -> s
  | _ -> invalid_arg "Active_solvers.slotted: a busy instance"

let opened (sol : Solution.t) =
  R.Opened { open_slots = sol.Solution.open_slots; schedule = sol.Solution.schedule }

let of_solution = function
  | Some sol -> R.solved ~witness:(opened sol) (R.Slots (Solution.cost sol))
  | None -> R.infeasible ()

let of_outcome = function
  | Budget.Complete r -> of_solution r
  | Budget.Exhausted { spent; incumbent } ->
      R.exhausted
        ?objective:(Option.map (fun s -> R.Slots (Solution.cost s)) incumbent)
        ?witness:(Option.map opened incumbent) ~spent ()

let order_of_params params =
  match Option.bind params (List.assoc_opt "order") with
  | None | Some "r2l" -> Minimal.Right_to_left
  | Some "l2r" -> Minimal.Left_to_right
  | Some o -> raise (Sv.Unsupported ("unknown order " ^ o ^ " (l2r|r2l)"))

let spent_of = function Some b -> Budget.spent b | None -> 0

(* --cascade historically took a raw tick limit, not a Budget.t; a
   limited budget's remaining fuel is that limit, and no budget means
   the historical 100k default. *)
let cascade_limit = function
  | Some b when Budget.is_limited b -> Budget.remaining b
  | _ -> 100_000

let solvers =
  [
    Sv.make ~name:"minimal" ~kind:I.Active_slotted ~quality:(Sv.Approx (Q.of_int 3))
      ~cascade_tier:(2, "minimal") ~rank:2 ~paper:"Thm 1" ~impl:"Active.Minimal"
      ~solve:(fun ?budget:_ ?obs ?params inst ->
        of_solution (Minimal.solve ?obs (slotted inst) (order_of_params params)))
      ();
    Sv.make ~name:"rounding" ~kind:I.Active_slotted ~quality:(Sv.Approx Q.two)
      ~supports_budget:true ~cascade_tier:(1, "lp-rounding") ~rank:1
      ~exhausted_hint:"budget exhausted inside the LP" ~paper:"Thm 2" ~impl:"Active.Rounding"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        let inst = slotted inst in
        try of_solution (Option.map fst (Rounding.solve ?budget ?obs inst))
        with Budget.Out_of_fuel -> R.exhausted ~spent:(spent_of budget) ())
      ();
    Sv.make ~name:"exact" ~kind:I.Active_slotted ~quality:Sv.Exact ~supports_budget:true
      ~cascade_tier:(0, "exact") ~rank:0 ~exhausted_hint:"exact search ran out of budget"
      ~paper:"methodology (E16)" ~impl:"Active.Exact"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        of_outcome (Exact.solve ?budget ?obs (slotted inst)))
      ();
    Sv.make ~name:"ilp" ~kind:I.Active_slotted ~quality:Sv.Exact ~supports_budget:true ~rank:1
      ~exhausted_hint:"LP-based search ran out of budget" ~paper:"methodology (E16)"
      ~impl:"Active.Ilp"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        of_outcome (Ilp.solve ?budget ?obs (slotted inst)))
      ();
    Sv.make ~name:"unit" ~kind:I.Active_slotted ~quality:Sv.Exact ~rank:2
      ~restriction:"unit-length jobs"
      ~guard:(fun inst ->
        if Unit_jobs.is_unit (slotted inst) then None
        else Some "unit algorithm requires unit-length jobs")
      ~paper:"§1.3 CGK unit jobs" ~impl:"Active.Unit_jobs"
      ~solve:(fun ?budget:_ ?obs:_ ?params:_ inst -> of_solution (Unit_jobs.solve (slotted inst)))
      ();
    Sv.make ~name:"lp-bound" ~kind:I.Active_slotted ~quality:Sv.Bound ~supports_budget:true
      ~exhausted_hint:"budget exhausted inside the LP" ~paper:"§3 LP1" ~impl:"Active.Lp_model"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        let inst = slotted inst in
        match Lp_model.solve ?budget ?obs inst with
        | Some lp -> R.solved (R.Value lp.Lp_model.cost)
        | None -> R.infeasible ()
        | exception Budget.Out_of_fuel -> R.exhausted ~spent:(spent_of budget) ())
      ();
    Sv.make ~name:"cascade" ~kind:I.Active_slotted ~quality:(Sv.Approx (Q.of_int 3))
      ~supports_budget:true ~composite:true ~paper:"DESIGN §5a" ~impl:"Active.Cascade"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        let inst = slotted inst in
        let deadline = Option.bind budget Budget.probe in
        let sol, prov = Cascade.solve ?obs ?deadline ~limit:(cascade_limit budget) inst in
        let provenance = Budget.Cascade.map_provenance (fun c -> R.Slots c) prov in
        match sol with
        | Some s -> R.solved ~provenance ~witness:(opened s) (R.Slots (Solution.cost s))
        | None -> R.infeasible ~provenance ())
      ();
  ]
