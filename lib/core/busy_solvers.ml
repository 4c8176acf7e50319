(* Every busy-time solver behind the Solver seam. As in
   active_solvers.ml, the wrappers adapt types only; they add no
   telemetry, so registry-routed calls are observationally identical to
   direct module calls. *)

open Busy
module Q = Rational
module I = Instance
module R = Result
module Sv = Solver

(* [Solver.make] checks the kind before a wrapper or a restriction
   guard runs, so each sees an instance of its own busy kind *)
let busy = function
  | I.Interval { g; jobs } | I.Flexible { g; jobs } | I.Preemptive { g; jobs } -> (g, jobs)
  | I.Slotted _ -> invalid_arg "Busy_solvers.busy: an active-slotted instance"

let packing ?note p = R.solved ?note ~witness:(R.Packing p) (R.Busy (Bundle.total_busy p))

let plain f ?budget:_ ?obs:_ ?params:_ inst =
  let g, jobs = busy inst in
  packing (f ~g jobs)

let metered f ?budget:_ ?obs ?params:_ inst =
  let g, jobs = busy inst in
  packing (f ?obs ~g jobs)

(* a restriction guard: [None] iff the solver's special case applies *)
let requires pred why inst = if pred (snd (busy inst)) then None else Some why

let placement_of_params params =
  match Option.bind params (List.assoc_opt "placement") with
  | None | Some "greedy" -> Pipeline.Greedy_placement
  | Some "exact" -> Pipeline.Exact_placement
  | Some o -> raise (Sv.Unsupported ("unknown placement " ^ o ^ " (greedy|exact)"))

let pipeline algorithm ?budget:_ ?obs ?params inst =
  let g, jobs = busy inst in
  let _, p = Pipeline.run ?obs ~g ~placement:(placement_of_params params) ~algorithm jobs in
  packing p

let interval_solvers =
  [
    Sv.make ~name:"first-fit" ~kind:I.Busy_interval ~quality:(Sv.Approx (Q.of_int 4))
      ~rank:3 ~paper:"§4.3 FirstFit baseline"
      ~impl:"Busy.First_fit"
      ~solve:(metered First_fit.solve) ();
    Sv.make ~name:"greedy-tracking" ~kind:I.Busy_interval ~quality:(Sv.Approx (Q.of_int 3))
      ~cascade_tier:(1, "greedy-tracking") ~rank:2 ~paper:"Thm 5" ~impl:"Busy.Greedy_tracking"
      ~solve:(metered Greedy_tracking.solve) ();
    Sv.make ~name:"two-approx" ~kind:I.Busy_interval ~quality:(Sv.Approx Q.two) ~rank:0
      ~paper:"Thm 3/8 (AB flow)" ~impl:"Busy.Two_approx"
      ~solve:(metered Two_approx.solve) ();
    Sv.make ~name:"kumar-rudra" ~kind:I.Busy_interval ~quality:(Sv.Approx Q.two) ~rank:1
      ~paper:"Thm 3/8 (KR levels)" ~impl:"Busy.Kumar_rudra"
      ~solve:(plain Kumar_rudra.solve) ();
    Sv.make ~name:"exact" ~kind:I.Busy_interval ~quality:Sv.Exact ~supports_budget:true
      ~cascade_tier:(0, "exact") ~rank:0
      ~exhausted_hint:"exact search ran out of budget" ~paper:"methodology (E16)"
      ~impl:"Busy.Exact"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        let g, jobs = busy inst in
        if budget = None && List.length jobs > 14 then
          raise (Sv.Unsupported "exact without --budget is capped at 14 jobs");
        match Exact.solve ?budget ?obs ~g jobs with
        | Budget.Complete p -> packing p
        | Budget.Exhausted { spent; incumbent } ->
            R.exhausted
              ~objective:(R.Busy (Bundle.total_busy incumbent))
              ~witness:(R.Packing incumbent) ~spent ())
      ();
    Sv.make ~name:"auto" ~kind:I.Busy_interval ~quality:(Sv.Approx Q.two) ~composite:true
      ~rank:4 ~paper:"E11 structure dispatch" ~impl:"Busy.Auto"
      ~solve:(fun ?budget:_ ?obs ?params:_ inst ->
        let g, jobs = busy inst in
        let structure, p = Auto.solve ?obs ~g jobs in
        packing ~note:("detected structure: " ^ structure) p)
      ();
    Sv.make ~name:"laminar" ~kind:I.Busy_interval ~quality:Sv.Exact ~rank:2
      ~restriction:"laminar windows"
      ~guard:(requires Laminar.is_laminar "laminar algorithm requires a laminar instance")
      ~paper:"§1 laminar (Khandekar)" ~impl:"Busy.Laminar" ~solve:(plain Laminar.exact) ();
    Sv.make ~name:"proper-clique" ~kind:I.Busy_interval ~quality:Sv.Exact ~rank:3
      ~restriction:"proper clique instances"
      ~guard:
        (requires
           (fun jobs -> Special.is_proper jobs && Special.is_clique jobs)
           "proper-clique algorithm requires a proper clique instance")
      ~paper:"footnote 1" ~impl:"Busy.Special" ~solve:(plain Special.proper_clique_exact) ();
    Sv.make ~name:"proper-greedy" ~kind:I.Busy_interval ~quality:(Sv.Approx Q.two) ~rank:5
      ~restriction:"proper instances (no nested windows)"
      ~guard:(requires Special.is_proper "proper-greedy requires a proper instance")
      ~paper:"footnote 1" ~impl:"Busy.Special" ~solve:(plain Special.proper_greedy) ();
    Sv.make ~name:"clique-greedy" ~kind:I.Busy_interval ~quality:(Sv.Approx Q.two) ~rank:6
      ~restriction:"clique instances (pairwise overlapping)"
      ~guard:(requires Special.is_clique "clique-greedy requires a clique instance")
      ~paper:"footnote 1" ~impl:"Busy.Special" ~solve:(plain Special.clique_greedy) ();
    Sv.make ~name:"online-first-fit" ~kind:I.Busy_interval ~quality:Sv.Heuristic ~online:true
      ~rank:0 ~paper:"§1.3 Shalom et al." ~impl:"Busy.Online"
      ~solve:(plain Online.first_fit) ();
    Sv.make ~name:"online-bucketed" ~kind:I.Busy_interval ~quality:Sv.Heuristic ~online:true
      ~rank:1 ~paper:"§1.3 Shalom et al." ~impl:"Busy.Online"
      ~solve:(plain Online.bucketed_first_fit) ();
    Sv.make ~name:"cascade" ~kind:I.Busy_interval ~quality:(Sv.Approx (Q.of_int 3))
      ~supports_budget:true ~composite:true ~paper:"DESIGN §5a" ~impl:"Busy.Cascade"
      ~solve:(fun ?budget ?obs ?params:_ inst ->
        let g, jobs = busy inst in
        let limit =
          match budget with Some b when Budget.is_limited b -> Budget.remaining b | _ -> 100_000
        in
        let deadline = Option.bind budget Budget.probe in
        let p, prov = Cascade.solve ?obs ?deadline ~limit ~g jobs in
        let provenance = Budget.Cascade.map_provenance (fun c -> R.Busy c) prov in
        match p with
        | Some p ->
            R.solved ~provenance ~witness:(R.Packing p) (R.Busy (Bundle.total_busy p))
        | None -> R.infeasible ~provenance ())
      ();
  ]

let pipeline_solvers =
  [
    Sv.make ~name:"gt-pipeline" ~kind:I.Busy_flexible ~quality:(Sv.Approx (Q.of_int 3)) ~rank:0
      ~paper:"Thm 5 (§4.3)" ~impl:"Busy.Pipeline"
      ~solve:(pipeline Pipeline.Greedy_tracking) ();
    Sv.make ~name:"2a-pipeline" ~kind:I.Busy_flexible ~quality:(Sv.Approx (Q.of_int 4)) ~rank:1
      ~paper:"Thm 10" ~impl:"Busy.Pipeline"
      ~solve:(pipeline Pipeline.Two_approx) ();
    Sv.make ~name:"ff-pipeline" ~kind:I.Busy_flexible ~quality:(Sv.Approx (Q.of_int 4)) ~rank:2
      ~paper:"§4.3 prior 4-approx" ~impl:"Busy.Pipeline"
      ~solve:(pipeline Pipeline.First_fit) ();
  ]

let preemptive_solvers =
  [
    Sv.make ~name:"preemptive" ~kind:I.Busy_preemptive ~quality:(Sv.Approx Q.two)
      ~preemptive:true ~rank:0 ~paper:"Thm 7" ~impl:"Busy.Preemptive"
      ~solve:(fun ?budget:_ ?obs:_ ?params:_ inst ->
        let g, jobs = busy inst in
        let cost, sol, _ = Preemptive.bounded ~g jobs in
        (match Preemptive.check jobs sol with
        | Some problem -> raise (Sv.Bad_result problem)
        | None -> ());
        R.solved (R.Busy cost))
      ();
    Sv.make ~name:"preemptive-unbounded" ~kind:I.Busy_preemptive ~quality:Sv.Exact
      ~preemptive:true ~rank:1 ~paper:"Thm 6" ~impl:"Busy.Preemptive"
      ~solve:(fun ?budget:_ ?obs:_ ?params:_ inst ->
        let _, jobs = busy inst in
        let sol = Preemptive.unbounded jobs in
        (match Preemptive.check jobs sol with
        | Some problem -> raise (Sv.Bad_result problem)
        | None -> ());
        R.solved (R.Busy sol.Preemptive.cost))
      ();
  ]

let solvers = interval_solvers @ pipeline_solvers @ preemptive_solvers
