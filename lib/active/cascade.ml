(* Graceful degradation for the active-time model: run the solver tiers
   in capability order — exact branch and bound pruned against
   max(ceil(P/g), OPT at g = infinity) and, past that, ceil(LP1), then
   LP rounding, then the minimal-feasible greedy — each under a
   fresh fuel budget, and return the first answer together with a
   provenance record. The tier labels are the historical cascade
   vocabulary, which the registry repeats as its [cascade_tier] display
   data. The last tier is polynomial and ignores its budget, so the
   cascade always terminates with an answer on feasible instances. *)

module S = Workload.Slotted

type provenance = int Budget.Cascade.provenance

(* ceil(LP1), the floor the exact tier is given: its pivots tick the
   tier's budget [b], and an LP1 too large to separate (Scale_overflow)
   gives no floor. LP1 is never infeasible here, since the search asks
   only once it holds a feasible seed. *)
let lp1_floor ~obs b lp1 () =
  match Lp_model.resolve ~budget:b ~obs (Lazy.force lp1) with
  | Some lp -> Rational.ceil_int lp.Lp_model.cost
  | None | (exception Lp_model.Scale_overflow) -> 0

(* A definitive answer (or settled infeasibility) ends the ladder;
   exhaustion passes the baton to the next tier. One LP1 serves the run,
   built on first use. The exact tier asks for ceil(LP1) only when its
   built-in floor, max(ceil(P/g), OPT at g = infinity), leaves a gap
   below the seed, so a run whose seed meets that floor builds no LP1
   and no second network. When the exact tier has solved LP1 for its
   floor and then exhausts, the rounding tier resumes it on its own
   budget instead of solving it again from cold. *)
let tiers ~obs (inst : S.t) =
  let lp1 = lazy (Lp_model.create inst) in
  [
    ( "exact",
      fun b ->
        match Exact.solve ~budget:b ~floor:(lp1_floor ~obs b lp1) ~obs inst with
        | Budget.Complete r -> r
        | Budget.Exhausted _ -> raise Budget.Out_of_fuel );
    ("lp-rounding", fun b -> Option.map fst (Rounding.solve ~lp1:(Lazy.force lp1) ~budget:b ~obs inst));
    ("minimal", fun _ -> Minimal.solve ~obs inst Minimal.Right_to_left);
  ]

let solve ?(obs = Obs.null) ?deadline ~limit (inst : S.t) =
  let r = Budget.Cascade.run ~obs ?deadline ~limit (tiers ~obs inst) in
  let prov =
    Budget.Cascade.provenance ~cost_label:"cost" ~bound_label:"mass-bound" ~sub:( - )
      ~bound:(S.mass_lower_bound inst)
      ~cost:(Option.map Solution.cost r.Budget.Cascade.value)
      r
  in
  (r.Budget.Cascade.value, prov)

let pp_provenance fmt p = Budget.Cascade.pp_provenance ~pp_cost:Format.pp_print_int fmt p
