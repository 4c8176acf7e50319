(* Graceful degradation for the busy-time model: exact set-partition
   search, then GreedyTracking (3-approximation, Thm 5), each under a
   fresh fuel budget. The tier labels are the historical cascade
   vocabulary, which the registry repeats as its [cascade_tier] display
   data. GreedyTracking is polynomial and ignores its budget, so the
   cascade always returns a packing and needs no tier after it. The
   provenance reports the gap to the best Section-4.1 lower bound (mass
   / span / demand profile), which bounds how far the degraded answer
   can be from optimal. *)

module Q = Rational
module B = Workload.Bjob

type provenance = Q.t Budget.Cascade.provenance

let tiers ~obs ~g jobs =
  [
    ( "exact",
      fun b ->
        match Exact.solve ~budget:b ~obs ~g jobs with
        | Budget.Complete p -> Some p
        | Budget.Exhausted _ -> raise Budget.Out_of_fuel );
    ("greedy-tracking", fun _ -> Some (Greedy_tracking.solve ~obs ~g jobs));
  ]

let solve ?(obs = Obs.null) ?deadline ~limit ~g jobs =
  List.iter
    (fun (j : B.t) -> if not (B.is_interval j) then invalid_arg "Cascade.solve: flexible job")
    jobs;
  let r = Budget.Cascade.run ~obs ?deadline ~limit (tiers ~obs ~g jobs) in
  let prov =
    Budget.Cascade.provenance ~cost_label:"busy" ~bound_label:"lower-bound" ~sub:Q.sub
      ~bound:(Bounds.best ~g jobs)
      ~cost:(Option.map Bundle.total_busy r.Budget.Cascade.value)
      r
  in
  (r.Budget.Cascade.value, prov)

let pp_cost fmt q = Format.pp_print_string fmt (Q.to_string q)
let pp_provenance fmt p = Budget.Cascade.pp_provenance ~pp_cost fmt p
