(* LP-based branch and bound for the active-time integer program - the
   OR-style exact solver, complementing {!Exact}'s combinatorial
   flow-pruned search. At every node some slots are fixed open/closed and
   LP1 is re-solved with the corresponding bounds:

   - LP infeasible            -> prune;
   - ceil(LP value) >= best   -> prune (active time is integral);
   - LP solution integral     -> new incumbent (an integral y admits an
                                 integral schedule by flow integrality);
   - otherwise branch on a most-fractional slot, 'open' branch first.

   The incumbent is seeded with a minimal feasible solution. E16 compares
   nodes and work against {!Exact.branch_and_bound}. *)

module S = Workload.Slotted
module Q = Rational

type stats = { nodes : int; lp_solves : int }

let src = Logs.Src.create "abt.ilp" ~doc:"LP-based branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

let apply_fixings m y_vars ~fixing =
  List.iter
    (fun (s, yv) ->
      match fixing s with
      | Some true -> Lp.set_bounds m yv ~lower:Q.one ~upper:(Some Q.one)
      | Some false -> Lp.set_bounds m yv ~lower:Q.zero ~upper:(Some Q.zero)
      | None -> Lp.set_bounds m yv ~lower:Q.zero ~upper:(Some Q.one))
    y_vars

(* Solve LP1 with per-slot fixings: [fixing slot = Some true/false] pins
   y to 1/0. Returns the objective and the y values, or None when
   infeasible. [rule] selects the simplex pricing rule (ablation). *)
let solve_lp ?(rule = Lp.Dantzig_with_fallback) ?obs (inst : S.t) ~fixing =
  let m, y_vars = Lp_model.build_lp1 inst in
  apply_fixings m y_vars ~fixing;
  match Lp.solve ~rule ?obs m with
  | Lp.Infeasible -> None
  | Lp.Unbounded -> assert false
  | Lp.Optimal sol -> Some (Lp.objective_value sol, List.map (fun (s, yv) -> (s, Lp.value sol yv)) y_vars)

let solve ?(engine = Lp.default_engine) ?budget ?(obs = Obs.null) (inst : S.t) =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Obs.span obs "active.ilp" @@ fun () ->
  match Minimal.solve ~obs inst Minimal.Right_to_left with
  | None -> Budget.Complete None
  | Some seed ->
      let best = ref (Solution.cost seed) in
      let best_slots = ref seed.Solution.open_slots in
      let nodes = ref 0 and lp_solves = ref 0 in
      (* One LP1 model for the whole tree: each node rewrites the y
         bounds and re-solves warm from its parent's optimal basis, so
         the simplex re-enters phase 2 (or a short dual repair) instead
         of re-running phase 1 from the start. *)
      let lp1, y_vars = Lp_model.build_lp1 inst in
      (* fixings as an assoc list slot -> bool *)
      let rec branch fixed warm =
        Budget.tick budget;
        incr nodes;
        let fixing s = List.assoc_opt s fixed in
        incr lp_solves;
        apply_fixings lp1 y_vars ~fixing;
        match Lp.solve ~engine ?warm ~budget ~obs lp1 with
        | Lp.Unbounded -> assert false
        | Lp.Infeasible -> ()
        | Lp.Optimal sol ->
            let value = Lp.objective_value sol in
            let ys = List.map (fun (s, yv) -> (s, Lp.value sol yv)) y_vars in
            let warm' = Lp.basis sol in
            let lb = Q.ceil_int value in
            if lb < !best then begin
              (* most fractional undecided slot *)
              let fractional =
                List.filter_map
                  (fun (s, v) ->
                    if Q.is_integer v then None
                    else Some (s, Q.abs (Q.sub v Q.half)))
                  ys
              in
              match fractional with
              | [] ->
                  (* integral LP solution: candidate incumbent *)
                  let open_slots = List.filter_map (fun (s, v) -> if Q.equal v Q.one then Some s else None) ys in
                  let cost = List.length open_slots in
                  if cost < !best then begin
                    best := cost;
                    best_slots := open_slots;
                    Log.debug (fun m -> m "incumbent %d" cost)
                  end
              | _ ->
                  let s, _ =
                    List.fold_left (fun (bs, bd) (s, d) -> if Q.compare d bd < 0 then (s, d) else (bs, bd))
                      (List.hd fractional) fractional
                  in
                  branch ((s, true) :: fixed) warm';
                  branch ((s, false) :: fixed) warm'
            end
      in
      let finish () =
        Obs.add obs "active.ilp.nodes" !nodes;
        Obs.add obs "active.ilp.lp_solves" !lp_solves;
        Option.map
          (fun sol -> (sol, { nodes = !nodes; lp_solves = !lp_solves }))
          (Solution.of_open_slots inst ~open_slots:!best_slots)
      in
      (try
         branch [] None;
         Log.info (fun m -> m "ILP: %d nodes, %d LP solves, optimum %d" !nodes !lp_solves !best);
         Budget.Complete (finish ())
       with Budget.Out_of_fuel ->
         Log.info (fun m -> m "ILP: out of fuel after %d nodes, incumbent %d" !nodes !best);
         Budget.Exhausted { spent = Budget.spent budget; incumbent = finish () })


let exact (inst : S.t) =
  match solve ~budget:(Budget.unlimited ()) inst with
  | Budget.Complete r -> r
  | Budget.Exhausted _ -> assert false (* unlimited fuel never exhausts *)

let optimum inst = Option.map (fun (sol, _) -> Solution.cost sol) (exact inst)
