(* LP-based branch and bound for the active-time integer program - the
   OR-style exact solver, complementing {!Exact}'s combinatorial
   flow-pruned search. At every node some slots are fixed open/closed and
   LP1 is re-solved with the corresponding bounds:

   - LP infeasible            -> prune;
   - ceil(LP value) >= best   -> prune (active time is integral);
   - LP solution integral     -> new incumbent (an integral y admits an
                                 integral schedule by flow integrality);
   - otherwise branch on a most-fractional slot, 'open' branch first.

   The incumbent is seeded with a minimal feasible solution. The seed,
   the tree's separations and the returned schedule share the LP1's one
   G_feas. E16 compares nodes and work against {!Exact.branch_and_bound}. *)

module S = Workload.Slotted
module Q = Rational

let src = Logs.Src.create "abt.ilp" ~doc:"LP-based branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

let solve ?budget ?(obs = Obs.null) (inst : S.t) =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Obs.span obs "active.ilp" @@ fun () ->
  (* One LP1 for the whole tree: each node rewrites the y bounds and
     resumes from its parent's optimal basis (padded for the rows found
     since), so the simplex re-enters phase 2 or a short dual repair
     instead of re-running phase 1, and every cut row found anywhere in
     the tree stays for the rest of it. Its network also serves the
     seed, which reads its schedule before the first separation
     re-capacitates it, and the returned schedule. *)
  let lp1 = Lp_model.create inst in
  match Minimal.solve ~obs ~net:(Lp_model.network lp1) inst Minimal.Right_to_left with
  | None -> Budget.Complete None
  | Some seed ->
      let best = ref (Solution.cost seed) in
      let best_slots = ref seed.Solution.open_slots in
      let nodes = ref 0 in
      (* fixings as an assoc list slot -> bool *)
      let rec branch fixed from =
        Budget.tick budget;
        incr nodes;
        Lp_model.fix lp1 (fun s -> List.assoc_opt s fixed);
        match Lp_model.resolve ?from ~budget ~obs lp1 with
        | None -> ()
        | Some { Lp_model.cost = value; y = ys } ->
            let from' = Lp_model.basis lp1 in
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
                  branch ((s, true) :: fixed) from';
                  branch ((s, false) :: fixed) from'
            end
      in
      (* a node's cut loop may solve several times: count every solve *)
      let finish () =
        Obs.add obs "active.ilp.nodes" !nodes;
        Obs.add obs "active.ilp.lp_solves" (Lp_model.solves lp1);
        Solution.of_open_slots ~net:(Lp_model.network lp1) inst ~open_slots:!best_slots
      in
      (try
         branch [] None;
         Log.info (fun m -> m "ILP: %d nodes, %d LP solves, optimum %d" !nodes (Lp_model.solves lp1) !best);
         Budget.Complete (finish ())
       with Budget.Out_of_fuel ->
         Log.info (fun m -> m "ILP: out of fuel after %d nodes, incumbent %d" !nodes !best);
         Budget.Exhausted { spent = Budget.spent budget; incumbent = finish () })


let exact (inst : S.t) =
  match solve ~budget:(Budget.unlimited ()) inst with
  | Budget.Complete r -> r
  | Budget.Exhausted _ -> assert false (* unlimited fuel never exhausts *)

let optimum inst = Option.map Solution.cost (exact inst)
