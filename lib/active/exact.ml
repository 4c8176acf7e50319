(* Exact optima for the active-time problem.

   The paper conjectures the problem NP-hard (Saha & Purohit later proved
   it, arXiv:2112.03255) and only compares against OPT analytically; the
   benches need OPT numerically, so we compute it by
   branch-and-bound over open/closed decisions per relevant slot with

     - monotone feasibility pruning (close a slot only while the remaining
       open-or-undecided set stays feasible), and
     - cost pruning against the incumbent, seeded with a minimal feasible
       solution, with the mass bound ceil(P/g) as a global floor, raised
       to the caller's [?floor] when one is given.

   The floor is a lower bound on the optimum that the caller has proven
   (the cascade's exact tier passes ceil(LP1)). It is asked for at most
   once, before the first node and only when the seed costs more than
   ceil(P/g) (a seed at the mass bound is optimal already), inside the
   [Out_of_fuel] handler: work it spends on the budget is counted, and
   its exhaustion returns the seed. A valid floor prunes a node only once
   it reaches the incumbent, which is then optimal; as the DFS takes only
   strictly cheaper incumbents, the same solution comes back, in fewer
   nodes, flow checks and ticks.

   The chosen-open set lives in an immutable Bitset over relevant-slot
   indices, so branching costs a few word operations instead of the list
   rebuilds of the original kernel. Feasibility probes go through a
   selectable [Feasibility.probe_mode]: the default drives ONE persistent
   incremental oracle for the whole search (close slot / re-augment /
   reopen on backtrack), the Rebuild mode reconstructs the flow network
   per probe. Both modes compute exact max flows, hence take identical
   branching decisions and report identical node / flow-check counters —
   the bench harness exploits that to measure the pure oracle speedup.

   [brute_force] cross-checks the B&B on tiny instances in the tests. *)

module S = Workload.Slotted

let src = Logs.Src.create "abt.exact" ~doc:"active-time branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

let popcount = Bitset.popcount_word

(* Exhaustive search over all subsets of relevant slots. Only sensible for
   a dozen slots or so; raises [Invalid_argument] beyond 20. *)
let brute_force (inst : S.t) =
  let slots = Array.of_list (S.relevant_slots inst) in
  let k = Array.length slots in
  if k > 20 then invalid_arg "Exact.brute_force: too many slots";
  let best = ref None in
  let best_cost = ref max_int in
  for mask = 0 to (1 lsl k) - 1 do
    let c = popcount mask in
    if c < !best_cost then begin
      let open_slots =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list slots)
      in
      if Feasibility.feasible inst ~open_slots then begin
        best := Some open_slots;
        best_cost := c
      end
    end
  done;
  Option.bind !best (fun open_slots -> Solution.of_open_slots inst ~open_slots)

let solve ?budget ?(oracle = Feasibility.Incremental) ?floor ?(obs = Obs.null) (inst : S.t) =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Obs.span obs "active.exact" @@ fun () ->
  let slots = Array.of_list (S.relevant_slots inst) in
  let k = Array.length slots in
  let mass_lb = S.mass_lower_bound inst in
  (* one network for the seed, the oracle and the schedule *)
  let net = Feasibility.network inst in
  (* incumbent from a minimal feasible solution *)
  match Minimal.solve ~oracle ~obs ~net inst Minimal.Right_to_left with
  | None -> Budget.Complete None (* infeasible instance *)
  | Some seed ->
      let slot_idx = Hashtbl.create (2 * k) in
      Array.iteri (fun i s -> Hashtbl.replace slot_idx s i) slots;
      let to_bits l =
        List.fold_left (fun b s -> Bitset.add b (Hashtbl.find slot_idx s)) (Bitset.create ~width:k) l
      in
      let to_slots b = List.map (fun i -> slots.(i)) (Bitset.to_list b) in
      let best = ref (Solution.cost seed) in
      let best_set = ref (to_bits seed.Solution.open_slots) in
      let nodes = ref 0 and flow_checks = ref 0 in
      let ora =
        match oracle with
        | Feasibility.Incremental -> Some (Feasibility.Oracle.create ~obs net)
        | Feasibility.Rebuild -> None
      in
      (* Probe "slot i closed, the rest of the current state unchanged".
         Incremental mode leaves the slot closed in the oracle (the caller
         reopens on backtrack); Rebuild mode reconstructs the open set as
         chosen-open + undecided suffix. *)
      let probe_close i opened =
        incr flow_checks;
        match ora with
        | Some o ->
            Feasibility.Oracle.set_slot ~obs o ~slot:slots.(i) ~open_:false;
            Feasibility.Oracle.check ~obs o
        | None ->
            let candidate = Bitset.union opened (Bitset.suffix ~width:k (i + 1)) in
            Feasibility.feasible ~obs inst ~open_slots:(to_slots candidate)
      in
      let reopen i =
        match ora with
        | Some o -> Feasibility.Oracle.set_slot ~obs o ~slot:slots.(i) ~open_:true
        | None -> ()
      in
      (* DFS: i = next slot index, opened = chosen-open slot indices,
         n_open = |opened|, lb = the global floor. Undecided slots are
         i..k-1 and are open in the oracle whenever the DFS sits at index
         i. Invariant: opened plus all undecided is feasible. *)
      let rec dfs lb i opened n_open =
        Budget.tick budget;
        incr nodes;
        if n_open < !best then begin
          if i = k then begin
            (* all decided; invariant says [opened] is feasible *)
            best := n_open;
            best_set := opened
          end
          else if max n_open lb < !best then begin
            (* try closing slot i: keep going only if still feasible *)
            if probe_close i opened then dfs lb (i + 1) opened n_open;
            reopen i;
            (* then try opening slot i *)
            dfs lb (i + 1) (Bitset.add opened i) (n_open + 1)
          end
        end
      in
      (* Also records the counters on the exhausted path, so they always
         reflect the work actually done. *)
      let finish () =
        Obs.add obs "active.exact.nodes" !nodes;
        Obs.add obs "active.exact.flow_checks" !flow_checks;
        Solution.of_open_slots ~net inst ~open_slots:(to_slots !best_set)
      in
      let root_feasible () =
        incr flow_checks;
        match ora with
        | Some o -> Feasibility.Oracle.check ~obs o
        | None -> Feasibility.feasible ~obs inst ~open_slots:(Array.to_list slots)
      in
      (try
         if root_feasible () then begin
           let lb =
             match floor with Some f when !best > mass_lb -> max mass_lb (f ()) | _ -> mass_lb
           in
           dfs lb 0 (Bitset.create ~width:k) 0
         end;
         Log.info (fun m ->
             m "branch and bound: %d slots, %d nodes, %d flow checks, optimum %d" k !nodes !flow_checks !best);
         Budget.Complete (finish ())
       with Budget.Out_of_fuel ->
         Log.info (fun m ->
             m "branch and bound: out of fuel after %d nodes, incumbent %d" !nodes !best);
         Budget.Exhausted { spent = Budget.spent budget; incumbent = finish () })


let branch_and_bound (inst : S.t) =
  match solve ~budget:(Budget.unlimited ()) inst with
  | Budget.Complete r -> r
  | Budget.Exhausted _ -> assert false (* unlimited fuel never exhausts *)

(* Optimal active time, or [None] when the instance is infeasible. *)
let optimum inst = Option.map Solution.cost (branch_and_bound inst)
