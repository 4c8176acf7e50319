(* Exact optima for the active-time problem.

   The paper conjectures the problem NP-hard (Saha & Purohit later proved
   it, arXiv:2112.03255) and only compares against OPT analytically; the
   benches need OPT numerically, so we compute it by
   branch-and-bound over open/closed decisions per relevant slot with

     - monotone feasibility pruning (close a slot only while the remaining
       open-or-undecided set stays feasible), and
     - cost pruning against the incumbent, seeded with a minimal feasible
       solution, with a global floor: the built-in max(ceil(P/g), OPT_inf),
       where OPT_inf is the optimum at g = infinity
       ([Workload.Slotted.unbounded_optimum], a deadline-ordered greedy),
       raised to the caller's [?floor] when one is given.

   The caller's floor is a lower bound on the optimum that the caller
   has proven (the cascade's exact tier passes ceil(LP1)). It is asked
   for at most once, before the first node and only when the seed costs
   more than the built-in floor (a seed at that floor is optimal
   already), inside the [Out_of_fuel] handler: work it spends on the
   budget is counted, and its exhaustion returns the seed. A valid floor
   prunes a node only once it reaches the incumbent, which is then
   optimal; as the DFS takes only strictly cheaper incumbents, the same
   solution comes back, in fewer nodes, flow checks and ticks.

   The chosen-open set is a list of relevant-slot indices, newest first:
   opening slot i conses i onto it, and backtracking returns to the
   caller's list, so a branch copies nothing. Feasibility probes go
   through a selectable [Feasibility.probe_mode]: the default drives ONE
   persistent incremental oracle for the whole search (close slot /
   re-augment / reopen on backtrack), the Rebuild mode reconstructs the
   flow network per probe. Both modes compute exact max flows, hence take
   identical branching decisions and report identical node / flow-check
   counters. The oracle is readied on the first close probe, by a root
   check that counts as one flow check in either mode, so a search whose
   floor meets the seed at the root probes nothing, builds no oracle and
   returns the seed's own solution.

   [brute_force] cross-checks the B&B on tiny instances in the tests. *)

module S = Workload.Slotted

let src = Logs.Src.create "abt.exact" ~doc:"active-time branch and bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Exhaustive search over all subsets of relevant slots. Only sensible for
   a dozen slots or so; raises [Invalid_argument] beyond 20. *)
let brute_force (inst : S.t) =
  let slots = Array.of_list (S.relevant_slots inst) in
  let k = Array.length slots in
  if k > 20 then invalid_arg "Exact.brute_force: too many slots";
  let rec popcount m = if m = 0 then 0 else (m land 1) + popcount (m lsr 1) in
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
  (* one network for the seed, the oracle and the schedule *)
  let net = Feasibility.network inst in
  let slots = Feasibility.network_slots net in
  let k = Array.length slots in
  (* incumbent from a minimal feasible solution *)
  match Minimal.solve ~oracle ~obs ~net inst Minimal.Right_to_left with
  | None -> Budget.Complete None (* infeasible instance *)
  | Some seed ->
      (* chosen-open slots in increasing order, [opened] newest first *)
      let to_slots opened = List.rev_map (fun i -> slots.(i)) opened in
      let best = ref (Solution.cost seed) in
      (* the open slots of an incumbent cheaper than the seed *)
      let best_slots = ref None in
      let nodes = ref 0 and flow_checks = ref 0 in
      (* The probe oracle, readied on the first close probe by the root
         check (every relevant slot open; it holds, since the seed is
         feasible), which is the search's first flow check in both
         modes. *)
      let ora = ref None in
      let ready () =
        if !flow_checks = 0 then begin
          incr flow_checks;
          let root =
            match oracle with
            | Feasibility.Incremental ->
                let o = Feasibility.Oracle.create ~obs net in
                ora := Some o;
                Feasibility.Oracle.check ~obs o
            | Feasibility.Rebuild -> Feasibility.feasible ~obs inst ~open_slots:(Array.to_list slots)
          in
          assert root
        end
      in
      (* Probe "slot i closed, the rest of the current state unchanged".
         Incremental mode leaves the slot closed in the oracle (the caller
         reopens on backtrack); Rebuild mode reconstructs the open set as
         chosen-open + undecided suffix, in increasing slot order. *)
      let probe_close i opened =
        ready ();
        incr flow_checks;
        match !ora with
        | Some o ->
            Feasibility.Oracle.set_slot ~obs o ~slot:slots.(i) ~open_:false;
            Feasibility.Oracle.check ~obs o
        | None ->
            let undecided = Array.to_list (Array.sub slots (i + 1) (k - i - 1)) in
            Feasibility.feasible ~obs inst ~open_slots:(to_slots opened @ undecided)
      in
      let reopen i =
        match !ora with
        | Some o -> Feasibility.Oracle.set_slot ~obs o ~slot:slots.(i) ~open_:true
        | None -> ()
      in
      (* DFS: i = next slot index, opened = chosen-open slot indices
         (newest first), n_open = |opened|, lb = the global floor.
         Undecided slots are i..k-1 and are open in the oracle whenever
         the DFS sits at index i. Invariant: opened plus all undecided is
         feasible. *)
      let rec dfs lb i opened n_open =
        Budget.tick budget;
        incr nodes;
        if n_open < !best then begin
          if i = k then begin
            (* all decided; invariant says [opened] is feasible *)
            best := n_open;
            best_slots := Some (to_slots opened)
          end
          else if max n_open lb < !best then begin
            (* try closing slot i: keep going only if still feasible *)
            if probe_close i opened then dfs lb (i + 1) opened n_open;
            reopen i;
            (* then try opening slot i *)
            dfs lb (i + 1) (i :: opened) (n_open + 1)
          end
        end
      in
      (* Also records the counters on the exhausted path, so they always
         reflect the work actually done. *)
      let finish () =
        Obs.add obs "active.exact.nodes" !nodes;
        Obs.add obs "active.exact.flow_checks" !flow_checks;
        match !best_slots with
        | None -> Some seed
        | Some open_slots -> Solution.of_open_slots ~net inst ~open_slots
      in
      (try
         (* the built-in floor, then the caller's while the seed costs more *)
         let mass_lb = S.mass_lower_bound inst in
         let lb = if !best > mass_lb then max mass_lb (S.unbounded_optimum inst) else mass_lb in
         let lb = match floor with Some f when !best > lb -> max lb (f ()) | _ -> lb in
         dfs lb 0 [] 0;
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
