(* Minimal feasible solutions (Section 2 of the paper).

   Start from a feasible set of open slots and close slots one at a time
   while the instance stays feasible. Feasibility is monotone in the open
   set, so a single pass over any closing order yields an
   inclusion-minimal feasible set (once closing slot s fails it fails
   forever). Theorem 1: every minimal feasible solution costs at most
   3 OPT, and Fig. 3 shows some cost ~3 OPT; the closing order controls
   which minimal solution is reached, so benches probe several.

   Before a close probe runs a max flow, two counting tests that every
   feasible set passes decide most refusals: the other open slots must
   still hold P units (g (|open| - 1) >= P), and every job live at the
   slot must keep p_j open slots in its window. The pass keeps the
   number of open relevant slots and, per job, its open window slots
   beyond p_j; a slot that fails a test stays open with no drain,
   augmentation or reopening. The tests only refuse closures the flow
   would refuse, so the decisions, hence the solution, are the flow's. *)

module S = Workload.Slotted

type order =
  | Left_to_right
  | Right_to_left
  | Shuffled of int (* seed *)

let order_slots order slots =
  match order with
  | Left_to_right -> slots
  | Right_to_left -> List.rev slots
  | Shuffled seed ->
      let st = Random.State.make [| seed |] in
      let arr = Array.of_list slots in
      for i = Array.length arr - 1 downto 1 do
        let k = Random.State.int st (i + 1) in
        let tmp = arr.(i) in
        arr.(i) <- arr.(k);
        arr.(k) <- tmp
      done;
      Array.to_list arr

(* Each slot of [start] (increasing) with its index in [slots]
   (increasing), or -1 when no job can use it. *)
let rec indexed slots si = function
  | [] -> []
  | s :: rest as start ->
      if si < Array.length slots && slots.(si) < s then indexed slots (si + 1) start
      else (s, if si < Array.length slots && slots.(si) = s then si else -1) :: indexed slots si rest

(* [minimalize inst ~start order] closes slots of [start] greedily in the
   given order. Returns [None] when [start] itself is infeasible.

   Both probe modes walk the same closing order, run the same counting
   tests and take the same close/keep decisions (feasibility is exact
   either way), so the [active.minimal.*] counters agree mode to mode;
   only the flow-level telemetry differs (warm re-augmentations vs cold
   max-flow runs). A decision the tests settle counts as a feasibility
   check too. *)
let minimalize ?(oracle = Feasibility.Incremental) ?(obs = Obs.null) ?net (inst : S.t) ~start order =
  Obs.span obs "active.minimal" @@ fun () ->
  let net = Feasibility.network_for ?net inst in
  let start = List.sort_uniq compare start in
  let slots = Feasibility.network_slots net in
  let start_at = indexed slots 0 start in
  let is_open = Array.make (Array.length slots) false in
  List.iter (fun (_, si) -> if si >= 0 then is_open.(si) <- true) start_at;
  let n_open = ref (Array.fold_left (fun n o -> if o then n + 1 else n) 0 is_open) in
  (* per slot index, the jobs live there; per job, open window slots
     beyond its length *)
  let live = Array.make (Array.length slots) [] in
  let spare =
    Array.mapi
      (fun idx (j : S.job) ->
        let lo = S.window_start slots j and spare = ref (-j.S.length) in
        for si = lo + S.window_size j - 1 downto lo do
          live.(si) <- idx :: live.(si);
          if is_open.(si) then incr spare
        done;
        !spare)
      inst.S.jobs
  in
  let mass = S.mass_lower_bound inst in
  (* One closing decision: the counting tests, then [flow ()] (which
     must leave the probe's state as it found it on a refusal). A slot
     no job can use passes both tests. *)
  let try_close si flow =
    Obs.incr obs "active.minimal.feasibility_checks";
    let closes =
      (si < 0 || (!n_open > mass && List.for_all (fun idx -> spare.(idx) > 0) live.(si))) && flow ()
    in
    if closes then begin
      Obs.incr obs "active.minimal.closures";
      if si >= 0 then begin
        decr n_open;
        List.iter (fun idx -> spare.(idx) <- spare.(idx) - 1) live.(si)
      end
    end;
    closes
  in
  match oracle with
  | Feasibility.Rebuild ->
      Obs.incr obs "active.minimal.feasibility_checks";
      if not (Feasibility.feasible ~obs inst ~open_slots:start) then None
      else begin
        let current = ref start in
        List.iter
          (fun (s, si) ->
            let without = List.filter (fun s' -> s' <> s) !current in
            if try_close si (fun () -> Feasibility.feasible ~obs inst ~open_slots:without) then
              current := without)
          (order_slots order start_at);
        Solution.of_open_slots ~net inst ~open_slots:!current
      end
  | Feasibility.Incremental ->
      let o = Feasibility.Oracle.create ~obs net in
      Array.iteri
        (fun si s -> if not is_open.(si) then Feasibility.Oracle.set_slot ~obs o ~slot:s ~open_:false)
        slots;
      Obs.incr obs "active.minimal.feasibility_checks";
      if not (Feasibility.Oracle.check ~obs o) then None
      else begin
        List.iter
          (fun (s, si) ->
            ignore
              (try_close si (fun () ->
                   Feasibility.Oracle.set_slot ~obs o ~slot:s ~open_:false;
                   Feasibility.Oracle.check ~obs o
                   || (Feasibility.Oracle.set_slot ~obs o ~slot:s ~open_:true;
                       false))))
          (order_slots order start_at);
        Solution.of_open_slots ~net inst ~open_slots:(Feasibility.Oracle.open_slots o)
      end
(* [solve inst order] starts from all relevant slots open. [None] iff the
   instance is infeasible. *)
let solve ?oracle ?obs ?net (inst : S.t) order =
  minimalize ?oracle ?obs ?net inst ~start:(S.relevant_slots inst) order

(* [is_minimal inst ~open_slots] checks Definition 4: the set is feasible
   and closing any single slot breaks feasibility. *)
let is_minimal (inst : S.t) ~open_slots =
  Feasibility.feasible inst ~open_slots
  && List.for_all
       (fun s -> not (Feasibility.feasible inst ~open_slots:(List.filter (fun s' -> s' <> s) open_slots)))
       open_slots
