(* Minimal feasible solutions (Section 2 of the paper).

   Start from a feasible set of open slots and close slots one at a time
   while the instance stays feasible. Feasibility is monotone in the open
   set, so a single pass over any closing order yields an
   inclusion-minimal feasible set (once closing slot s fails it fails
   forever). Theorem 1: every minimal feasible solution costs at most
   3 OPT, and Fig. 3 shows some cost ~3 OPT; the closing order controls
   which minimal solution is reached, so benches probe several. *)

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

(* [minimalize inst ~start order] closes slots of [start] greedily in the
   given order. Returns [None] when [start] itself is infeasible.

   Both probe modes walk the same closing order and take the same
   close/keep decisions (feasibility is exact either way), so the
   [active.minimal.*] counters agree mode to mode; only the flow-level
   telemetry differs (warm re-augmentations vs cold max-flow runs). *)
let minimalize ?(oracle = Feasibility.Incremental) ?(obs = Obs.null) ?net (inst : S.t) ~start order =
  Obs.span obs "active.minimal" @@ fun () ->
  let net = Feasibility.network_for ?net inst in
  let start = List.sort_uniq compare start in
  match oracle with
  | Feasibility.Rebuild ->
      Obs.incr obs "active.minimal.feasibility_checks";
      if not (Feasibility.feasible ~obs inst ~open_slots:start) then None
      else begin
        let current = ref start in
        List.iter
          (fun s ->
            let without = List.filter (fun s' -> s' <> s) !current in
            Obs.incr obs "active.minimal.feasibility_checks";
            if Feasibility.feasible ~obs inst ~open_slots:without then begin
              Obs.incr obs "active.minimal.closures";
              current := without
            end)
          (order_slots order !current);
        Solution.of_open_slots ~net inst ~open_slots:!current
      end
  | Feasibility.Incremental ->
      let o = Feasibility.Oracle.create ~obs net in
      let in_start = Hashtbl.create 32 in
      List.iter (fun s -> Hashtbl.replace in_start s ()) start;
      List.iter
        (fun s ->
          if not (Hashtbl.mem in_start s) then Feasibility.Oracle.set_slot ~obs o ~slot:s ~open_:false)
        (S.relevant_slots inst);
      Obs.incr obs "active.minimal.feasibility_checks";
      if not (Feasibility.Oracle.check ~obs o) then None
      else begin
        List.iter
          (fun s ->
            Feasibility.Oracle.set_slot ~obs o ~slot:s ~open_:false;
            Obs.incr obs "active.minimal.feasibility_checks";
            if Feasibility.Oracle.check ~obs o then Obs.incr obs "active.minimal.closures"
            else Feasibility.Oracle.set_slot ~obs o ~slot:s ~open_:true)
          (order_slots order start);
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
