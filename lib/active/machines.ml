(* Active time on a finite pool of machines (Koehler-Khuller, cited in
   Section 1.3: "their result holds even for a finite number of
   machines").

   Model: [m] identical machines of capacity [g]; in each slot any number
   0..m of them may be on, and the cost is the total number of
   machine-slots that are on. A job unit occupies one slot of one machine;
   a job still runs at most one unit per slot. Since the assignment of
   jobs to machines within a slot is free, only the per-slot opening
   count y_t in {0..m} matters, and feasibility is the G_feas flow with
   slot capacity g * y_t: {!Feasibility.fits} on the instance's one
   {!Feasibility.network}.

   Provided: feasibility, greedy minimalization (decrement counts while
   feasible - the multi-machine analogue of Theorem 1's minimal feasible
   solutions), an LP lower bound (y relaxed to [0, m]) and an exact
   branch-and-bound. *)

module Q = Rational
module S = Workload.Slotted

type openings = (int * int) list (* slot -> number of machines on, sorted *)

let cost (openings : openings) = List.fold_left (fun acc (_, c) -> acc + c) 0 openings

let feasible (inst : S.t) ~machines ~openings =
  if machines < 1 then invalid_arg "Machines.feasible: machines < 1";
  List.iter
    (fun (_, c) -> if c < 0 || c > machines then invalid_arg "Machines.feasible: count out of range")
    openings;
  Feasibility.fits (Feasibility.network inst) ~machines_on:(fun s -> try List.assoc s openings with Not_found -> 0)

(* Start from every machine on in every relevant slot and decrement counts
   greedily; monotonicity makes a single pass minimal. *)
let minimal (inst : S.t) ~machines =
  let slots = S.relevant_slots inst in
  let full = List.map (fun s -> (s, machines)) slots in
  if not (feasible inst ~machines ~openings:full) then None
  else begin
    let current = Hashtbl.create 32 in
    List.iter (fun (s, c) -> Hashtbl.replace current s c) full;
    let snapshot () = List.map (fun s -> (s, Hashtbl.find current s)) slots in
    List.iter
      (fun s ->
        let keep_decrementing = ref true in
        while !keep_decrementing && Hashtbl.find current s > 0 do
          Hashtbl.replace current s (Hashtbl.find current s - 1);
          if not (feasible inst ~machines ~openings:(snapshot ())) then begin
            Hashtbl.replace current s (Hashtbl.find current s + 1);
            keep_decrementing := false
          end
        done)
      slots;
    Some (List.filter (fun (_, c) -> c > 0) (snapshot ()))
  end

(* LP lower bound: the natural relaxation with y_t in [0, m]. *)
let lp_lower_bound (inst : S.t) ~machines =
  let slots = S.relevant_slots inst in
  let m = Lp.create () in
  let y_vars =
    List.map (fun s -> (s, Lp.add_var ~upper:(Q.of_int machines) m (Printf.sprintf "y_%d" s))) slots
  in
  let y_var s = List.assoc s y_vars in
  let x_vars =
    Array.to_list inst.S.jobs
    |> List.concat_map (fun (j : S.job) ->
           List.map
             (fun s -> ((s, j.S.id), Lp.add_var ~upper:Q.one m (Printf.sprintf "x_%d_%d" s j.S.id)))
             (S.window_slots j))
  in
  List.iter
    (fun s ->
      let terms = List.filter_map (fun ((s', _), xv) -> if s' = s then Some (Q.one, xv) else None) x_vars in
      if terms <> [] then
        Lp.add_constraint m ((Q.of_int (-inst.S.g), y_var s) :: terms) Lp.Le Q.zero)
    slots;
  Array.iter
    (fun (j : S.job) ->
      let terms =
        List.filter_map (fun ((_, id), xv) -> if id = j.S.id then Some (Q.one, xv) else None) x_vars
      in
      Lp.add_constraint m terms Lp.Ge (Q.of_int j.S.length))
    inst.S.jobs;
  Lp.set_objective m Lp.Minimize (List.map (fun (_, yv) -> (Q.one, yv)) y_vars);
  match Lp.solve m with
  | Lp.Optimal sol -> Some (Lp.objective_value sol)
  | Lp.Infeasible -> None
  | Lp.Unbounded -> assert false

(* Exact optimum by branch-and-bound over per-slot counts. *)
let optimum (inst : S.t) ~machines =
  let slots = Array.of_list (S.relevant_slots inst) in
  let k = Array.length slots in
  match minimal inst ~machines with
  | None -> None
  | Some seed ->
      let best = ref (cost seed) in
      let best_set = ref seed in
      let mass_lb = S.mass_lower_bound inst in
      let rec dfs i chosen acc_cost =
        if acc_cost < !best && max acc_cost mass_lb < !best then begin
          if i = k then begin
            (* chosen covers all slots; feasibility was maintained *)
            best := acc_cost;
            best_set := List.rev chosen
          end
          else begin
            (* try counts from low to high; prune infeasible-with-rest *)
            let rest =
              List.map (fun s -> (s, machines)) (Array.to_list (Array.sub slots (i + 1) (k - i - 1)))
            in
            let counts = List.init (machines + 1) (fun c -> c) in
            List.iter
              (fun c ->
                let openings = List.rev_append chosen ((slots.(i), c) :: rest) in
                if acc_cost + c < !best && feasible inst ~machines ~openings then
                  dfs (i + 1) ((slots.(i), c) :: chosen) (acc_cost + c))
              counts
          end
        end
      in
      dfs 0 [] 0;
      Some (cost !best_set, List.filter (fun (_, c) -> c > 0) !best_set)
