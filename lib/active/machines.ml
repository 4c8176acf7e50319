(* Active time on a finite pool of machines (Koehler-Khuller, cited in
   Section 1.3: "their result holds even for a finite number of
   machines").

   Model: [m] identical machines of capacity [g]; in each slot any number
   0..m of them may be on, and the cost is the total number of
   machine-slots that are on. A job unit occupies one slot of one machine;
   a job still runs at most one unit per slot. Since the assignment of
   jobs to machines within a slot is free, only the per-slot opening
   count y_t in {0..m} matters, and feasibility is the G_feas flow with
   slot capacity g * y_t: {!Feasibility.fits} on the instance's
   {!Feasibility.network}.

   Provided: feasibility, greedy minimalization (decrement counts while
   feasible - the multi-machine analogue of Theorem 1's minimal feasible
   solutions), an LP lower bound (y relaxed to [0, m], over LP1's
   assignment part, {!Lp_model.assignment}) and an exact
   branch-and-bound. A minimalization or a search builds one network
   and probes it with the counts in one array, changed in place. *)

module Q = Rational
module S = Workload.Slotted

type openings = (int * int) list (* slot -> number of machines on, sorted *)

let cost (openings : openings) = List.fold_left (fun acc (_, c) -> acc + c) 0 openings

let check_machines machines = if machines < 1 then invalid_arg "Machines.feasible: machines < 1"

let feasible (inst : S.t) ~machines ~openings =
  check_machines machines;
  List.iter
    (fun (_, c) -> if c < 0 || c > machines then invalid_arg "Machines.feasible: count out of range")
    openings;
  let net = Feasibility.network inst in
  let count s = Option.value (List.assoc_opt s openings) ~default:0 in
  Feasibility.fits net ~on:(Array.map count (Feasibility.network_slots net))

(* The positive counts of [on] over [slots], as openings. *)
let openings slots on =
  List.filter (fun (_, c) -> c > 0) (Array.to_list (Array.map2 (fun s c -> (s, c)) slots on))

(* One network and the counts of a minimal pool: every machine on in
   every relevant slot, then each slot's count, slots increasing,
   decremented while the pool still fits (monotonicity makes one pass
   minimal). [None] when not even every machine on fits. *)
let minimal_pool (inst : S.t) ~machines =
  check_machines machines;
  let net = Feasibility.network inst in
  let slots = Feasibility.network_slots net in
  let on = Array.make (Array.length slots) machines in
  if not (Feasibility.fits net ~on) then None
  else begin
    let rec lower si =
      if on.(si) > 0 then begin
        on.(si) <- on.(si) - 1;
        if Feasibility.fits net ~on then lower si else on.(si) <- on.(si) + 1
      end
    in
    Array.iteri (fun si _ -> lower si) on;
    Some (net, slots, on)
  end

let minimal (inst : S.t) ~machines =
  Option.map (fun (_, slots, on) -> openings slots on) (minimal_pool inst ~machines)

(* LP lower bound: the natural relaxation with y_t in [0, m]. *)
let lp_lower_bound (inst : S.t) ~machines =
  let slots = S.relevant_slots inst in
  let m = Lp.create () in
  let y_vars =
    List.map (fun s -> (s, Lp.add_var ~upper:(Q.of_int machines) m (Printf.sprintf "y_%d" s))) slots
  in
  Lp_model.assignment m inst
    ~upper:(fun _ -> Q.one)
    ~capacity:(fun s -> ([ (Q.of_int (-inst.S.g), List.assoc s y_vars) ], Q.zero));
  Lp.set_objective m Lp.Minimize (List.map (fun (_, yv) -> (Q.one, yv)) y_vars);
  match Lp.solve m with
  | Lp.Optimal sol -> Some (Lp.objective_value sol)
  | Lp.Infeasible -> None
  | Lp.Unbounded -> assert false

(* Exact optimum by branch-and-bound over per-slot counts, seeded with
   the minimal pool. Level [i] sets slot [i]'s count in [on], from low
   to high, with every later slot at [machines]; a count whose pool
   does not fit is pruned. *)
let optimum (inst : S.t) ~machines =
  match minimal_pool inst ~machines with
  | None -> None
  | Some (net, slots, on) ->
      let seed = openings slots on in
      let k = Array.length slots in
      Array.fill on 0 k machines;
      let best = ref (cost seed) in
      let best_set = ref seed in
      let mass_lb = S.mass_lower_bound inst in
      let rec dfs i acc_cost =
        if acc_cost < !best && max acc_cost mass_lb < !best then begin
          if i = k then begin
            best := acc_cost;
            best_set := openings slots on
          end
          else begin
            for c = 0 to machines do
              on.(i) <- c;
              if acc_cost + c < !best && Feasibility.fits net ~on then dfs (i + 1) (acc_cost + c)
            done;
            on.(i) <- machines
          end
        end
      in
      dfs 0 0;
      Some (cost !best_set, !best_set)
