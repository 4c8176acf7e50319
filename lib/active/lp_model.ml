(* The natural LP relaxation LP1 of the active-time IP (Section 3):

     min  sum_t y_t
     s.t. x_{t,j} <= y_t                 for every job j, slot t in window
          sum_j x_{t,j} <= g * y_t       for every slot t
          sum_t x_{t,j} >= p_j           for every job j
          0 <= y_t <= 1,  x_{t,j} >= 0,  x_{t,j} = 0 outside windows

   Solved exactly over the rationals; the optimal value lower-bounds the
   integral optimum and its y-vector feeds the rounding of Theorem 2. *)

module S = Workload.Slotted
module Q = Rational

type t = {
  cost : Q.t; (* optimal LP objective *)
  y : (int * Q.t) list; (* slot -> y_t, all relevant slots (may be 0) *)
  x : ((int * int) * Q.t) list; (* (slot, job id) -> assigned mass, > 0 entries *)
}

let y_at t slot = try List.assoc slot t.y with Not_found -> Q.zero

(* LP2 of Section 3.1: with the slot openings y fixed, does a feasible
   fractional assignment of all jobs exist? Used to verify Lemma 3
   (right-shifting preserves feasibility) computationally. *)
let feasible_with_y (inst : S.t) y =
  let y_of s = try List.assoc s y with Not_found -> Q.zero in
  let m = Lp.create () in
  let x_vars =
    Array.to_list inst.S.jobs
    |> List.concat_map (fun (j : S.job) ->
           List.filter_map
             (fun s ->
               if Q.is_zero (y_of s) then None
               else Some ((s, j.S.id), Lp.add_var ~upper:(y_of s) m (Printf.sprintf "x_%d_%d" s j.S.id)))
             (S.window_slots j))
  in
  (* capacity per slot: sum_j x_{t,j} <= g * y_t *)
  List.iter
    (fun s ->
      let terms = List.filter_map (fun ((s', _), xv) -> if s' = s then Some (Q.one, xv) else None) x_vars in
      if terms <> [] then Lp.add_constraint m terms Lp.Le (Q.mul (Q.of_int inst.S.g) (y_of s)))
    (S.relevant_slots inst);
  (* demand per job *)
  Array.iter
    (fun (j : S.job) ->
      let terms =
        List.filter_map (fun ((_, id), xv) -> if id = j.S.id then Some (Q.one, xv) else None) x_vars
      in
      Lp.add_constraint m terms Lp.Ge (Q.of_int j.S.length))
    inst.S.jobs;
  match Lp.solve m with Lp.Optimal _ -> true | Lp.Infeasible -> false | Lp.Unbounded -> assert false

(* The right-shifted y vector of Section 3.1: within each block between
   consecutive distinct deadlines (plus the pre-first-deadline block), the
   block mass Y_i is packed against the right end - floor(Y_i) fully open
   slots ending at the deadline plus one fractional slot. *)
let right_shift (inst : S.t) t =
  let slots = S.relevant_slots inst in
  let deadlines = List.sort_uniq compare (Array.to_list (Array.map (fun j -> j.S.deadline) inst.S.jobs)) in
  let first_positive = List.find_opt (fun s -> Q.compare (y_at t s) Q.zero > 0) slots in
  let boundaries =
    match (first_positive, deadlines) with
    | Some t0, d1 :: _ when t0 < d1 -> t0 :: deadlines
    | _ -> deadlines
  in
  let shifted = Hashtbl.create 32 in
  let prev = ref 0 in
  List.iter
    (fun b ->
      let b_prev = !prev in
      prev := b;
      let yi =
        List.fold_left
          (fun acc s -> if s > b_prev && s <= b then Q.add acc (y_at t s) else acc)
          Q.zero slots
      in
      let base = Q.floor_int yi in
      let frac = Q.sub yi (Q.of_int base) in
      for s = b - base + 1 to b do
        Hashtbl.replace shifted s Q.one
      done;
      if Q.compare frac Q.zero > 0 then Hashtbl.replace shifted (b - base) frac)
    boundaries;
  List.map (fun s -> (s, try Hashtbl.find shifted s with Not_found -> Q.zero)) slots

(* LP1 as an Lp model with every y free in [0,1], plus the y and x
   variables. Variable and row order fix the simplex pivot sequence, so
   the pinned pivot counts depend on them. *)
let lp1 (inst : S.t) =
  let slots = S.relevant_slots inst in
  let m = Lp.create () in
  let y_vars = List.map (fun s -> (s, Lp.add_var ~upper:Q.one m (Printf.sprintf "y_%d" s))) slots in
  let y_var s = List.assoc s y_vars in
  let x_vars =
    Array.to_list inst.S.jobs
    |> List.concat_map (fun (j : S.job) ->
           List.map
             (fun s -> ((s, j.S.id), Lp.add_var m (Printf.sprintf "x_%d_%d" s j.S.id)))
             (S.window_slots j))
  in
  (* x_{t,j} <= y_t *)
  List.iter
    (fun ((s, _), xv) -> Lp.add_constraint m [ (Q.one, xv); (Q.minus_one, y_var s) ] Lp.Le Q.zero)
    x_vars;
  (* capacity per slot *)
  List.iter
    (fun s ->
      let terms = List.filter_map (fun ((s', _), xv) -> if s' = s then Some (Q.one, xv) else None) x_vars in
      if terms <> [] then
        Lp.add_constraint m ((Q.of_int (-inst.S.g), y_var s) :: terms) Lp.Le Q.zero)
    slots;
  (* demand per job *)
  Array.iter
    (fun (j : S.job) ->
      let terms =
        List.filter_map (fun ((_, id), xv) -> if id = j.S.id then Some (Q.one, xv) else None) x_vars
      in
      Lp.add_constraint m terms Lp.Ge (Q.of_int j.S.length))
    inst.S.jobs;
  Lp.set_objective m Lp.Minimize (List.map (fun (_, yv) -> (Q.one, yv)) y_vars);
  (m, y_vars, x_vars)

let build_lp1 inst =
  let m, y_vars, _ = lp1 inst in
  (m, y_vars)

(* A primal-feasible basis of [lp1 inst], read off an integral max flow of
   the paper's Fig. 2 network G_feas with every relevant slot open:
   every y_t nonbasic at 1; x_{t,j} basic where the flow uses arc (t, j)
   and nonbasic at 0 elsewhere; the slack of row x_{t,j} <= y_t
   nonbasic where x_{t,j} is basic; every other slack and surplus basic.
   Each basic x_{t,j} owns its row x_{t,j} <= y_t, so the basis is
   triangular. [None] when the flow cannot route every job: the
   instance is infeasible, and phase 1 proves it. *)
let flow_start (inst : S.t) m ~y_vars =
  match Feasibility.schedule inst ~open_slots:(S.relevant_slots inst) with
  | None -> None
  | Some sched ->
      (* per x column, in [lp1]'s order (jobs, then window slots): does
         the flow use it? Both slot lists are increasing. *)
      let used =
        List.concat
          (List.map2
             (fun (j : S.job) (_, slots) ->
               let rest = ref slots in
               List.map
                 (fun s ->
                   match !rest with
                   | t :: tl when t = s ->
                       rest := tl;
                       true
                   | _ -> false)
                 (S.window_slots j))
             (Array.to_list inst.S.jobs) sched)
        |> Array.of_list
      in
      let vstat =
        Array.append
          (Array.make (List.length y_vars) Lp.Basis.Upper)
          (Array.map (fun u -> if u then Lp.Basis.Basic else Lp.Basis.Lower) used)
      in
      (* the x_{t,j} <= y_t rows come first, one per x column *)
      let sstat = Array.make (Lp.num_constraints m) Lp.Basis.Basic in
      Array.iteri (fun k u -> if u then sstat.(k) <- Lp.Basis.Lower) used;
      Some (Lp.Basis.make ~vstat ~sstat)

let solve ?(engine = Lp.default_engine) ?budget ?obs (inst : S.t) =
  let m, y_vars, x_vars = lp1 inst in
  let start = flow_start inst m ~y_vars in
  match Lp.solve ~engine ?start ?budget ?obs m with
  | Lp.Infeasible -> None
  | Lp.Unbounded -> assert false (* objective is bounded below by 0 *)
  | Lp.Optimal sol ->
      let y = List.map (fun (s, yv) -> (s, Lp.value sol yv)) y_vars in
      let x =
        List.filter_map
          (fun (key, xv) ->
            let v = Lp.value sol xv in
            if Q.is_zero v then None else Some (key, v))
          x_vars
      in
      Some { cost = Lp.objective_value sol; y; x }
