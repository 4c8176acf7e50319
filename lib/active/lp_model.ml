(* The natural LP relaxation LP1 of the active-time IP (Section 3):

     min  sum_t y_t
     s.t. x_{t,j} <= y_t                 for every job j, slot t in window
          sum_j x_{t,j} <= g * y_t       for every slot t
          sum_t x_{t,j} >= p_j           for every job j
          0 <= y_t <= 1,  x_{t,j} >= 0,  x_{t,j} = 0 outside windows

   Solved exactly over the rationals, in its projection onto y (see
   lp_model.mli): the optimal value lower-bounds the integral optimum
   and its y-vector feeds the rounding of Theorem 2. *)

module S = Workload.Slotted
module Q = Rational

type t = {
  cost : Q.t; (* optimal LP objective *)
  y : (int * Q.t) list; (* slot -> y_t, all relevant slots (may be 0) *)
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

(* LP1 in x-form, with every y free in [0,1]: the reference that the
   tests and the fuzz oracle compare the cut loop against. Variable and
   row order fix the simplex pivot sequence, so the pinned pivot counts
   depend on them. *)
let build_lp1 (inst : S.t) =
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
  (m, y_vars)

(* ------------------------------------------------ LP1 over y, by cuts -- *)

exception Scale_overflow

(* The y-only LP1: one column per relevant slot, one row per job set
   found so far, the basis of the last optimum, and the separation
   network, re-capacitated each round. *)
type lp1 = {
  inst : S.t;
  model : Lp.model;
  slots : int array; (* relevant slots, increasing; column i is y of slots.(i) *)
  y_vars : Lp.var array;
  first : int array; (* job array index -> column of its first window slot *)
  net : Feasibility.network;
  mutable basis : Lp.Basis.t option;
  mutable solves : int; (* Lp.solve calls, all rounds of all resolves *)
}

(* The row of job set [js] (array indices) as (coefficient, column)
   terms, columns increasing, and demand: sum_t min(g, n_t) y_t >= p(js),
   where n_t counts the windows of [js] that hold t. *)
let row lp js =
  let count = Array.make (Array.length lp.slots) 0 in
  List.iter
    (fun idx ->
      for i = lp.first.(idx) to lp.first.(idx) + S.window_size lp.inst.S.jobs.(idx) - 1 do
        count.(i) <- count.(i) + 1
      done)
    js;
  let terms = ref [] in
  for i = Array.length count - 1 downto 0 do
    if count.(i) > 0 then terms := (Q.of_int (min lp.inst.S.g count.(i)), i) :: !terms
  done;
  let demand = List.fold_left (fun acc idx -> acc + lp.inst.S.jobs.(idx).S.length) 0 js in
  (!terms, Q.of_int demand)

let add_row lp (terms, demand) =
  Lp.add_constraint lp.model (List.map (fun (c, i) -> (c, lp.y_vars.(i))) terms) Lp.Ge demand

let create (inst : S.t) =
  let model = Lp.create () in
  let net = Feasibility.network inst in
  let slots = Feasibility.network_slots net in
  let y_vars = Array.map (fun s -> Lp.add_var ~upper:Q.one model (Printf.sprintf "y_%d" s)) slots in
  Lp.set_objective model Lp.Minimize (Array.to_list (Array.map (fun v -> (Q.one, v)) y_vars));
  let first = Array.map (S.window_start slots) inst.S.jobs in
  (* each single job's row: its window slots, coefficient min(g, 1) = 1 *)
  Array.iteri
    (fun idx (j : S.job) ->
      Lp.add_constraint model
        (List.init (S.window_size j) (fun k -> (Q.one, y_vars.(first.(idx) + k))))
        Lp.Ge (Q.of_int j.S.length))
    inst.S.jobs;
  { inst; model; slots; y_vars; first; net; basis = None; solves = 0 }

let slots lp = Array.to_list lp.slots
let basis lp = lp.basis
let solves lp = lp.solves

let fix lp fixing =
  Array.iteri
    (fun i v ->
      let lower, upper =
        match fixing lp.slots.(i) with
        | Some true -> (Q.one, Q.one)
        | Some false -> (Q.zero, Q.zero)
        | None -> (Q.zero, Q.one)
      in
      Lp.set_bounds lp.model v ~lower ~upper:(Some upper))
    lp.y_vars

(* Split job set [js] into chains: maximal runs, by release, of windows
   that each overlap the union of the ones before. Chains share no
   slot, so the row of [js] is the sum of theirs, and when y violates
   it, y violates a chain's row too. *)
let chains (inst : S.t) js =
  let job idx = inst.S.jobs.(idx) in
  let by_release = List.stable_sort (fun a b -> compare (job a).S.release (job b).S.release) js in
  let rec go chain reach acc = function
    | [] -> List.rev (if chain = [] then acc else List.rev chain :: acc)
    | idx :: rest ->
        let j = job idx in
        if chain <> [] && j.S.release < reach then go (idx :: chain) (max reach j.S.deadline) acc rest
        else go [ idx ] j.S.deadline (if chain = [] then acc else List.rev chain :: acc) rest
  in
  go [] 0 [] by_release

let checked_mul a b = match Bigint.checked_mul a b with Some c -> c | None -> raise Scale_overflow
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* The separation. Scale y (by column) by the least common denominator
   L of its values and run one max flow of G_feas with capacities
   p_j L, y_t L and g y_t L: y extends to a feasible x iff the flow
   saturates every job arc. When it does not, the source side of a min
   cut is a job set whose row y violates; the rows of its violated
   chains come back. *)
let separate ?obs lp (y : Q.t array) =
  let scale =
    Array.fold_left
      (fun l v ->
        match Bigint.to_int (Q.den v) with
        | Some d -> checked_mul (l / gcd l d) d
        | None -> raise Scale_overflow)
      1 y
  in
  (* p(J) L bounds every job capacity and the flow value, g L every slot's *)
  ignore (checked_mul (max (S.total_length lp.inst) lp.inst.S.g) scale);
  let scaled =
    Array.map (fun v -> if Q.is_zero v then 0 else Option.get (Q.to_int (Q.mul v (Q.of_int scale)))) y
  in
  Feasibility.min_cut_jobs ?obs lp.net
    ~job_cap:(fun idx -> lp.inst.S.jobs.(idx).S.length * scale)
    ~slot_cap:(fun i -> scaled.(i))
  |> chains lp.inst
  |> List.filter_map (fun chain ->
         let ((terms, demand) as r) = row lp chain in
         let lhs = List.fold_left (fun acc (c, i) -> Q.add acc (Q.mul c y.(i))) Q.zero terms in
         if Q.compare lhs demand < 0 then Some r else None)

(* [b] with a basic surplus for every row added since it was taken *)
let pad (b : Lp.Basis.t) rows =
  Lp.Basis.make ~vstat:b.Lp.Basis.vstat
    ~sstat:(Array.init rows (fun i -> if i < b.Lp.Basis.b_nrows then b.Lp.Basis.sstat.(i) else Lp.Basis.Basic))

let resolve ?rule ?engine ?from ?budget ?(obs = Obs.null) lp =
  let rec round from =
    Obs.incr obs "active.lp1.rounds";
    lp.solves <- lp.solves + 1;
    let rows = Lp.num_constraints lp.model in
    let warm, start =
      match from with
      | Some (b : Lp.Basis.t) when b.Lp.Basis.b_nrows = rows -> (Some b, None)
      | Some b -> (None, Some (pad b rows))
      | None ->
          ( None,
            Some
              (Lp.Basis.make
                 ~vstat:(Array.make (Array.length lp.y_vars) Lp.Basis.Upper)
                 ~sstat:(Array.make rows Lp.Basis.Basic)) )
    in
    match Lp.solve ?rule ?engine ?warm ?start ?budget ~obs lp.model with
    | Lp.Infeasible -> None
    | Lp.Unbounded -> assert false (* objective is bounded below by 0 *)
    | Lp.Optimal sol -> (
        let basis = Lp.basis sol in
        if basis <> None then lp.basis <- basis;
        let y = Array.map (Lp.value sol) lp.y_vars in
        match separate ~obs lp y with
        | [] ->
            let y = List.mapi (fun i v -> (lp.slots.(i), v)) (Array.to_list y) in
            Some { cost = Lp.objective_value sol; y }
        | cuts ->
            List.iter (add_row lp) cuts;
            Obs.add obs "active.lp1.cuts" (List.length cuts);
            round basis)
  in
  round (match from with None -> lp.basis | b -> b)

let solve ?engine ?budget ?obs inst = resolve ?engine ?budget ?obs (create inst)
