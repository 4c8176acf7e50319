(* Tests for the exact simplex solver: textbook LPs with known optima,
   infeasibility/unboundedness detection, degenerate instances, and
   properties (feasibility of the returned vertex, optimality vs sampled
   feasible points, strong duality on generated primal/dual pairs). *)

module Q = Rational

let q = Q.of_ints
let qi = Q.of_int

let check_opt msg expected result =
  match result with
  | Lp.Optimal s -> Alcotest.(check string) msg expected (Q.to_string (Lp.objective_value s))
  | Lp.Infeasible -> Alcotest.fail (msg ^ ": unexpectedly infeasible")
  | Lp.Unbounded -> Alcotest.fail (msg ^ ": unexpectedly unbounded")

let get_solution = function
  | Lp.Optimal s -> s
  | Lp.Infeasible -> Alcotest.fail "unexpectedly infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpectedly unbounded"

let test_textbook_max () =
  (* max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0. Opt = 36 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 4);
  Lp.add_constraint m [ (qi 2, y) ] Lp.Le (qi 12);
  Lp.add_constraint m [ (qi 3, x); (qi 2, y) ] Lp.Le (qi 18);
  Lp.set_objective m Lp.Maximize [ (qi 3, x); (qi 5, y) ];
  let r = Lp.solve m in
  check_opt "objective" "36" r;
  let s = get_solution r in
  Alcotest.(check string) "x" "2" (Q.to_string (Lp.value s x));
  Alcotest.(check string) "y" "6" (Q.to_string (Lp.value s y))

let test_textbook_min () =
  (* min 2x + 3y s.t. x + y >= 4; x + 3y >= 6; x,y >= 0. Opt at (3,1): 9 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m [ (qi 1, x); (qi 1, y) ] Lp.Ge (qi 4);
  Lp.add_constraint m [ (qi 1, x); (qi 3, y) ] Lp.Ge (qi 6);
  Lp.set_objective m Lp.Minimize [ (qi 2, x); (qi 3, y) ];
  check_opt "objective" "9" (Lp.solve m)

let test_equality () =
  (* min x + y s.t. x + 2y = 4; x - y = 1 -> x = 2, y = 1 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m [ (qi 1, x); (qi 2, y) ] Lp.Eq (qi 4);
  Lp.add_constraint m [ (qi 1, x); (qi (-1), y) ] Lp.Eq (qi 1);
  Lp.set_objective m Lp.Minimize [ (qi 1, x); (qi 1, y) ];
  let r = Lp.solve m in
  check_opt "objective" "3" r;
  let s = get_solution r in
  Alcotest.(check string) "x" "2" (Q.to_string (Lp.value s x));
  Alcotest.(check string) "y" "1" (Q.to_string (Lp.value s y))

let test_fractional_optimum () =
  (* max x + y s.t. 2x + y <= 3; x + 2y <= 3 -> x = y = 1; but with
     2x + y <= 2, x + 2y <= 2 -> x = y = 2/3, objective 4/3. *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
  Lp.add_constraint m [ (qi 2, x); (qi 1, y) ] Lp.Le (qi 2);
  Lp.add_constraint m [ (qi 1, x); (qi 2, y) ] Lp.Le (qi 2);
  Lp.set_objective m Lp.Maximize [ (qi 1, x); (qi 1, y) ];
  check_opt "objective" "4/3" (Lp.solve m)

let test_infeasible () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Ge (qi 5);
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 3);
  Lp.set_objective m Lp.Minimize [ (qi 1, x) ];
  (match Lp.solve m with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Ge (qi 1);
  Lp.set_objective m Lp.Maximize [ (qi 1, x) ];
  (match Lp.solve m with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded")

let test_bounds () =
  (* variable bounds used directly, including a negative lower bound *)
  let m = Lp.create () in
  let x = Lp.add_var ~lower:(qi (-5)) ~upper:(qi (-2)) m "x" in
  let y = Lp.add_var ~lower:(qi 1) ~upper:(qi 3) m "y" in
  Lp.set_objective m Lp.Minimize [ (qi 1, x); (qi 1, y) ];
  let r = Lp.solve m in
  check_opt "objective" "-4" r;
  let s = get_solution r in
  Alcotest.(check string) "x at lower" "-5" (Q.to_string (Lp.value s x));
  Alcotest.(check string) "y at lower" "1" (Q.to_string (Lp.value s y))

let test_upper_bound_binding () =
  let m = Lp.create () in
  let x = Lp.add_var ~upper:(qi 7) m "x" in
  Lp.set_objective m Lp.Maximize [ (qi 2, x) ];
  check_opt "objective" "14" (Lp.solve m)

let test_duplicate_terms () =
  (* x + x <= 4 must behave as 2x <= 4 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m [ (qi 1, x); (qi 1, x) ] Lp.Le (qi 4);
  Lp.set_objective m Lp.Maximize [ (qi 1, x) ];
  check_opt "objective" "2" (Lp.solve m)

let test_degenerate () =
  (* Beale's classic cycling example; must terminate and find opt -1/20.
     min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7
     s.t. 1/4 x4 - 60 x5 - 1/25 x6 + 9 x7 <= 0
          1/2 x4 - 90 x5 - 1/50 x6 + 3 x7 <= 0
          x6 <= 1 *)
  let m = Lp.create () in
  let x4 = Lp.add_var m "x4" and x5 = Lp.add_var m "x5" in
  let x6 = Lp.add_var m "x6" and x7 = Lp.add_var m "x7" in
  Lp.add_constraint m [ (q 1 4, x4); (qi (-60), x5); (q (-1) 25, x6); (qi 9, x7) ] Lp.Le Q.zero;
  Lp.add_constraint m [ (q 1 2, x4); (qi (-90), x5); (q (-1) 50, x6); (qi 3, x7) ] Lp.Le Q.zero;
  Lp.add_constraint m [ (qi 1, x6) ] Lp.Le Q.one;
  Lp.set_objective m Lp.Minimize [ (q (-3) 4, x4); (qi 150, x5); (q (-1) 50, x6); (qi 6, x7) ];
  check_opt "objective" "-1/20" (Lp.solve m)

let test_zero_objective () =
  (* pure feasibility problem *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Ge (qi 2);
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 10);
  check_opt "objective" "0" (Lp.solve m)

let test_redundant_rows () =
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Eq (qi 3);
  Lp.add_constraint m [ (qi 2, x) ] Lp.Eq (qi 6);
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 3);
  Lp.set_objective m Lp.Maximize [ (qi 5, x) ];
  check_opt "objective" "15" (Lp.solve m)

let test_negative_rhs () =
  (* -x <= -3 is x >= 3 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" in
  Lp.add_constraint m [ (qi (-1), x) ] Lp.Le (qi (-3));
  Lp.set_objective m Lp.Minimize [ (qi 1, x) ];
  check_opt "objective" "3" (Lp.solve m)

let test_no_constraints () =
  (* pure bound optimization, no rows at all *)
  let m = Lp.create () in
  let x = Lp.add_var ~lower:(qi 2) ~upper:(qi 9) m "x" in
  Lp.set_objective m Lp.Maximize [ (qi 1, x) ];
  check_opt "objective" "9" (Lp.solve m)

let test_empty_model () =
  let m = Lp.create () in
  check_opt "trivial optimum" "0" (Lp.solve m)

let test_mixed_senses () =
  (* min x + 2y s.t. x + y = 5; x - y >= 1; y <= 3 -> x=4,y=1? check:
     x+y=5, x-y>=1 -> x >= 3; minimize x + 2y = x + 2(5-x) = 10 - x ->
     maximize x -> x as large as possible: y >= 0 -> x <= 5; x=5,y=0:
     x-y=5>=1 ok, y<=3 ok -> objective 5 *)
  let m = Lp.create () in
  let x = Lp.add_var m "x" and y = Lp.add_var ~upper:(qi 3) m "y" in
  Lp.add_constraint m [ (qi 1, x); (qi 1, y) ] Lp.Eq (qi 5);
  Lp.add_constraint m [ (qi 1, x); (qi (-1), y) ] Lp.Ge (qi 1);
  Lp.set_objective m Lp.Minimize [ (qi 1, x); (qi 2, y) ];
  check_opt "objective" "5" (Lp.solve m)

let test_infeasible_by_bounds () =
  let m = Lp.create () in
  let x = Lp.add_var ~lower:(qi 4) ~upper:(qi 10) m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 2);
  (match Lp.solve m with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  Alcotest.check_raises "upper < lower rejected" (Invalid_argument "Lp.add_var: upper < lower")
    (fun () -> ignore (Lp.add_var ~lower:(qi 5) ~upper:(qi 1) m "y"))

let test_unknown_variable_rejected () =
  (* a var handle from a bigger model is out of range in a smaller one *)
  let m1 = Lp.create () in
  let _x = Lp.add_var m1 "x" in
  let m2 = Lp.create () in
  let _y = Lp.add_var m2 "y" in
  let z = Lp.add_var m2 "z" in
  Alcotest.check_raises "foreign var" (Invalid_argument "Lp.add_constraint: unknown variable")
    (fun () -> Lp.add_constraint m1 [ (qi 1, z) ] Lp.Le (qi 1));
  Alcotest.check_raises "objective too" (Invalid_argument "Lp.set_objective: unknown variable")
    (fun () -> Lp.set_objective m1 Lp.Minimize [ (qi 1, z) ])

let test_values_accessor () =
  let m = Lp.create () in
  let _x = Lp.add_var ~upper:(qi 2) m "alpha" in
  Lp.set_objective m Lp.Maximize [ (qi 1, _x) ];
  let s = get_solution (Lp.solve m) in
  Alcotest.(check (list (pair string string))) "values" [ ("alpha", "2") ]
    (List.map (fun (n, v) -> (n, Q.to_string v)) (Lp.values s))

(* -- properties ---------------------------------------------------------- *)

(* Random box-constrained minimization with <= rows whose rhs >= 0: always
   feasible at the origin. Check (1) returned point satisfies everything;
   (2) no sampled feasible point beats the optimum. *)

type rand_lp = { nv : int; rows : (int array * int) list; costs : int array; ubs : int array }

let lp_gen =
  let open QCheck.Gen in
  let* nv = int_range 1 5 in
  let* nr = int_range 0 6 in
  let row = pair (array_size (return nv) (int_range (-4) 6)) (int_range 0 20) in
  let* rows = list_size (return nr) row in
  let* costs = array_size (return nv) (int_range (-5) 5) in
  let* ubs = array_size (return nv) (int_range 0 8) in
  return { nv; rows; costs; ubs }

let lp_arb =
  QCheck.make lp_gen ~print:(fun l ->
      Printf.sprintf "nv=%d costs=[%s] ubs=[%s] rows=[%s]" l.nv
        (String.concat ";" (Array.to_list (Array.map string_of_int l.costs)))
        (String.concat ";" (Array.to_list (Array.map string_of_int l.ubs)))
        (String.concat " | "
           (List.map
              (fun (r, b) ->
                Printf.sprintf "%s <= %d" (String.concat "+" (Array.to_list (Array.map string_of_int r))) b)
              l.rows)))

let build_lp l =
  let m = Lp.create () in
  let vars = Array.init l.nv (fun i -> Lp.add_var ~upper:(qi l.ubs.(i)) m (Printf.sprintf "x%d" i)) in
  List.iter
    (fun (r, b) ->
      let terms = Array.to_list (Array.mapi (fun i c -> (qi c, vars.(i))) r) in
      Lp.add_constraint m terms Lp.Le (qi b))
    l.rows;
  Lp.set_objective m Lp.Minimize (Array.to_list (Array.mapi (fun i c -> (qi c, vars.(i))) l.costs));
  (m, vars)

let feasible l (point : Q.t array) =
  let ok_box = Array.for_all2 (fun x u -> Q.compare x Q.zero >= 0 && Q.compare x (qi u) <= 0) point l.ubs in
  ok_box
  && List.for_all
       (fun (r, b) ->
         let lhs = ref Q.zero in
         Array.iteri (fun i c -> lhs := Q.add !lhs (Q.mul (qi c) point.(i))) r;
         Q.compare !lhs (qi b) <= 0)
       l.rows

let cost_at l point =
  let c = ref Q.zero in
  Array.iteri (fun i coef -> c := Q.add !c (Q.mul (qi coef) point.(i))) l.costs;
  !c

let prop_solution_feasible =
  QCheck.Test.make ~name:"returned vertex is feasible" ~count:600 lp_arb (fun l ->
      let m, vars = build_lp l in
      match Lp.solve m with
      | Lp.Optimal s -> feasible l (Array.map (Lp.value s) vars)
      | Lp.Infeasible | Lp.Unbounded -> false (* box LPs are always feasible and bounded *))

let prop_no_sample_beats_optimum =
  QCheck.Test.make ~name:"no sampled feasible point beats the optimum" ~count:400
    (QCheck.pair lp_arb (QCheck.make QCheck.Gen.(list_size (return 30) (int_range 0 1000))))
    (fun (l, seeds) ->
      let m, _ = build_lp l in
      match Lp.solve m with
      | Lp.Optimal s ->
          let opt = Lp.objective_value s in
          List.for_all
            (fun seed ->
              let point = Array.init l.nv (fun i -> q ((seed * (i + 3)) mod (l.ubs.(i) + 1)) 1) in
              (not (feasible l point)) || Q.compare opt (cost_at l point) <= 0)
            seeds
      | _ -> false)

(* Strong duality: primal min cx, Ax >= b, x >= 0 with b <= 0 (primal
   feasible at 0) and c >= 0 (dual feasible at 0). Dual: max by, A^T y <= c,
   y >= 0. Optimal values must coincide. *)
let duality_gen =
  let open QCheck.Gen in
  let* nv = int_range 1 4 in
  let* nr = int_range 1 4 in
  let* a = array_size (return nr) (array_size (return nv) (int_range (-3) 5)) in
  let* b = array_size (return nr) (int_range (-6) 0) in
  let* c = array_size (return nv) (int_range 0 6) in
  return (a, b, c)

let duality_arb =
  QCheck.make duality_gen ~print:(fun (a, b, c) ->
      let row r = "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int r)) ^ "]" in
      Printf.sprintf "A=%s b=%s c=%s" (String.concat "" (Array.to_list (Array.map row a))) (row b) (row c))

let prop_strong_duality =
  QCheck.Test.make ~name:"strong duality on feasible primal/dual pairs" ~count:400 duality_arb
    (fun (a, b, c) ->
      let nr = Array.length a and nv = Array.length c in
      let primal = Lp.create () in
      let xs = Array.init nv (fun i -> Lp.add_var primal (Printf.sprintf "x%d" i)) in
      Array.iteri
        (fun i row ->
          Lp.add_constraint primal (Array.to_list (Array.mapi (fun j coef -> (qi coef, xs.(j))) row)) Lp.Ge (qi b.(i)))
        a;
      Lp.set_objective primal Lp.Minimize (Array.to_list (Array.mapi (fun j coef -> (qi coef, xs.(j))) c));
      let dual = Lp.create () in
      let ys = Array.init nr (fun i -> Lp.add_var dual (Printf.sprintf "y%d" i)) in
      for j = 0 to nv - 1 do
        Lp.add_constraint dual (Array.to_list (Array.mapi (fun i row -> (qi row.(j), ys.(i))) a)) Lp.Le (qi c.(j))
      done;
      Lp.set_objective dual Lp.Maximize (Array.to_list (Array.mapi (fun i bi -> (qi bi, ys.(i))) b));
      match (Lp.solve primal, Lp.solve dual) with
      | Lp.Optimal p, Lp.Optimal d -> Q.equal (Lp.objective_value p) (Lp.objective_value d)
      | _ -> false)

(* -- engine agreement and warm starts ------------------------------------ *)

(* Unrestricted generator: mixed senses, negative lower bounds, optional
   upper bounds and signed rhs, so all three statuses (and degenerate
   vertices) occur. Used to check the Revised and Dense engines against
   each other and warm against cold re-solves. *)
type any_lp = {
  g_nv : int;
  g_lo : int array;
  g_hi : int option array; (* lower + span, so upper >= lower *)
  g_rows : (int array * int * int) list; (* coeffs, sense 0/1/2, rhs *)
  g_costs : int array;
  g_max : bool;
}

let any_gen =
  let open QCheck.Gen in
  let* nv = int_range 1 5 in
  let* nr = int_range 0 6 in
  let* lo = array_size (return nv) (int_range (-3) 3) in
  let* span = array_size (return nv) (opt (int_range 0 6)) in
  let row = triple (array_size (return nv) (int_range (-4) 6)) (int_range 0 2) (int_range (-8) 12) in
  let* rows = list_size (return nr) row in
  let* costs = array_size (return nv) (int_range (-5) 5) in
  let* maxi = bool in
  return
    {
      g_nv = nv;
      g_lo = lo;
      g_hi = Array.map2 (fun l s -> Option.map (fun s -> l + s) s) lo span;
      g_rows = rows;
      g_costs = costs;
      g_max = maxi;
    }

let any_arb =
  QCheck.make any_gen ~print:(fun l ->
      Printf.sprintf "nv=%d lo=[%s] hi=[%s] costs=[%s] %s rows=[%s]" l.g_nv
        (String.concat ";" (Array.to_list (Array.map string_of_int l.g_lo)))
        (String.concat ";"
           (Array.to_list (Array.map (function None -> "inf" | Some u -> string_of_int u) l.g_hi)))
        (String.concat ";" (Array.to_list (Array.map string_of_int l.g_costs)))
        (if l.g_max then "max" else "min")
        (String.concat " | "
           (List.map
              (fun (r, s, b) ->
                Printf.sprintf "%s %s %d"
                  (String.concat "+" (Array.to_list (Array.map string_of_int r)))
                  (match s with 0 -> "<=" | 1 -> ">=" | _ -> "=")
                  b)
              l.g_rows)))

let build_any l =
  let m = Lp.create () in
  let vars =
    Array.init l.g_nv (fun i ->
        Lp.add_var ~lower:(qi l.g_lo.(i)) ?upper:(Option.map qi l.g_hi.(i)) m (Printf.sprintf "x%d" i))
  in
  List.iter
    (fun (r, s, b) ->
      let sense = match s with 0 -> Lp.Le | 1 -> Lp.Ge | _ -> Lp.Eq in
      Lp.add_constraint m (Array.to_list (Array.mapi (fun i c -> (qi c, vars.(i))) r)) sense (qi b))
    l.g_rows;
  Lp.set_objective m
    (if l.g_max then Lp.Maximize else Lp.Minimize)
    (Array.to_list (Array.mapi (fun i c -> (qi c, vars.(i))) l.g_costs));
  (m, vars)

let any_feasible l (point : Q.t array) =
  let ok_box = ref true in
  Array.iteri
    (fun i x ->
      if Q.compare x (qi l.g_lo.(i)) < 0 then ok_box := false;
      match l.g_hi.(i) with
      | Some u when Q.compare x (qi u) > 0 -> ok_box := false
      | _ -> ())
    point;
  !ok_box
  && List.for_all
       (fun (r, s, b) ->
         let lhs = ref Q.zero in
         Array.iteri (fun i c -> lhs := Q.add !lhs (Q.mul (qi c) point.(i))) r;
         match s with
         | 0 -> Q.compare !lhs (qi b) <= 0
         | 1 -> Q.compare !lhs (qi b) >= 0
         | _ -> Q.equal !lhs (qi b))
       l.g_rows

let prop_engines_agree =
  QCheck.Test.make ~name:"all registered engines agree (status + objective)" ~count:600 any_arb
    (fun l ->
      let m, vars = build_any l in
      let baseline = Lp.solve m in
      List.for_all
        (fun engine ->
          match (baseline, Lp.solve ~engine m) with
          | Lp.Optimal a, Lp.Optimal b ->
              Q.equal (Lp.objective_value a) (Lp.objective_value b)
              && any_feasible l (Array.map (Lp.value a) vars)
              && any_feasible l (Array.map (Lp.value b) vars)
          | Lp.Infeasible, Lp.Infeasible -> true
          | Lp.Unbounded, Lp.Unbounded -> true
          | _ -> false)
        [ Lp.Dense; Lp.Float_certified; Lp.Revised ])

(* After arbitrary bound rewrites, a warm re-solve from the previous
   basis must return exactly what a cold solve of the same model does. *)
let prop_warm_matches_cold =
  QCheck.Test.make ~name:"warm-started re-solve = cold re-solve" ~count:400
    (QCheck.pair any_arb
       (QCheck.make QCheck.Gen.(list_size (return 3) (triple (int_range 0 4) (int_range (-3) 3) (int_range 0 5)))))
    (fun (l, tweaks) ->
      let m, vars = build_any l in
      match Lp.solve m with
      | Lp.Infeasible | Lp.Unbounded -> true (* nothing to warm-start from *)
      | Lp.Optimal s0 -> (
          let warm = Option.get (Lp.basis s0) in
          List.iter
            (fun (vi, lo, span) ->
              if vi < l.g_nv then
                Lp.set_bounds m vars.(vi) ~lower:(qi lo) ~upper:(Some (qi (lo + span))))
            tweaks;
          match (Lp.solve ~warm m, Lp.solve m) with
          | Lp.Optimal a, Lp.Optimal b -> Q.equal (Lp.objective_value a) (Lp.objective_value b)
          | Lp.Infeasible, Lp.Infeasible -> true
          | Lp.Unbounded, Lp.Unbounded -> true
          | _ -> false))

let test_warm_start_counters () =
  (* tightening a bound of an optimal basis: the warm re-solve reuses it
     (lp.warm_starts = 1) and costs at most a short dual repair, never a
     phase-1 restart (lp.phase1_pivots = 0) *)
  let m = Lp.create () in
  let x = Lp.add_var ~upper:(qi 4) m "x" and y = Lp.add_var ~upper:(qi 6) m "y" in
  Lp.add_constraint m [ (qi 1, x); (qi 1, y) ] Lp.Le (qi 8);
  Lp.add_constraint m [ (qi 1, x); (qi (-1), y) ] Lp.Ge (qi (-4));
  Lp.set_objective m Lp.Maximize [ (qi 2, x); (qi 3, y) ];
  let s0 = get_solution (Lp.solve m) in
  Alcotest.(check string) "cold objective" "22" (Q.to_string (Lp.objective_value s0));
  let warm = Option.get (Lp.basis s0) in
  Lp.set_bounds m y ~lower:Q.zero ~upper:(Some (qi 3));
  let obs = Obs.create () in
  let s1 = get_solution (Lp.solve ~warm ~obs m) in
  Alcotest.(check string) "warm objective" "17" (Q.to_string (Lp.objective_value s1));
  let counter name = try List.assoc name (Obs.counters obs) with Not_found -> 0 in
  Alcotest.(check int) "warm start taken" 1 (counter "lp.warm_starts");
  Alcotest.(check int) "no phase-1 work" 0 (counter "lp.phase1_pivots");
  (* and the warm result agrees with a cold solve of the same model *)
  let s2 = get_solution (Lp.solve m) in
  Alcotest.(check string) "cold re-solve agrees" "17" (Q.to_string (Lp.objective_value s2))

let test_engine_introspection () =
  let m = Lp.create () in
  let x = Lp.add_var ~upper:(qi 5) m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 3);
  Lp.set_objective m Lp.Maximize [ (qi 1, x) ];
  let r = get_solution (Lp.solve ~engine:Lp.Revised m) in
  let d = get_solution (Lp.solve ~engine:Lp.Dense m) in
  Alcotest.(check bool) "revised carries a basis" true (Lp.basis r <> None);
  Alcotest.(check bool) "dense has no basis" true (Lp.basis d = None);
  Alcotest.(check bool) "pivot counts are non-negative" true (Lp.pivots r >= 0 && Lp.pivots d >= 0)

let cert_to_string = function
  | Lp.Exact -> "Exact"
  | Lp.Certified -> "Certified"
  | Lp.Fallback -> "Fallback"

let check_cert msg want s = Alcotest.(check string) msg want (cert_to_string (Lp.certification s))

let test_certification_provenance () =
  let build () =
    let m = Lp.create () in
    let x = Lp.add_var m "x" and y = Lp.add_var m "y" in
    Lp.add_constraint m [ (qi 2, x); (qi 1, y) ] Lp.Le (qi 10);
    Lp.add_constraint m [ (qi 1, x); (qi 3, y) ] Lp.Le (qi 15);
    Lp.set_objective m Lp.Maximize [ (qi 3, x); (qi 4, y) ];
    m
  in
  let r = get_solution (Lp.solve ~engine:Lp.Revised (build ())) in
  let d = get_solution (Lp.solve ~engine:Lp.Dense (build ())) in
  check_cert "revised is exact" "Exact" r;
  check_cert "dense is exact" "Exact" d;
  let obs = Obs.create () in
  let f = get_solution (Lp.solve ~engine:Lp.Float_certified ~obs (build ())) in
  check_cert "well-conditioned model certifies" "Certified" f;
  Alcotest.(check string)
    "certified objective is bit-identical" (Q.to_string (Lp.objective_value r))
    (Q.to_string (Lp.objective_value f));
  let counter name = try List.assoc name (Obs.counters obs) with Not_found -> 0 in
  Alcotest.(check int) "certify_ok" 1 (counter "lp.certify_ok");
  Alcotest.(check int) "no certify_fail" 0 (counter "lp.certify_fail");
  Alcotest.(check int) "no fallback" 0 (counter "lp.fallbacks");
  Alcotest.(check bool) "float pivots recorded" true (counter "lp.float_pivots" > 0);
  Alcotest.(check bool) "certify ops recorded" true (counter "lp.certify_ops" > 0);
  (* the float engine hands back a certified basis usable as ?warm *)
  Alcotest.(check bool) "certified solution carries a basis" true (Lp.basis f <> None)

let build_trap (t : Workload.Gadgets.float_trap_gadget) =
  let m = Lp.create () in
  let vars = List.map (Lp.add_var m) t.ft_vars in
  List.iter
    (fun (coeffs, rhs) -> Lp.add_constraint m (List.combine coeffs vars) Lp.Le rhs)
    t.ft_rows;
  Lp.set_objective m Lp.Maximize (List.combine t.ft_obj vars);
  m

(* The float_trap gadget: the optimal column's advantage is below one ulp
   of double, so the float simplex terminates on the wrong vertex and
   exact certification must catch it — pinning the fallback path and its
   counters. The identical family at a representable ulp_exp is the
   control: it must certify. *)
let test_certify_fail_fallback () =
  let trap = Workload.Gadgets.float_trap ~pairs:4 ~ulp_exp:54 in
  let obs = Obs.create () in
  let s = get_solution (Lp.solve ~engine:Lp.Float_certified ~obs (build_trap trap)) in
  check_cert "trapped model falls back" "Fallback" s;
  let counter name = try List.assoc name (Obs.counters obs) with Not_found -> 0 in
  Alcotest.(check int) "certify_fail pinned" 1 (counter "lp.certify_fail");
  Alcotest.(check int) "fallbacks pinned" 1 (counter "lp.fallbacks");
  Alcotest.(check int) "no certify_ok" 0 (counter "lp.certify_ok");
  (* the fallback answer is the exact optimum, bit-identical to revised *)
  let r = get_solution (Lp.solve ~engine:Lp.Revised (build_trap trap)) in
  Alcotest.(check string)
    "fallback matches exact" (Q.to_string trap.ft_opt)
    (Q.to_string (Lp.objective_value s));
  Alcotest.(check string)
    "revised agrees" (Q.to_string trap.ft_opt)
    (Q.to_string (Lp.objective_value r));
  (* control: one ulp_exp inside double's mantissa, same family certifies *)
  let ctrl = Workload.Gadgets.float_trap ~pairs:4 ~ulp_exp:20 in
  let obs2 = Obs.create () in
  let s2 = get_solution (Lp.solve ~engine:Lp.Float_certified ~obs:obs2 (build_trap ctrl)) in
  check_cert "control certifies" "Certified" s2;
  Alcotest.(check string)
    "control objective exact" (Q.to_string ctrl.ft_opt)
    (Q.to_string (Lp.objective_value s2))

(* An ill-conditioned model on which a mid-solve refactorization at
   float precision finds the basis singular. The float engine must treat
   that as a give-up and re-solve exactly, never let the factorization's
   exception escape [Lp.solve]: every engine reports Infeasible. *)
let test_float_singular_falls_back () =
  let ulp k = Q.make Bigint.one (Bigint.pow Bigint.two k) in
  let one_plus k = Q.add Q.one (ulp k) in
  let build () =
    let m = Lp.create () in
    let x =
      Array.mapi (fun i u -> Lp.add_var ~upper:(qi u) m (Printf.sprintf "x%d" i)) [| 1; 3; 1; 4; 1; 1 |]
    in
    let row terms sense rhs =
      Lp.add_constraint m (List.map (fun (c, i) -> (c, x.(i))) terms) sense rhs
    in
    row [ (qi (-1), 0); (q 1 2, 1); (qi (-1), 2); (q 1 3, 3); (one_plus 29, 4); (qi 1, 5) ] Lp.Eq (qi 6);
    row [ (ulp 31, 0); (qi 1, 1); (qi (-1), 2); (qi (-1), 3); (one_plus 26, 4); (qi (-1), 5) ] Lp.Le Q.zero;
    row [ (one_plus 46, 0); (ulp 42, 1); (ulp 29, 2); (qi 1, 3); (ulp 41, 4) ] Lp.Le Q.zero;
    row [ (ulp 23, 0); (qi (-1), 1); (qi (-1), 2); (qi 1, 3); (one_plus 22, 4); (qi (-1), 5) ] Lp.Eq Q.zero;
    row [ (q 1 2, 0); (qi 1, 1); (q (-2) 3, 2); (qi (-1), 3); (qi 1, 4); (qi 2, 5) ] Lp.Eq (q 7 2);
    Lp.set_objective m Lp.Minimize
      [ (qi (-1), x.(1)); (qi 3, x.(2)); (one_plus 31, x.(3)); (qi 1, x.(4)); (qi (-1), x.(5)) ];
    m
  in
  let infeasible name = function
    | Lp.Infeasible -> ()
    | Lp.Optimal _ | Lp.Unbounded -> Alcotest.fail (name ^ ": expected Infeasible")
  in
  infeasible "revised" (Lp.solve ~engine:Lp.Revised (build ()));
  infeasible "dense" (Lp.solve ~engine:Lp.Dense (build ()));
  let obs = Obs.create () in
  infeasible "float" (Lp.solve ~engine:Lp.Float_certified ~obs (build ()));
  Alcotest.(check (option int)) "one exact fallback" (Some 1)
    (List.assoc_opt "lp.fallbacks" (Obs.counters obs))

let test_float_uses_warm () =
  (* since 1.8.0 the float engine restores ?warm in double precision:
     the re-solve repairs feasibility from the snapshot (counted as a
     warm start) and the final basis is still certified exactly *)
  let m = Lp.create () in
  let x = Lp.add_var ~upper:(qi 6) m "x" in
  Lp.add_constraint m [ (qi 1, x) ] Lp.Le (qi 5);
  Lp.set_objective m Lp.Maximize [ (qi 2, x) ];
  let s0 = get_solution (Lp.solve m) in
  let warm = Option.get (Lp.basis s0) in
  Lp.set_bounds m x ~lower:Q.zero ~upper:(Some (qi 3));
  let obs = Obs.create () in
  let s1 = get_solution (Lp.solve ~engine:Lp.Float_certified ~warm ~obs m) in
  Alcotest.(check string) "objective" "6" (Q.to_string (Lp.objective_value s1));
  check_cert "warm float still certifies" "Certified" s1;
  Alcotest.(check bool)
    "warm snapshot was reused" true
    (List.assoc_opt "lp.warm_starts" (Obs.counters obs) = Some 1)

(* Golden work profile of the revised engine's sparse LU driver: the
   pivot count and the LU bookkeeping counters (refactorizations, eta
   updates, fill) pinned on a small mixed-sense model, where every pivot
   stays within one eta file, and on LP1 of a tall single-window gadget,
   whose solve crosses the 64-eta refactorization cap. A diff means the
   pivot rules or the refactorization policy changed, which must be a
   conscious decision, not an accident. *)
let test_sparse_golden_counters () =
  let counters build =
    let obs = Obs.create () in
    let s = get_solution (Lp.solve ~engine:Lp.Revised ~obs (build ())) in
    check_cert "revised is exact" "Exact" s;
    (s, fun name -> try List.assoc name (Obs.counters obs) with Not_found -> 0)
  in
  let small () =
    let m = Lp.create () in
    let x = Lp.add_var ~upper:(qi 4) m "x" and y = Lp.add_var ~upper:(qi 6) m "y" in
    let z = Lp.add_var m "z" in
    Lp.add_constraint m [ (qi 1, x); (qi 1, y); (qi 1, z) ] Lp.Le (qi 8);
    Lp.add_constraint m [ (qi 1, x); (qi (-1), y) ] Lp.Ge (qi (-4));
    Lp.add_constraint m [ (qi 1, x); (qi 2, z) ] Lp.Eq (qi 5);
    Lp.set_objective m Lp.Maximize [ (qi 2, x); (qi 3, y); (qi 1, z) ];
    m
  in
  let s, counter = counters small in
  let d = get_solution (Lp.solve ~engine:Lp.Dense (small ())) in
  Alcotest.(check string)
    "objective matches dense" (Q.to_string (Lp.objective_value d))
    (Q.to_string (Lp.objective_value s));
  Alcotest.(check int) "pivots" 3 (counter "lp.pivots");
  Alcotest.(check int) "refactorizations" 1 (counter "lp.refactorizations");
  Alcotest.(check int) "eta updates" 3 (counter "lp.eta_updates");
  Alcotest.(check bool) "fill recorded" true (counter "lp.fill_nonzeros" > 0);
  Alcotest.(check bool) "exact cells recorded" true (counter "lp.exact_cells" > 0);
  let tall () = fst (Active.Lp_model.build_lp1 (Workload.Gadgets.lp1_tall ~g:3 ~jobs:9 ~length:2)) in
  let s, counter = counters tall in
  Alcotest.(check string) "tall objective (lp1_tall_lp_opt)" "6" (Q.to_string (Lp.objective_value s));
  Alcotest.(check int) "tall pivots" 65 (Lp.pivots s);
  Alcotest.(check int) "tall refactorizations" 3 (counter "lp.refactorizations");
  Alcotest.(check int) "tall eta updates" 66 (counter "lp.eta_updates")

(* -- ?start: a caller-built feasible basis in place of phase 1 ------------ *)

(* min x + y s.t. x + 2y >= 4, 2x + 4y <= 20, 3x + y >= 6, 0 <= x, y <= 5:
   optimum 14/5 at (8/5, 6/5). Its two Ge rows need artificials, so a cold
   solve runs phase 1. *)
let start_model () =
  let m = Lp.create () in
  let x = Lp.add_var ~upper:(qi 5) m "x" and y = Lp.add_var ~upper:(qi 5) m "y" in
  Lp.add_constraint m [ (qi 1, x); (qi 2, y) ] Lp.Ge (qi 4);
  Lp.add_constraint m [ (qi 2, x); (qi 4, y) ] Lp.Le (qi 20);
  Lp.add_constraint m [ (qi 3, x); (qi 1, y) ] Lp.Ge (qi 6);
  Lp.set_objective m Lp.Minimize [ (qi 1, x); (qi 1, y) ];
  m

(* Solve [m] from [start]; returns the objective and a counter reader. *)
let solve_from ?engine ?warm ~start m =
  let obs = Obs.create () in
  let s = get_solution (Lp.solve ?engine ?warm ~start ~obs m) in
  let counter name = Option.value (List.assoc_opt name (Obs.counters obs)) ~default:0 in
  (Q.to_string (Lp.objective_value s), counter)

let test_start_taken () =
  let open Lp.Basis in
  (* x at its upper bound 5, y at 0, every slack basic: primal feasible *)
  let start = make ~vstat:[| Upper; Lower |] ~sstat:[| Basic; Basic; Basic |] in
  List.iter
    (fun (name, engine) ->
      let obj, counter = solve_from ~engine ~start (start_model ()) in
      Alcotest.(check string) (name ^ ": objective") "14/5" obj;
      Alcotest.(check int) (name ^ ": no phase 1") 0 (counter "lp.phase1_pivots");
      Alcotest.(check int) (name ^ ": not a warm start") 0 (counter "lp.warm_starts"))
    [ ("revised", Lp.Revised); ("float", Lp.Float_certified) ];
  (* the dense reference ignores it and runs phase 1 *)
  let obj, counter = solve_from ~engine:Lp.Dense ~start (start_model ()) in
  Alcotest.(check string) "dense objective" "14/5" obj;
  Alcotest.(check bool) "dense runs phase 1" true (counter "lp.phase1_pivots" > 0);
  (* LP1 by the cut loop over y: the tall gadget's 65 cold x-form pivots
     (pinned in the golden counters above) drop to 6, none of them in
     phase 1 *)
  let obs = Obs.create () in
  let tall = Workload.Gadgets.lp1_tall ~g:3 ~jobs:9 ~length:2 in
  let lp = Option.get (Active.Lp_model.solve ~obs tall) in
  let counter name = Option.value (List.assoc_opt name (Obs.counters obs)) ~default:0 in
  Alcotest.(check string) "tall objective" "6" (Q.to_string lp.Active.Lp_model.cost);
  Alcotest.(check int) "tall: no phase 1" 0 (counter "lp.phase1_pivots");
  Alcotest.(check int) "tall pivots" 6 (counter "lp.pivots")

let test_start_unusable () =
  let open Lp.Basis in
  let cold = Q.to_string (Lp.objective_value (get_solution (Lp.solve (start_model ())))) in
  Alcotest.(check string) "cold objective" "14/5" cold;
  let falls_back name start =
    List.iter
      (fun (tag, engine) ->
        let label = Printf.sprintf "%s (%s)" name tag in
        let obj, counter = solve_from ~engine ~start (start_model ()) in
        Alcotest.(check string) (label ^ ": cold answer") cold obj;
        Alcotest.(check int) (label ^ ": not a warm start") 0 (counter "lp.warm_starts");
        if engine = Lp.Revised then
          Alcotest.(check bool) (label ^ ": phase 1 ran") true (counter "lp.phase1_pivots" > 0))
      [ ("revised", Lp.Revised); ("float", Lp.Float_certified) ]
  in
  falls_back "wrong dimensions" (make ~vstat:[| Basic |] ~sstat:[| Basic; Basic |]);
  falls_back "too few basics" (make ~vstat:[| Lower; Lower |] ~sstat:[| Basic; Basic; Lower |]);
  (* x, y and the third row's surplus: rows 1 and 2 are proportional *)
  falls_back "singular" (make ~vstat:[| Basic; Basic |] ~sstat:[| Lower; Lower; Basic |]);
  (* both at 5 breaks row 2, and a variable at its upper bound with cost
     1 is not dual feasible either *)
  falls_back "neither primal nor dual feasible"
    (make ~vstat:[| Upper; Upper |] ~sstat:[| Basic; Basic; Basic |]);
  (* the slack basis breaks both Ge rows but is dual feasible: the warm
     machinery's dual repair reaches the optimum without phase 1 *)
  let obj, counter =
    solve_from ~start:(make ~vstat:[| Lower; Lower |] ~sstat:[| Basic; Basic; Basic |]) (start_model ())
  in
  Alcotest.(check string) "primal infeasible: cold answer" cold obj;
  Alcotest.(check int) "primal infeasible: repaired, no phase 1" 0 (counter "lp.phase1_pivots");
  (* the empty model, with an empty and with a misfit start *)
  List.iter
    (fun start ->
      let obj, _ = solve_from ~start (Lp.create ()) in
      Alcotest.(check string) "empty model" "0" obj)
    [ make ~vstat:[||] ~sstat:[||]; make ~vstat:[| Basic |] ~sstat:[||] ]

let test_start_precedence () =
  let open Lp.Basis in
  let start = make ~vstat:[| Upper; Lower |] ~sstat:[| Basic; Basic; Basic |] in
  let optimum = Option.get (Lp.basis (get_solution (Lp.solve (start_model ())))) in
  (* an explicit ?warm wins: the solve counts a warm start *)
  let obj, counter = solve_from ~warm:optimum ~start (start_model ()) in
  Alcotest.(check string) "?warm objective" "14/5" obj;
  Alcotest.(check int) "?warm taken over ?start" 1 (counter "lp.warm_starts");
  Alcotest.(check int) "?warm: no pivots" 0 (counter "lp.pivots")

(* -- engine races on the repo's LP families ------------------------------- *)

let objective s = Q.to_string (Lp.objective_value s)

let lp1 seed =
  let params : Workload.Generate.slotted_params =
    { n = 10; horizon = 16; max_length = 4; slack = 4; g = 2 }
  in
  Active.Lp_model.build_lp1 (Workload.Generate.slotted ~params ~seed ())

(* The six models of the engine races: LP1 of three slotted instances
   and the preemptive busy-time event-grid LP of three interval streams. *)
let families () =
  List.map (fun s -> (Printf.sprintf "lp1/s%d" s, fst (lp1 s))) [ 3; 8; 9 ]
  @ List.map
      (fun s ->
        ( Printf.sprintf "busy/s%d" s,
          Busy.Preemptive.lp_model
            (Workload.Generate.interval_jobs ~n:20 ~horizon:60 ~max_length:8 ~seed:s ()) ))
      [ 0; 1; 2 ]

(* Dense, revised, and revised warm from its own optimal basis agree on
   the objective; returns the dense and revised solutions. *)
let dense_revised_warm name m =
  let d = get_solution (Lp.solve ~engine:Lp.Dense m) in
  let r = get_solution (Lp.solve ~engine:Lp.Revised m) in
  let w = get_solution (Lp.solve ~engine:Lp.Revised ?warm:(Lp.basis r) m) in
  Alcotest.(check string) (name ^ ": dense = revised") (objective d) (objective r);
  Alcotest.(check string) (name ^ ": warm = cold") (objective r) (objective w);
  (d, r)

let test_families_dense_revised () =
  List.iter2
    (fun (name, m) pivots ->
      let d, r = dense_revised_warm name m in
      Alcotest.(check (pair int int)) (name ^ ": (dense, revised) pivots") pivots
        (Lp.pivots d, Lp.pivots r))
    (families ())
    [ (130, 64); (118, 55); (119, 53); (117, 62); (116, 58); (123, 64) ]

(* The float engine picks the basis in double precision and certifies it
   with one exact refactorization, so it does far less rational work
   (lp.exact_cells) than the exact engine touches (tableau_cells):
   16,033 vs 2,448 cells over the six models. *)
let test_families_float_certified () =
  let exact, float =
    List.fold_left
      (fun (exact, float) (name, m) ->
        let r = get_solution (Lp.solve ~engine:Lp.Revised m) in
        let obs = Obs.create () in
        let f = get_solution (Lp.solve ~engine:Lp.Float_certified ~obs m) in
        Alcotest.(check string) (name ^ ": float = revised") (objective r) (objective f);
        check_cert (name ^ ": certifies") "Certified" f;
        (exact + Lp.tableau_cells r, float + List.assoc "lp.exact_cells" (Obs.counters obs)))
      (0, 0) (families ())
  in
  Alcotest.(check bool) (Printf.sprintf "exact work %d >= 5x float work %d" exact float) true
    (exact >= 5 * float)

(* Sixteen rounds of the ILP search's access pattern on seed-3 LP1:
   round i toggles y_(i mod ny) between fixed open (lower bound 1, the
   branch-up rewrite) and free. Opening slots never loses feasibility,
   so every solve is optimal. Each round solves the rewritten model
   dense, cold under [engine], and under [engine] warm from the previous
   round's warm basis; returns the three solutions per round. *)
let probe_rounds engine =
  let m, y_vars = lp1 3 in
  let ys = Array.of_list (List.map snd y_vars) in
  let fixed_open = Array.make (Array.length ys) false in
  let warm = ref (Lp.basis (get_solution (Lp.solve ~engine m))) in
  let rounds = ref [] in
  for round = 0 to 15 do
    let i = round mod Array.length ys in
    fixed_open.(i) <- not fixed_open.(i);
    Lp.set_bounds m ys.(i) ~lower:(if fixed_open.(i) then Q.one else Q.zero) ~upper:(Some Q.one);
    let d = get_solution (Lp.solve ~engine:Lp.Dense m) in
    let c = get_solution (Lp.solve ~engine m) in
    let w = get_solution (Lp.solve ~engine ?warm:!warm m) in
    Alcotest.(check string) (Printf.sprintf "round %d: dense = cold" round) (objective d) (objective c);
    Alcotest.(check string) (Printf.sprintf "round %d: warm = cold" round) (objective c) (objective w);
    warm := Lp.basis w;
    rounds := (d, c, w) :: !rounds
  done;
  List.rev !rounds

let work pick rounds = List.fold_left (fun acc r -> acc + Lp.tableau_cells (pick r)) 0 rounds

(* warm revised probes touch >= 3x fewer cells than dense ones (368,436
   vs 9,429) *)
let test_revised_warm_probes () =
  let rounds = probe_rounds Lp.Revised in
  let dense = work (fun (d, _, _) -> d) rounds and warm = work (fun (_, _, w) -> w) rounds in
  Alcotest.(check bool) (Printf.sprintf "dense work %d >= 3x warm work %d" dense warm) true
    (dense >= 3 * warm)

(* a float re-solve restores the warm basis, refactorizes, re-enters
   phase 2 and still certifies, below cold float work (14,683 vs 42,822) *)
let test_float_warm_probes () =
  let rounds = probe_rounds Lp.Float_certified in
  let cold = work (fun (_, c, _) -> c) rounds and warm = work (fun (_, _, w) -> w) rounds in
  Alcotest.(check bool) (Printf.sprintf "warm work %d < cold work %d" warm cold) true (warm < cold)

(* sparse_wide: LP1 of disjoint windows, where the dense tableau pays
   for every upper-bounded variable's row (37,211,342 cells over the
   three sizes vs 1,808,324 for revised). The dense solves at 4 and 8
   blocks take ~7 s. *)
let test_sparse_wide () =
  let dense, revised =
    List.fold_left
      (fun (dense, revised) blocks ->
        let name = Printf.sprintf "wide/b%d" blocks in
        let m = fst (Active.Lp_model.build_lp1 (Workload.Gadgets.sparse_wide ~g:16 ~blocks ~width:24)) in
        let d, r = dense_revised_warm name m in
        Alcotest.(check string) (name ^ ": closed form")
          (Q.to_string (Workload.Gadgets.sparse_wide_lp_opt ~g:16 ~blocks))
          (objective r);
        (dense + Lp.tableau_cells d, revised + Lp.tableau_cells r))
      (0, 0) [ 2; 4; 8 ]
  in
  Alcotest.(check bool) (Printf.sprintf "dense work %d >= 3x revised work %d" dense revised) true
    (dense >= 3 * revised)

(* LP1 of random slotted instances, infeasible ones included: the cut
   loop gives the same status and objective under every engine (the
   dense engine solves each round from phase 1; the revised and float
   engines start from all y at 1 and resume each round from the last
   basis); on a feasible instance the revised engine runs no phase-1
   pivot. *)
let prop_lp1_cut_loop =
  QCheck.Test.make ~name:"LP1 cut loop: engines agree, no phase 1" ~count:150
    QCheck.(
      pair (int_range 0 100_000) (quad (int_range 1 10) (int_range 4 14) (int_range 0 3) (int_range 1 3)))
    (fun (seed, (n, horizon, slack, g)) ->
      let params : Workload.Generate.slotted_params = { n; horizon; max_length = 4; slack; g } in
      let inst = Workload.Generate.slotted ~params ~seed () in
      let cost ?obs engine =
        Option.map (fun l -> l.Active.Lp_model.cost) (Active.Lp_model.solve ~engine ?obs inst)
      in
      let obs = Obs.create () in
      let revised = cost ~obs Lp.Revised in
      let phase1 = Option.value (List.assoc_opt "lp.phase1_pivots" (Obs.counters obs)) ~default:0 in
      (revised = None || phase1 = 0)
      && List.for_all
           (fun engine -> Option.equal Q.equal (cost engine) revised)
           [ Lp.Float_certified; Lp.Dense ])

(* -- a model's compiled form, grown in place ------------------------------ *)

(* Edits between solves. [Solve true] passes the last optimal basis as
   [?warm] when the model has the same shape, and [Solve false] always
   passes it as [?start], padded with a lower-bound status for each new
   variable and a basic slack for each new row (the cut loop's start). *)
type edit =
  | Row of (int * int) list * Lp.sense * int
  | Bounds of int * int * int
  | Objective of Lp.objective_direction * (int * int) list
  | Var
  | Solve of bool

let edit_to_string = function
  | Row (t, s, r) ->
      Printf.sprintf "row %s %s %d"
        (String.concat "+" (List.map (fun (v, c) -> Printf.sprintf "%dx%d" c v) t))
        (match s with Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=")
        r
  | Bounds (v, lo, hi) -> Printf.sprintf "x%d in [%d,%d]" v lo hi
  | Objective (d, t) ->
      Printf.sprintf "%s %s"
        (match d with Lp.Minimize -> "min" | Lp.Maximize -> "max")
        (String.concat "+" (List.map (fun (v, c) -> Printf.sprintf "%dx%d" c v) t))
  | Var -> "var"
  | Solve w -> if w then "solve warm" else "solve start"

let edits_arb =
  let open QCheck.Gen in
  let var = int_range 0 7 in
  let terms = list_size (int_range 1 3) (pair var (int_range (-2) 3)) in
  let edit =
    frequency
      [ (4, map3 (fun t s r -> Row (t, s, r)) terms (oneofl [ Lp.Le; Lp.Ge; Lp.Eq ]) (int_range (-2) 6));
        (2, map3 (fun v lo w -> Bounds (v, lo, lo + w)) var (int_range 0 2) (int_range 0 3));
        (1, map2 (fun d t -> Objective (d, t)) (oneofl [ Lp.Minimize; Lp.Maximize ]) terms);
        (1, return Var);
        (4, map (fun w -> Solve w) bool) ]
  in
  QCheck.make
    ~print:(fun es -> String.concat "; " (List.map edit_to_string es))
    (list_size (int_range 1 16) edit)

(* Three variables in [0, 4] and [min sum x]; [Var] adds one more.
   Variable indices wrap around the variables declared so far. *)
let grown_model () =
  let m = Lp.create () in
  let vars = ref (Array.init 3 (fun i -> Lp.add_var ~upper:(qi 4) m (Printf.sprintf "x%d" i))) in
  Lp.set_objective m Lp.Minimize (Array.to_list (Array.map (fun v -> (Q.one, v)) !vars));
  let var i = !vars.(i mod Array.length !vars) in
  let terms = List.map (fun (v, c) -> (qi c, var v)) in
  let apply = function
    | Row (t, s, r) -> Lp.add_constraint m (terms t) s (qi r)
    | Bounds (v, lo, hi) -> Lp.set_bounds m (var v) ~lower:(qi lo) ~upper:(Some (qi hi))
    | Objective (d, t) -> Lp.set_objective m d (terms t)
    | Var ->
        let n = Array.length !vars in
        vars := Array.append !vars [| Lp.add_var ~upper:(qi 4) m (Printf.sprintf "x%d" n) |]
    | Solve _ -> ()
  in
  (m, apply)

let outcome = function
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"
  | Lp.Optimal s ->
      Printf.sprintf "optimal %s at [%s], %d pivots, %d cells" (Q.to_string (Lp.objective_value s))
        (String.concat "," (List.map (fun (_, v) -> Q.to_string v) (Lp.values s)))
        (Lp.pivots s) (Lp.tableau_cells s)

(* The revised engine keeps its compiled problem in the model and grows
   it by the rows added since the last warm or [?start] solve: every such
   solve must match, in status, objective, vertex, pivots and cells, the
   same call on a copy of the model built afresh by the same edits. *)
let prop_compiled_growth =
  QCheck.Test.make ~name:"grown compiled model = fresh model" ~count:300 edits_arb (fun edits ->
      let m, apply = grown_model () in
      let last = ref None in
      let rec go seen = function
        | [] -> true
        | Solve w :: rest ->
            let nv = Lp.num_vars m and rows = Lp.num_constraints m in
            let warm, start =
              match !last with
              | Some (b : Lp.Basis.t) when w && b.Lp.Basis.b_nvars = nv && b.Lp.Basis.b_nrows = rows ->
                  (Some b, None)
              | Some b ->
                  let pad a k fill = Array.init k (fun i -> if i < Array.length a then a.(i) else fill) in
                  ( None,
                    Some
                      (Lp.Basis.make ~vstat:(pad b.Lp.Basis.vstat nv Lp.Basis.Lower)
                         ~sstat:(pad b.Lp.Basis.sstat rows Lp.Basis.Basic)) )
              | None ->
                  ( None,
                    Some
                      (Lp.Basis.make ~vstat:(Array.make nv Lp.Basis.Lower)
                         ~sstat:(Array.make rows Lp.Basis.Basic)) )
            in
            let grown = Lp.solve ?warm ?start m in
            let fresh, apply_fresh = grown_model () in
            List.iter apply_fresh (List.rev seen);
            (match grown with Lp.Optimal s -> last := Lp.basis s | _ -> ());
            outcome grown = outcome (Lp.solve ?warm ?start fresh) && go seen rest
        | e :: rest ->
            apply e;
            go (e :: seen) rest
      in
      go [] edits)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_solution_feasible; prop_no_sample_beats_optimum; prop_strong_duality;
      prop_engines_agree; prop_warm_matches_cold; prop_lp1_cut_loop; prop_compiled_growth ]

let () =
  Alcotest.run "lp"
    [ ( "unit",
        [ Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "textbook min" `Quick test_textbook_min;
          Alcotest.test_case "equalities" `Quick test_equality;
          Alcotest.test_case "fractional optimum" `Quick test_fractional_optimum;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "variable bounds" `Quick test_bounds;
          Alcotest.test_case "upper bound binding" `Quick test_upper_bound_binding;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms;
          Alcotest.test_case "degenerate (Beale)" `Quick test_degenerate;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "no constraints" `Quick test_no_constraints;
          Alcotest.test_case "empty model" `Quick test_empty_model;
          Alcotest.test_case "mixed senses" `Quick test_mixed_senses;
          Alcotest.test_case "infeasible by bounds" `Quick test_infeasible_by_bounds;
          Alcotest.test_case "unknown variable rejected" `Quick test_unknown_variable_rejected;
          Alcotest.test_case "values accessor" `Quick test_values_accessor;
          Alcotest.test_case "warm start counters" `Quick test_warm_start_counters;
          Alcotest.test_case "engine introspection" `Quick test_engine_introspection;
          Alcotest.test_case "certification provenance" `Quick test_certification_provenance;
          Alcotest.test_case "certify-fail fallback" `Quick test_certify_fail_fallback;
          Alcotest.test_case "float uses warm" `Quick test_float_uses_warm;
          Alcotest.test_case "float singular falls back" `Quick test_float_singular_falls_back;
          Alcotest.test_case "sparse golden counters" `Quick test_sparse_golden_counters;
          Alcotest.test_case "start taken" `Quick test_start_taken;
          Alcotest.test_case "unusable start falls back" `Quick test_start_unusable;
          Alcotest.test_case "warm beats start" `Quick test_start_precedence ] );
      ( "families",
        [ Alcotest.test_case "dense vs revised, pinned pivots" `Quick test_families_dense_revised;
          Alcotest.test_case "float certifies, 5x less work" `Quick test_families_float_certified;
          Alcotest.test_case "revised warm probes" `Quick test_revised_warm_probes;
          Alcotest.test_case "float warm probes" `Quick test_float_warm_probes;
          Alcotest.test_case "sparse_wide, 3x less work" `Slow test_sparse_wide ] );
      ("properties", props) ]
