(* Active-time tests: feasibility via G_feas, minimal feasible solutions
   (Theorem 1, Fig. 3), the exact solvers, LP1 (lower bound, integrality
   gap) and the LP rounding 2-approximation (Theorem 2).

   The property tests check, on random small instances, every bound the
   paper proves: minimal <= 3 OPT, LP <= OPT <= rounding <= 2 LP, and
   minimal = OPT for unit jobs. *)

module Q = Rational
module S = Workload.Slotted
module Gen = Workload.Generate
module Gad = Workload.Gadgets

let job = S.job

let small_inst jobs g = S.make ~g jobs

(* -- feasibility --------------------------------------------------------- *)

let test_feasibility_basic () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:2 ~length:2 ] 1 in
  Alcotest.(check bool) "all open feasible" true (Active.Feasibility.feasible inst ~open_slots:[ 1; 2 ]);
  Alcotest.(check bool) "one slot infeasible" false (Active.Feasibility.feasible inst ~open_slots:[ 1 ]);
  Alcotest.(check bool) "irrelevant slot useless" false (Active.Feasibility.feasible inst ~open_slots:[ 1; 3 ])

let test_feasibility_capacity () =
  (* three unit jobs, same single-slot window, g = 2: infeasible *)
  let jobs = List.init 3 (fun id -> job ~id ~release:0 ~deadline:1 ~length:1) in
  Alcotest.(check bool) "over capacity" false
    (Active.Feasibility.feasible (small_inst jobs 2) ~open_slots:[ 1 ]);
  Alcotest.(check bool) "g=3 ok" true (Active.Feasibility.feasible (small_inst jobs 3) ~open_slots:[ 1 ])

let test_feasibility_only_jobs () =
  let jobs =
    [ job ~id:0 ~release:0 ~deadline:1 ~length:1; job ~id:1 ~release:0 ~deadline:1 ~length:1 ]
  in
  let inst = small_inst jobs 1 in
  Alcotest.(check bool) "both jobs too much" false (Active.Feasibility.feasible inst ~open_slots:[ 1 ]);
  Alcotest.(check bool) "restricted to one job" true
    (Active.Feasibility.feasible ~only_jobs:[ 0 ] inst ~open_slots:[ 1 ])

let test_schedule_extraction () =
  let jobs =
    [ job ~id:0 ~release:0 ~deadline:3 ~length:2; job ~id:1 ~release:1 ~deadline:3 ~length:2 ]
  in
  let inst = small_inst jobs 2 in
  let net = Active.Feasibility.network inst in
  (match Active.Feasibility.schedule net ~open_slots:[ 1; 2; 3 ] with
  | None -> Alcotest.fail "expected schedule"
  | Some sched -> Alcotest.(check (option string)) "valid schedule" None (S.check_schedule inst sched));
  Alcotest.(check bool) "infeasible gives none" true
    (Active.Feasibility.schedule net ~open_slots:[ 1 ] = None)

(* Every schedule read off G_feas, pinned. Per instance of [Gen.slotted]
   (n/T 8/14, 12/20 and 20/30, max length 5, slack 6, g 2 and 3, seeds
   1-30): the open slots, each job's slot list and the active.* and
   flow.* counters of Rounding.solve, Minimal.solve in both probe
   modes, on n <= 12 Exact.solve in both probe modes and Ilp.solve (the
   exact searches take seconds on n = 20), and Cascade.solve without a
   limit; the answers and provenance of Cascade.solve at limits 1-40,
   which run out inside the floor, the search and the rounding; and
   Feasibility.feasible ~only_jobs, with its flow.* counters, on random
   job subsets and open sets. Which max flow Dinic returns decides each
   schedule, so a change to how the networks are built or reused that
   is meant to leave the answers alone must leave this digest alone. *)
let test_schedules_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let answer = function
    | None -> Buffer.add_string buf "none"
    | Some (sol : Active.Solution.t) ->
        let ints l = String.concat "," (List.map string_of_int l) in
        Printf.bprintf buf "[%s]" (ints sol.Active.Solution.open_slots);
        List.iter (fun (id, ts) -> Printf.bprintf buf " %d:%s" id (ints ts)) sol.Active.Solution.schedule
  in
  let counters obs =
    List.iter
      (fun (name, v) ->
        if String.starts_with ~prefix:"active." name || String.starts_with ~prefix:"flow." name then
          Printf.bprintf buf " %s=%d" name v)
      (Obs.counters obs)
  in
  let run label f =
    let obs = Obs.create () in
    Printf.bprintf buf "%s " label;
    answer (f obs);
    Buffer.add_string buf " |";
    counters obs;
    Buffer.add_char buf '\n'
  in
  let complete = function Budget.Complete r -> r | Budget.Exhausted _ -> Alcotest.fail "unlimited" in
  List.iter
    (fun ((n, horizon), g) ->
      for seed = 1 to 30 do
        let params : Gen.slotted_params = { n; horizon; max_length = 5; slack = 6; g } in
        let inst = Gen.slotted ~params ~seed () in
        Printf.bprintf buf "# %d %d %d\n" n g seed;
        run "rounding" (fun obs -> Option.map fst (Active.Rounding.solve ~obs inst));
        List.iter
          (fun (mode, oracle) ->
            List.iter
              (fun (dir, order) ->
                run ("minimal " ^ mode ^ dir) (fun obs -> Active.Minimal.solve ~oracle ~obs inst order))
              [ ("ltr", Active.Minimal.Left_to_right); ("rtl", Active.Minimal.Right_to_left) ];
            if n <= 12 then run ("exact " ^ mode) (fun obs -> complete (Active.Exact.solve ~oracle ~obs inst)))
          [ ("incremental ", Active.Feasibility.Incremental); ("rebuild ", Active.Feasibility.Rebuild) ];
        if n <= 12 then run "ilp" (fun obs -> complete (Active.Ilp.solve ~obs inst));
        run "cascade" (fun obs -> fst (Active.Cascade.solve ~obs ~limit:max_int inst));
        for limit = 1 to 40 do
          let sol, prov = Active.Cascade.solve ~limit inst in
          Printf.bprintf buf "cascade %d " limit;
          answer sol;
          Buffer.add_string buf (Format.asprintf " %a\n" Active.Cascade.pp_provenance prov)
        done;
        let rng = Random.State.make [| seed; n; g |] in
        let slots = S.relevant_slots inst in
        for _ = 1 to 8 do
          let only_jobs =
            List.filter_map
              (fun (j : S.job) -> if Random.State.bool rng then Some j.S.id else None)
              (Array.to_list inst.S.jobs)
          in
          let open_slots = List.filter (fun _ -> Random.State.int rng 4 > 0) slots in
          let obs = Obs.create () in
          Printf.bprintf buf "feasible %b |"
            (Active.Feasibility.feasible ~only_jobs ~obs inst ~open_slots);
          counters obs;
          Buffer.add_char buf '\n'
        done
      done)
    (List.concat_map (fun size -> [ (size, 2); (size, 3) ]) [ (8, 14); (12, 20); (20, 30) ]);
  Alcotest.(check string) "digest" "fnv1a64:3ed3e4e0e5c554fc" (Obs.digest (Buffer.contents buf))

(* -- minimal feasible ----------------------------------------------------- *)

let test_minimal_simple () =
  (* one job of length 2 in window of 4: minimal = 2 slots *)
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:4 ~length:2 ] 1 in
  List.iter
    (fun order ->
      match Active.Minimal.solve inst order with
      | None -> Alcotest.fail "feasible instance"
      | Some sol ->
          Alcotest.(check int) "cost" 2 (Active.Solution.cost sol);
          Alcotest.(check (option string)) "valid" None (Active.Solution.verify inst sol);
          Alcotest.(check bool) "minimal" true
            (Active.Minimal.is_minimal inst ~open_slots:sol.Active.Solution.open_slots))
    [ Active.Minimal.Left_to_right; Active.Minimal.Right_to_left; Active.Minimal.Shuffled 7 ]

let test_minimal_infeasible () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:1 ~length:1; job ~id:1 ~release:0 ~deadline:1 ~length:1 ] 1 in
  Alcotest.(check bool) "infeasible" true (Active.Minimal.solve inst Active.Minimal.Left_to_right = None)

let test_minimal_fig3_gadget () =
  let g = 4 in
  let inst = Gad.minimal_feasible_tight g in
  (* the optimal slot set is feasible and costs g *)
  let opt_slots = Gad.minimal_feasible_tight_opt_slots g in
  Alcotest.(check bool) "opt slots feasible" true (Active.Feasibility.feasible inst ~open_slots:opt_slots);
  (* the adversarial start set is feasible and minimalizes to ~3g *)
  let bad = Gad.minimal_feasible_tight_bad_slots g in
  Alcotest.(check bool) "bad slots feasible" true (Active.Feasibility.feasible inst ~open_slots:bad);
  (* the adversarial set is already minimal: every closing order keeps it *)
  Alcotest.(check bool) "bad set is minimal" true (Active.Minimal.is_minimal inst ~open_slots:bad);
  (match Active.Minimal.minimalize inst ~start:bad Active.Minimal.Left_to_right with
  | None -> Alcotest.fail "bad start should be feasible"
  | Some sol ->
      Alcotest.(check int) "bad minimal cost = 3g-2" ((3 * g) - 2) (Active.Solution.cost sol);
      Alcotest.(check bool) "is minimal" true
        (Active.Minimal.is_minimal inst ~open_slots:sol.Active.Solution.open_slots));
  (* exact optimum is g *)
  Alcotest.(check (option int)) "OPT = g" (Some g) (Active.Exact.optimum inst)

(* -- exact solvers -------------------------------------------------------- *)

let test_exact_simple () =
  let inst =
    small_inst
      [ job ~id:0 ~release:0 ~deadline:4 ~length:2; job ~id:1 ~release:0 ~deadline:4 ~length:2 ]
      2
  in
  Alcotest.(check (option int)) "bnb" (Some 2) (Active.Exact.optimum inst);
  match Active.Exact.brute_force inst with
  | None -> Alcotest.fail "feasible"
  | Some sol -> Alcotest.(check int) "brute force" 2 (Active.Solution.cost sol)

let test_exact_infeasible () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:1 ~length:1; job ~id:1 ~release:0 ~deadline:1 ~length:1 ] 1 in
  Alcotest.(check (option int)) "bnb none" None (Active.Exact.optimum inst)

(* ceil(LP1) as the cascade's exact tier computes it, on [budget]; no
   floor when LP1 is infeasible *)
let lp1_floor ?(budget = Budget.unlimited ()) inst () =
  match Active.Lp_model.solve ~budget inst with
  | Some lp -> Q.ceil_int lp.Active.Lp_model.cost
  | None -> 0

let seed_cost inst =
  Option.map Active.Solution.cost (Active.Minimal.solve inst Active.Minimal.Right_to_left)

(* The floor runs inside the search's fuel handler. At every limit from
   none up to what a complete run spends, [solve ~floor] returns an
   outcome and never raises; below the floor's own pivots it runs out
   inside the floor's LP, before the first node, and returns the seed. *)
let test_exact_floor_exhaustion () =
  let inst = Gad.integrality_gap 3 in
  let seed = Option.get (seed_cost inst) in
  Alcotest.(check bool) "seed above ceil(P/g)" true (seed > S.mass_lower_bound inst);
  let spent f =
    let b = Budget.unlimited () in
    ignore (f b);
    Budget.spent b
  in
  let floor_ticks = spent (fun budget -> lp1_floor ~budget inst ()) in
  Alcotest.(check bool) "the floor's LP pivots" true (floor_ticks > 0);
  let run budget = Active.Exact.solve ~budget ~floor:(lp1_floor ~budget inst) inst in
  let total = spent run in
  let opt = Option.get (Active.Exact.optimum inst) in
  for limit = 0 to total do
    let budget = Budget.limited limit in
    let obs = Obs.create () in
    let nodes () = Option.value (List.assoc_opt "active.exact.nodes" (Obs.counters obs)) ~default:0 in
    match Active.Exact.solve ~budget ~floor:(lp1_floor ~budget inst) ~obs inst with
    | Budget.Complete (Some sol) ->
        Alcotest.(check int) (Printf.sprintf "complete only at %d" total) total limit;
        Alcotest.(check int) "optimum" opt (Active.Solution.cost sol)
    | Budget.Exhausted { incumbent = Some sol; _ } ->
        Alcotest.(check bool) (Printf.sprintf "exhausted below %d" total) true (limit < total);
        if limit < floor_ticks then begin
          Alcotest.(check int) "inside the floor: no node" 0 (nodes ());
          Alcotest.(check int) "inside the floor: the seed" seed (Active.Solution.cost sol)
        end
    | Budget.Complete None | Budget.Exhausted { incumbent = None; _ } ->
        Alcotest.failf "limit %d: the instance is feasible" limit
    | exception Budget.Out_of_fuel -> Alcotest.failf "limit %d: Out_of_fuel escaped" limit
  done

(* An exact search over more slots than a machine word has bits: bb_hard
   with 11 groups has 66 relevant slots, so the chosen-open set and the
   Rebuild probe's open set hold indices a one-word set could not. Under
   a 5,000-node budget both probe modes exhaust with the same incumbent
   after the same search. *)
let test_exact_wide () =
  let inst = Gad.bb_hard ~g:2 ~groups:11 ~width:6 in
  Alcotest.(check int) "relevant slots" 66 (List.length (S.relevant_slots inst));
  let run oracle =
    let obs = Obs.create () in
    let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters obs)) in
    match Active.Exact.solve ~budget:(Budget.limited 5000) ~oracle ~obs inst with
    | Budget.Exhausted { incumbent = Some sol; _ } ->
        (sol.Active.Solution.open_slots, counter "active.exact.nodes", counter "active.exact.flow_checks")
    | _ -> Alcotest.fail "5,000 nodes must exhaust with an incumbent"
  in
  let slots, nodes, checks = run Active.Feasibility.Incremental in
  Alcotest.(check int) "incumbent cost" 22 (List.length slots);
  Alcotest.(check int) "nodes" 5000 nodes;
  Alcotest.(check int) "flow checks" 2886 checks;
  Alcotest.(check (triple (list int) int int)) "rebuild = incremental" (slots, nodes, checks)
    (run Active.Feasibility.Rebuild)

(* -- LP ------------------------------------------------------------------- *)

(* LP1's value by the x-form reference model, solved directly: no cut
   loop, no separation *)
let x_form_cost inst =
  match Lp.solve (fst (Active.Lp_model.build_lp1 inst)) with
  | Lp.Optimal sol -> Some (Q.to_string (Lp.objective_value sol))
  | Lp.Infeasible -> None
  | Lp.Unbounded -> Alcotest.fail "LP1 is bounded below by 0"

let test_lp_exact_on_integral () =
  (* instance whose LP optimum is integral: one job, window = length *)
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:3 ~length:3 ] 2 in
  match Active.Lp_model.solve inst with
  | None -> Alcotest.fail "feasible"
  | Some lp -> Alcotest.(check string) "cost 3" "3" (Q.to_string lp.Active.Lp_model.cost)

let test_lp_infeasible () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:1 ~length:1; job ~id:1 ~release:0 ~deadline:1 ~length:1 ] 1 in
  Alcotest.(check bool) "lp infeasible" true (Active.Lp_model.solve inst = None)

let test_lp_assignment_consistency () =
  (* the LP's y must admit a fractional assignment serving each job's
     full demand within capacity and the y values (LP2), and its value
     must be the x-form LP1's *)
  let params : Gen.slotted_params = { n = 6; horizon = 10; max_length = 3; slack = 3; g = 2 } in
  let inst = Gen.slotted ~params ~seed:13 () in
  match Active.Lp_model.solve inst with
  | None -> Alcotest.fail "feasible"
  | Some lp ->
      Alcotest.(check bool) "y admits an assignment" true
        (Active.Lp_model.feasible_with_y inst lp.Active.Lp_model.y);
      Alcotest.(check (option string)) "x-form value"
        (Some (Q.to_string lp.Active.Lp_model.cost))
        (x_form_cost inst)

(* [Lp_model.resolve ?rule] reaches the cut loop's LP solves. With every
   sixth slot closed this LP1 is infeasible, so the all-ones start is
   not primal feasible and phase 1 runs to prove it; there Dantzig's
   rule and Bland's pivot differently (on the free LP1 every pricing
   step is a tie and the two agree). *)
let test_lp_rule_reaches_loop () =
  let params : Gen.slotted_params = { n = 12; horizon = 18; max_length = 4; slack = 5; g = 3 } in
  let inst = Gen.slotted ~params ~seed:0 () in
  let run rule =
    let obs = Obs.create () in
    let lp = Active.Lp_model.create inst in
    Active.Lp_model.fix lp (fun s -> if s mod 6 = 0 then Some false else None);
    let r = Active.Lp_model.resolve ~rule ~obs lp in
    ( Option.map (fun r -> Q.to_string r.Active.Lp_model.cost) r,
      Option.value (List.assoc_opt "lp.pivots" (Obs.counters obs)) ~default:0 )
  in
  let dantzig, dp = run Lp.Dantzig_with_fallback and bland, bp = run Lp.Pure_bland in
  Alcotest.(check (option string)) "same answer (infeasible)" None dantzig;
  Alcotest.(check (option string)) "bland agrees" dantzig bland;
  Alcotest.(check (pair int int)) "pivots (dantzig, bland)" (14, 23) (dp, bp)

(* LP1's pivot path, pinned. Per instance of [Gen.slotted] (n/T 8/14,
   12/20, 20/30 and 28/40, max length 5, slack 6, g 3, seeds 1-50): the
   cut loop's cost and y, its lp.pivots, lp.bound_flips and
   active.lp1.rounds, and on n <= 12 the LP branch and bound's
   lp.pivots and active.ilp.nodes. Every pivot choice of the exact
   simplex (primal, dual repair, the warm starts) and every cut of the
   separation feeds this digest, so a change to either that is meant to
   leave the answers alone must leave it alone. *)
let test_lp1_pivot_path_pinned () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (n, horizon) ->
      for seed = 1 to 50 do
        let params : Gen.slotted_params = { n; horizon; max_length = 5; slack = 6; g = 3 } in
        let inst = Gen.slotted ~params ~seed () in
        let obs = Obs.create () in
        (match Active.Lp_model.solve ~obs inst with
        | None -> Buffer.add_string buf "infeasible"
        | Some lp ->
            Printf.bprintf buf "%s [%s]" (Q.to_string lp.Active.Lp_model.cost)
              (String.concat " "
                 (List.map (fun (t, y) -> Printf.sprintf "%d:%s" t (Q.to_string y)) lp.Active.Lp_model.y)));
        Printf.bprintf buf " %d %d %d" (Obs.counter obs "lp.pivots") (Obs.counter obs "lp.bound_flips")
          (Obs.counter obs "active.lp1.rounds");
        if n <= 12 then begin
          let obs = Obs.create () in
          ignore (Active.Ilp.solve ~obs inst);
          Printf.bprintf buf " ilp %d %d" (Obs.counter obs "lp.pivots") (Obs.counter obs "active.ilp.nodes")
        end;
        Buffer.add_char buf '\n'
      done)
    [ (8, 14); (12, 20); (20, 30); (28, 40) ];
  Alcotest.(check string) "digest" "fnv1a64:903f23ccb652260f" (Obs.digest (Buffer.contents buf))

let test_lp_integrality_gap () =
  (* Section 3.5: LP = g+1, IP = 2g *)
  let g = 3 in
  let inst = Gad.integrality_gap g in
  (match Active.Lp_model.solve inst with
  | None -> Alcotest.fail "feasible"
  | Some lp -> Alcotest.(check string) "LP = g+1" "4" (Q.to_string lp.Active.Lp_model.cost));
  Alcotest.(check (option int)) "IP = 2g" (Some (2 * g)) (Active.Exact.optimum inst)

let test_lp_closed_form_gadgets () =
  (* methodology gadgets with a documented closed-form LP1 optimum: the
     block-diagonal sparse_wide (EXPERIMENTS E24), blocks * (g+1)/g, and the
     tall single-window lp1_tall, jobs * length / g *)
  let g = 3 and blocks = 4 in
  let tall jobs = Gad.lp1_tall ~g ~jobs ~length:2 in
  let tall_opt jobs = Gad.lp1_tall_lp_opt ~g ~jobs ~length:2 in
  List.iter
    (fun (label, inst, want) ->
      match Active.Lp_model.solve inst with
      | None -> Alcotest.fail (label ^ ": feasible")
      | Some lp ->
          Alcotest.(check string) label (Q.to_string want) (Q.to_string lp.Active.Lp_model.cost))
    [ ("sparse_wide: LP = blocks*(g+1)/g", Gad.sparse_wide ~g ~blocks ~width:5,
       Gad.sparse_wide_lp_opt ~g ~blocks);
      ("lp1_tall jobs 9: LP = jobs*length/g", tall 9, tall_opt 9);
      ("lp1_tall jobs 12: LP = jobs*length/g", tall 12, tall_opt 12);
      ("lp1_tall jobs 18: LP = jobs*length/g", tall 18, tall_opt 18) ];
  Alcotest.(check (list string)) "lp1_tall closed forms" [ "6"; "8"; "12" ]
    (List.map (fun j -> Q.to_string (tall_opt j)) [ 9; 12; 18 ])

(* -- LP rounding ---------------------------------------------------------- *)

let check_rounding inst =
  match Active.Rounding.solve inst with
  | None -> None
  | Some (sol, stats) ->
      Alcotest.(check (option string)) "rounded schedule valid" None (Active.Solution.verify inst sol);
      Alcotest.(check bool) "no fallback" false stats.Active.Rounding.fallback_used;
      Alcotest.(check bool) "cost <= 2 LP" true
        (Q.compare (Q.of_int stats.Active.Rounding.rounded_cost) (Q.mul Q.two stats.Active.Rounding.lp_cost) <= 0);
      Alcotest.(check bool) "cost >= LP" true
        (Q.compare (Q.of_int stats.Active.Rounding.rounded_cost) stats.Active.Rounding.lp_cost >= 0);
      Some (sol, stats)

let test_rounding_simple () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:4 ~length:2 ] 1 in
  match check_rounding inst with
  | None -> Alcotest.fail "feasible"
  | Some (sol, _) -> Alcotest.(check int) "cost 2" 2 (Active.Solution.cost sol)

let test_rounding_integrality_gadget () =
  let g = 3 in
  let inst = Gad.integrality_gap g in
  match check_rounding inst with
  | None -> Alcotest.fail "feasible"
  | Some (sol, _) -> Alcotest.(check int) "rounding exact here" (2 * g) (Active.Solution.cost sol)

let test_rounding_fig3 () =
  let g = 4 in
  let inst = Gad.minimal_feasible_tight g in
  match check_rounding inst with
  | None -> Alcotest.fail "feasible"
  | Some (sol, _) ->
      (* 2-approx: at most 2g; in fact LP rounding does well here *)
      Alcotest.(check bool) "within 2 OPT" true (Active.Solution.cost sol <= 2 * g)

let test_rounding_infeasible () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:1 ~length:1; job ~id:1 ~release:0 ~deadline:1 ~length:1 ] 1 in
  Alcotest.(check bool) "none" true (Active.Rounding.solve inst = None)

(* An LP1 built for another instance, even an equal one, is refused
   before any work: the sweep and the schedule would run on its
   network. Also on an instance with no relevant slot, whose rounding
   returns before the sweep. *)
let test_rounding_foreign_lp1 () =
  List.iter
    (fun jobs ->
      let lp1 = Active.Lp_model.create (small_inst jobs 2) in
      let obs = Obs.create () in
      Alcotest.check_raises "another instance's LP1"
        (Invalid_argument "Feasibility: the network of another instance") (fun () ->
          ignore (Active.Rounding.solve ~lp1 ~obs (small_inst jobs 2)));
      Alcotest.(check (list (pair string int))) "no work" [] (Obs.counters obs))
    [ [ job ~id:0 ~release:0 ~deadline:3 ~length:2; job ~id:1 ~release:1 ~deadline:3 ~length:2 ]; [] ]

(* -- unit jobs ------------------------------------------------------------ *)

let test_unit_jobs_guard () =
  let inst = small_inst [ job ~id:0 ~release:0 ~deadline:3 ~length:2 ] 1 in
  Alcotest.check_raises "rejects non-unit" (Invalid_argument "Unit_jobs.solve: instance has non-unit jobs")
    (fun () -> ignore (Active.Unit_jobs.solve inst))

(* Regression: even for unit jobs, NOT every minimal feasible solution is
   optimal - a shuffled closing order can land on a worse minimal set
   (found by the property fuzzer at seed 23641). Only the directional
   orders coincide with the optimum here. *)
let test_unit_jobs_bad_minimal_exists () =
  let inst = Gen.slotted_unit ~horizon:8 ~g:2 ~n:6 ~seed:23641 () in
  Alcotest.(check (option int)) "OPT" (Some 4) (Active.Exact.optimum inst);
  (match Active.Minimal.solve inst (Active.Minimal.Shuffled 23641) with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      Alcotest.(check int) "shuffled minimal is worse" 5 (Active.Solution.cost sol);
      Alcotest.(check bool) "yet minimal" true
        (Active.Minimal.is_minimal inst ~open_slots:sol.Active.Solution.open_slots));
  match Active.Unit_jobs.solve inst with
  | None -> Alcotest.fail "feasible"
  | Some sol -> Alcotest.(check int) "unit solver optimal" 4 (Active.Solution.cost sol)

(* -- properties ----------------------------------------------------------- *)

let tiny_params : Gen.slotted_params = { n = 5; horizon = 8; max_length = 3; slack = 3; g = 2 }

let seed_arb = QCheck.int_range 0 100_000

let prop_ilp_matches_bnb =
  QCheck.Test.make ~name:"LP-based branch and bound = combinatorial optimum" ~count:25 seed_arb
    (fun seed ->
      let inst = Gen.slotted ~params:tiny_params ~seed () in
      Active.Ilp.optimum inst = Active.Exact.optimum inst
      &&
      match Active.Ilp.exact inst with
      | None -> Active.Exact.optimum inst = None
      | Some sol -> Active.Solution.verify inst sol = None)

let prop_bnb_matches_bruteforce =
  QCheck.Test.make ~name:"branch-and-bound = brute force" ~count:40 seed_arb (fun seed ->
      let inst = Gen.slotted ~params:{ tiny_params with n = 4; horizon = 6 } ~seed () in
      let a = Option.map Active.Solution.cost (Active.Exact.brute_force inst) in
      let b = Active.Exact.optimum inst in
      a = b)

let prop_minimal_within_3opt =
  QCheck.Test.make ~name:"minimal feasible <= 3 OPT (all orders)" ~count:40 seed_arb (fun seed ->
      let inst = Gen.slotted ~params:tiny_params ~seed () in
      match Active.Exact.optimum inst with
      | None -> true
      | Some opt ->
          List.for_all
            (fun order ->
              match Active.Minimal.solve inst order with
              | None -> false
              | Some sol ->
                  Active.Solution.cost sol <= 3 * opt
                  && Active.Solution.verify inst sol = None
                  && Active.Minimal.is_minimal inst ~open_slots:sol.Active.Solution.open_slots)
            [ Active.Minimal.Left_to_right; Active.Minimal.Right_to_left; Active.Minimal.Shuffled seed ])

let prop_lp_sandwich =
  QCheck.Test.make ~name:"LP <= OPT <= rounding <= 2 LP, rounding feasible" ~count:40 seed_arb
    (fun seed ->
      let inst = Gen.slotted ~params:tiny_params ~seed () in
      match (Active.Lp_model.solve inst, Active.Exact.optimum inst, Active.Rounding.solve inst) with
      | None, None, None -> true
      | Some lp, Some opt, Some (sol, stats) ->
          let lpc = lp.Active.Lp_model.cost in
          let r = Active.Solution.cost sol in
          Q.compare lpc (Q.of_int opt) <= 0
          && opt <= r
          && Q.compare (Q.of_int r) (Q.mul Q.two lpc) <= 0
          && (not stats.Active.Rounding.fallback_used)
          && Active.Solution.verify inst sol = None
      | _ -> false)

let prop_unit_minimal_optimal =
  QCheck.Test.make ~name:"unit jobs: directional minimalization is optimal" ~count:40 seed_arb
    (fun seed ->
      let inst = Gen.slotted_unit ~horizon:8 ~g:2 ~n:6 ~seed () in
      match Active.Exact.optimum inst with
      | None -> Active.Unit_jobs.solve inst = None
      | Some opt ->
          List.for_all
            (fun order ->
              match Active.Minimal.solve inst order with
              | None -> false
              | Some sol -> Active.Solution.cost sol = opt)
            [ Active.Minimal.Left_to_right; Active.Minimal.Right_to_left ])

(* Lemma 3, computationally: the right-shifted y vector still admits a
   feasible fractional assignment, and preserves the total mass. *)
let prop_right_shift_feasible =
  QCheck.Test.make ~name:"Lemma 3: right-shifted LP solution stays feasible" ~count:30 seed_arb
    (fun seed ->
      let inst = Gen.slotted ~params:tiny_params ~seed () in
      match Active.Lp_model.solve inst with
      | None -> true
      | Some lp ->
          let shifted = Active.Lp_model.right_shift inst lp in
          let mass l = List.fold_left (fun acc (_, v) -> Q.add acc v) Q.zero l in
          Q.equal (mass shifted) (mass lp.Active.Lp_model.y)
          && List.for_all (fun (_, v) -> Q.compare v Q.zero >= 0 && Q.compare v Q.one <= 0) shifted
          && Active.Lp_model.feasible_with_y inst shifted)

let prop_lp_below_opt =
  QCheck.Test.make ~name:"LP value within (OPT/2, OPT]" ~count:40 seed_arb (fun seed ->
      let inst = Gen.slotted ~params:{ tiny_params with g = 3 } ~seed () in
      match (Active.Lp_model.solve inst, Active.Exact.optimum inst) with
      | None, None -> true
      | Some lp, Some opt ->
          let lpc = lp.Active.Lp_model.cost in
          Q.compare lpc (Q.of_int opt) <= 0 && Q.compare (Q.mul Q.two lpc) (Q.of_int opt) >= 0
      | _ -> false)

(* The cut loop against the x-form reference, on random slotted
   instances, infeasible ones included: the same status and value, a y
   that extends to an assignment (LP2), and Theorem 2's rounded <= 2 LP1. *)
let prop_lp1_cut_loop =
  QCheck.Test.make ~name:"LP1 cut loop = x-form, y feasible, rounded <= 2 LP1" ~count:100
    QCheck.(
      pair (int_range 0 100_000) (quad (int_range 1 12) (int_range 4 16) (int_range 0 4) (int_range 1 3)))
    (fun (seed, (n, horizon, slack, g)) ->
      let params : Gen.slotted_params = { n; horizon; max_length = 4; slack; g } in
      let inst = Gen.slotted ~params ~seed () in
      let lp = Active.Lp_model.solve inst in
      Option.map (fun l -> Q.to_string l.Active.Lp_model.cost) lp = x_form_cost inst
      &&
      match (lp, Active.Rounding.solve inst) with
      | None, None -> true
      | Some lp, Some (sol, _) ->
          Active.Lp_model.feasible_with_y inst lp.Active.Lp_model.y
          && Q.compare (Q.of_int (Active.Solution.cost sol)) (Q.mul Q.two lp.Active.Lp_model.cost) <= 0
      | _ -> false)

(* The incremental oracle must be observationally equivalent to the
   per-probe rebuild: both compute exact max flows, so the search visits
   the same tree and reports the same node/probe counters. *)
let prop_probe_modes_agree =
  QCheck.Test.make ~name:"incremental oracle = rebuild: optimum and search tree" ~count:30 seed_arb
    (fun seed ->
      let inst = Gen.slotted ~params:tiny_params ~seed () in
      let run oracle =
        let obs = Obs.create () in
        let result =
          match Active.Exact.solve ~oracle ~obs inst with
          | Budget.Complete sol -> Option.map Active.Solution.cost sol
          | _ -> None
        in
        let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.counters obs)) in
        (result, counter "active.exact.nodes", counter "active.exact.flow_checks")
      in
      run Active.Feasibility.Incremental = run Active.Feasibility.Rebuild)

(* A window of a timed trace as Sim.Rolling re-solves it at [now]: the
   jobs arrived by then that can still finish, releases clipped to
   [now]. *)
let timed_window ~now ~seed =
  let params : Gen.slotted_params = { n = 12; horizon = 24; max_length = 4; slack = 8; g = 3 } in
  let inst, arrivals = Gen.timed_slotted ~params ~lead:12 ~seed () in
  S.make ~g:inst.S.g
    (List.filter_map
       (fun (j : S.job) ->
         let release = max j.S.release now in
         if List.assoc j.S.id arrivals <= now && j.S.deadline - release >= j.S.length then
           Some (job ~id:j.S.id ~release ~deadline:j.S.deadline ~length:j.S.length)
         else None)
       (Array.to_list inst.S.jobs))

(* The first instance from [seed] on whose minimal seed costs more than
   ceil(P/g), where the search asks for the floor *)
let above_mass mk seed =
  let rec go s =
    if s > seed + 1_000 then Alcotest.failf "no seed above ceil(P/g) after %d" seed;
    let inst = mk s in
    match seed_cost inst with Some c when c > S.mass_lower_bound inst -> inst | _ -> go (s + 1)
  in
  go seed

(* ceil(LP1) is a valid floor: it never exceeds the optimum, and pruning
   against it returns the floor-free search's solution, open slots and
   schedule alike, in no more nodes. *)
let same_with_floor inst =
  let run floor =
    let obs = Obs.create () in
    match Active.Exact.solve ?floor ~obs inst with
    | Budget.Complete r ->
        (r, Option.value (List.assoc_opt "active.exact.nodes" (Obs.counters obs)) ~default:0)
    | Budget.Exhausted _ -> Alcotest.fail "unlimited fuel never exhausts"
  in
  let plain, plain_nodes = run None in
  let floored, floored_nodes = run (Some (lp1_floor inst)) in
  plain = floored
  && floored_nodes <= plain_nodes
  && match plain with Some sol -> lp1_floor inst () <= Active.Solution.cost sol | None -> true

(* Each case checks a random instance and the next one whose seed
   exceeds ceil(P/g), so every case exercises the floor. *)
let prop_floor_same_answer =
  QCheck.Test.make ~name:"exact with a ceil(LP1) floor = without, in no more nodes" ~count:40
    QCheck.(pair bool seed_arb)
    (fun (window, seed) ->
      let mk s =
        if window then timed_window ~now:(4 * (s mod 5)) ~seed:s
        else Gen.slotted ~params:{ n = 8; horizon = 12; max_length = 3; slack = 4; g = 2 } ~seed:s ()
      in
      same_with_floor (mk seed) && same_with_floor (above_mass mk seed))

(* One network serves a whole solve: LP1's separation min cuts, oracles
   and schedule reads each re-capacitate it. Each case runs on one
   network first its uses as min cuts alone, then the random
   interleaving of min cuts, oracles (slot and job toggles with checks
   between) and schedule reads; each result and its counters equal the
   same use's on a network built fresh for it. With [p_j] on the jobs
   and 0/1 on the slots (Fig. 2 on the slots at 1), a min cut is also
   empty iff those slots are feasible. *)
let prop_separation_network_reused =
  QCheck.Test.make ~name:"reused separation network = fresh network" ~count:100
    QCheck.(pair seed_arb (list_of_size Gen.(int_range 1 8) (pair (int_range 0 100_000) (int_range 0 2))))
    (fun (seed, uses) ->
      let inst = Gen.slotted ~params:tiny_params ~seed () in
      let net = Active.Feasibility.network inst in
      let slots = Active.Feasibility.network_slots net in
      let n = S.num_jobs inst in
      (* the use's result on [net] if it and the counters equal a fresh
         network's *)
      let same use =
        let run net =
          let obs = Obs.create () in
          let r = use obs net in
          (r, Obs.counters obs)
        in
        let reused = run net in
        if reused = run (Active.Feasibility.network inst) then Some (fst reused) else None
      in
      let check (probe, kind) =
        let rng = Random.State.make [| probe |] in
        let bool () = Random.State.bool rng in
        match kind with
        | 0 -> (
            let fig2 = bool () in
            let job =
              Array.map (fun (j : S.job) -> if fig2 then j.S.length else Random.State.int rng 6) inst.S.jobs
            in
            let slot = Array.map (fun _ -> Random.State.int rng (if fig2 then 2 else 5)) slots in
            match
              same (fun obs net ->
                  Active.Feasibility.min_cut_jobs ~obs net ~job_cap:(Array.get job) ~slot_cap:(Array.get slot))
            with
            | None -> false
            | Some cut ->
                (not fig2)
                ||
                let open_slots = List.filteri (fun i _ -> slot.(i) = 1) (Array.to_list slots) in
                (cut = []) = Active.Feasibility.feasible inst ~open_slots)
        | 1 ->
            (* a slot of -1 is one no job can use *)
            let open_all = bool () and activate_all = bool () in
            let slot () =
              if Random.State.int rng 8 = 0 then -1 else slots.(Random.State.int rng (Array.length slots))
            in
            let steps =
              List.init (Random.State.int rng 10) (fun _ ->
                  match Random.State.int rng 3 with
                  | 0 -> `Slot (slot (), bool ())
                  | 1 -> `Job (Random.State.int rng n, bool ())
                  | _ -> `Check)
            in
            Option.is_some
              (same (fun obs net ->
                   let module O = Active.Feasibility.Oracle in
                   let o = O.create ~obs ~open_all ~activate_all net in
                   let checks =
                     List.filter_map
                       (function
                         | `Slot (slot, open_) -> O.set_slot ~obs o ~slot ~open_; None
                         | `Job (idx, active) -> O.set_job ~obs o idx ~active; None
                         | `Check -> Some (O.check ~obs o))
                       steps
                   in
                   (checks, O.target o, O.flow_value o, O.open_slots o)))
        | _ ->
            let open_slots = List.filter (fun _ -> bool ()) (Array.to_list slots) in
            Option.is_some (same (fun _ net -> Active.Feasibility.schedule net ~open_slots))
      in
      List.for_all check (List.map (fun (probe, _) -> (probe, 0)) uses) && List.for_all check uses)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bnb_matches_bruteforce; prop_ilp_matches_bnb; prop_minimal_within_3opt; prop_lp_sandwich;
      prop_unit_minimal_optimal; prop_right_shift_feasible; prop_lp_below_opt;
      prop_probe_modes_agree; prop_lp1_cut_loop; prop_floor_same_answer;
      prop_separation_network_reused ]

let () =
  Alcotest.run "active"
    [ ( "feasibility",
        [ Alcotest.test_case "basic" `Quick test_feasibility_basic;
          Alcotest.test_case "capacity" `Quick test_feasibility_capacity;
          Alcotest.test_case "only_jobs" `Quick test_feasibility_only_jobs;
          Alcotest.test_case "schedule extraction" `Quick test_schedule_extraction;
          Alcotest.test_case "schedules, pinned" `Quick test_schedules_pinned ] );
      ( "minimal",
        [ Alcotest.test_case "simple" `Quick test_minimal_simple;
          Alcotest.test_case "infeasible" `Quick test_minimal_infeasible;
          Alcotest.test_case "fig3 gadget" `Quick test_minimal_fig3_gadget ] );
      ( "exact",
        [ Alcotest.test_case "simple" `Quick test_exact_simple;
          Alcotest.test_case "infeasible" `Quick test_exact_infeasible;
          Alcotest.test_case "exhaustion inside the floor" `Quick test_exact_floor_exhaustion;
          Alcotest.test_case "wider than a machine word" `Quick test_exact_wide ] );
      ( "lp",
        [ Alcotest.test_case "integral instance" `Quick test_lp_exact_on_integral;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "assignment consistency" `Quick test_lp_assignment_consistency;
          Alcotest.test_case "pricing rule reaches the loop" `Quick test_lp_rule_reaches_loop;
          Alcotest.test_case "LP1 pivot path, pinned" `Quick test_lp1_pivot_path_pinned;
          Alcotest.test_case "integrality gap gadget" `Quick test_lp_integrality_gap;
          Alcotest.test_case "sparse-wide gadget" `Quick test_lp_closed_form_gadgets ] );
      ( "rounding",
        [ Alcotest.test_case "simple" `Quick test_rounding_simple;
          Alcotest.test_case "integrality gadget" `Quick test_rounding_integrality_gadget;
          Alcotest.test_case "fig3 gadget" `Quick test_rounding_fig3;
          Alcotest.test_case "infeasible" `Quick test_rounding_infeasible;
          Alcotest.test_case "foreign LP1" `Quick test_rounding_foreign_lp1 ] );
      ( "unit jobs",
        [ Alcotest.test_case "guard" `Quick test_unit_jobs_guard;
          Alcotest.test_case "bad minimal exists" `Quick test_unit_jobs_bad_minimal_exists ] );
      ("properties", props) ]
