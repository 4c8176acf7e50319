(* Tests for the extension modules: special-case busy-time algorithms
   (proper / clique / proper-clique), online busy time, and the
   multi-window active-time generalization. *)

module Q = Rational
module B = Workload.Bjob
module Gen = Workload.Generate
module MW = Active.Multi_window

let ij id start len = B.interval ~id ~start:(Q.of_int start) ~length:(Q.of_int len)

(* -- structure predicates -------------------------------------------------- *)

let test_predicates () =
  Alcotest.(check bool) "proper generator is proper" true
    (Busy.Special.is_proper (Gen.proper_interval_jobs ~n:8 ~seed:1 ()));
  Alcotest.(check bool) "clique generator is clique" true
    (Busy.Special.is_clique (Gen.clique_interval_jobs ~n:8 ~seed:1 ()));
  let pc = Gen.proper_clique_interval_jobs ~n:8 ~seed:1 () in
  Alcotest.(check bool) "proper clique: proper" true (Busy.Special.is_proper pc);
  Alcotest.(check bool) "proper clique: clique" true (Busy.Special.is_clique pc);
  Alcotest.(check bool) "containment detected" false
    (Busy.Special.is_proper [ ij 0 0 10; ij 1 2 2 ]);
  Alcotest.(check bool) "disjoint not clique" false (Busy.Special.is_clique [ ij 0 0 1; ij 1 5 1 ]);
  Alcotest.(check bool) "empty is clique" true (Busy.Special.is_clique [])

let test_guards () =
  Alcotest.check_raises "proper guard" (Invalid_argument "Special.proper_greedy: instance is not proper")
    (fun () -> ignore (Busy.Special.proper_greedy ~g:2 [ ij 0 0 10; ij 1 2 2 ]));
  Alcotest.check_raises "clique guard" (Invalid_argument "Special.clique_greedy: instance is not a clique")
    (fun () -> ignore (Busy.Special.clique_greedy ~g:2 [ ij 0 0 1; ij 1 5 1 ]));
  Alcotest.check_raises "proper clique guard"
    (Invalid_argument "Special.proper_clique_exact: instance is not a proper clique") (fun () ->
      ignore (Busy.Special.proper_clique_exact ~g:2 [ ij 0 0 1; ij 1 5 1 ]))

let test_proper_clique_dp_simple () =
  (* four overlapping jobs sharing point 4; g=2. Runs {01}{23} span
     (6-0)+(8-2) = 12, the best partition (non-consecutive {02}{13} would
     pay 7+7). *)
  let jobs = [ ij 0 0 5; ij 1 1 5; ij 2 2 5; ij 3 3 5 ] in
  let packing = Busy.Special.proper_clique_exact ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  Alcotest.(check string) "cost" "12" (Q.to_string (Busy.Bundle.total_busy packing))

(* -- properties: special cases ---------------------------------------------- *)

let seed_arb = QCheck.int_range 0 100_000

let prop_proper_greedy =
  QCheck.Test.make ~name:"proper greedy: valid and <= 2 OPT" ~count:30 seed_arb (fun seed ->
      let jobs = Gen.proper_interval_jobs ~n:7 ~seed () in
      List.for_all
        (fun g ->
          let packing = Busy.Special.proper_greedy ~g jobs in
          Busy.Bundle.check ~g jobs packing = None
          && Q.compare (Busy.Bundle.total_busy packing) (Q.mul Q.two (Busy.Exact.optimum ~g jobs)) <= 0)
        [ 1; 2; 3 ])

let prop_clique_greedy =
  QCheck.Test.make ~name:"clique greedy: valid and <= 2 OPT" ~count:30 seed_arb (fun seed ->
      let jobs = Gen.clique_interval_jobs ~n:7 ~seed () in
      List.for_all
        (fun g ->
          let packing = Busy.Special.clique_greedy ~g jobs in
          Busy.Bundle.check ~g jobs packing = None
          && Q.compare (Busy.Bundle.total_busy packing) (Q.mul Q.two (Busy.Exact.optimum ~g jobs)) <= 0)
        [ 1; 2; 3 ])

let prop_proper_clique_exact =
  QCheck.Test.make ~name:"proper-clique DP matches exhaustive optimum" ~count:30 seed_arb (fun seed ->
      let jobs = Gen.proper_clique_interval_jobs ~n:7 ~seed () in
      List.for_all
        (fun g ->
          let packing = Busy.Special.proper_clique_exact ~g jobs in
          Busy.Bundle.check ~g jobs packing = None
          && Q.equal (Busy.Bundle.total_busy packing) (Busy.Exact.optimum ~g jobs))
        [ 1; 2; 3 ])

(* -- online ------------------------------------------------------------------ *)

let test_length_class () =
  List.iter
    (fun (len, expected) ->
      Alcotest.(check int) ("class of " ^ Q.to_string len) expected (Busy.Online.length_class len))
    [ (Q.one, 0); (Q.of_ints 3 2, 0); (Q.two, 1); (Q.of_int 5, 2); (Q.half, -1); (Q.of_ints 1 3, -2) ];
  Alcotest.check_raises "zero length" (Invalid_argument "Online.length_class: non-positive length")
    (fun () -> ignore (Busy.Online.length_class Q.zero))

let prop_online_valid =
  QCheck.Test.make ~name:"online packings valid; within guarantees on small" ~count:30 seed_arb
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:8 ~horizon:16 ~max_length:4 ~seed () in
      List.for_all
        (fun g ->
          let ff = Busy.Online.first_fit ~g jobs in
          let bucketed = Busy.Online.bucketed_first_fit ~g jobs in
          Busy.Bundle.check ~g jobs ff = None && Busy.Bundle.check ~g jobs bucketed = None)
        [ 1; 2; 3 ])

let prop_online_vs_offline =
  QCheck.Test.make ~name:"online cost >= offline exact" ~count:20 seed_arb (fun seed ->
      let jobs = Gen.interval_jobs ~n:7 ~horizon:14 ~max_length:4 ~seed () in
      let opt = Busy.Exact.optimum ~g:2 jobs in
      Q.compare (Busy.Bundle.total_busy (Busy.Online.first_fit ~g:2 jobs)) opt >= 0
      && Q.compare (Busy.Bundle.total_busy (Busy.Online.bucketed_first_fit ~g:2 jobs)) opt >= 0)

(* -- multi-window active time -------------------------------------------------- *)

let test_mw_validation () =
  Alcotest.check_raises "overlapping windows" (Invalid_argument "Multi_window.job: overlapping windows")
    (fun () -> ignore (MW.job ~id:0 ~windows:[ (0, 3); (2, 5) ] ~length:2));
  Alcotest.check_raises "too short" (Invalid_argument "Multi_window.job: windows shorter than length")
    (fun () -> ignore (MW.job ~id:0 ~windows:[ (0, 1) ] ~length:2));
  Alcotest.check_raises "no windows" (Invalid_argument "Multi_window.job: no windows") (fun () ->
      ignore (MW.job ~id:0 ~windows:[] ~length:1));
  let j = MW.job ~id:0 ~windows:[ (0, 2); (4, 6) ] ~length:3 in
  Alcotest.(check (list int)) "slots" [ 1; 2; 5; 6 ] (MW.window_slots j)

let test_mw_feasibility () =
  (* one unit in [0,1) or [5,6): two separated options *)
  let inst = MW.make ~g:1 [ MW.job ~id:0 ~windows:[ (0, 1); (5, 6) ] ~length:1 ] in
  Alcotest.(check bool) "first window works" true (MW.feasible inst ~open_slots:[ 1 ]);
  Alcotest.(check bool) "second window works" true (MW.feasible inst ~open_slots:[ 6 ]);
  Alcotest.(check bool) "wrong slot fails" false (MW.feasible inst ~open_slots:[ 3 ]);
  match MW.optimum inst with
  | Some (cost, _) -> Alcotest.(check int) "optimum 1" 1 cost
  | None -> Alcotest.fail "feasible"

let test_mw_exact_cover () =
  (* sets over elements 1..6: {1,2,3}, {4,5,6} feasible at g = 1 *)
  let inst = MW.exact_cover_instance ~g:1 [ [ 1; 2; 3 ]; [ 4; 5; 6 ] ] in
  (match MW.optimum inst with
  | Some (cost, _) -> Alcotest.(check int) "two disjoint sets" 6 cost
  | None -> Alcotest.fail "feasible");
  (* adding {2,3,4} makes g=1 infeasible but g=2 feasible *)
  let clash = MW.exact_cover_instance ~g:1 [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 2; 3; 4 ] ] in
  Alcotest.(check bool) "g=1 infeasible" true (MW.optimum clash = None);
  let ok = MW.exact_cover_instance ~g:2 [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 2; 3; 4 ] ] in
  match MW.optimum ok with
  | Some (cost, _) -> Alcotest.(check int) "g=2 cost" 6 cost
  | None -> Alcotest.fail "feasible at g=2"

let prop_mw_matches_single_window =
  QCheck.Test.make ~name:"multi-window optimum = single-window optimum on 1-window jobs" ~count:25
    seed_arb (fun seed ->
      let params : Gen.slotted_params = { n = 5; horizon = 8; max_length = 3; slack = 3; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      let translated =
        MW.make ~g:inst.Workload.Slotted.g
          (Array.to_list
             (Array.map
                (fun (j : Workload.Slotted.job) ->
                  MW.job ~id:j.Workload.Slotted.id
                    ~windows:[ (j.Workload.Slotted.release, j.Workload.Slotted.deadline) ]
                    ~length:j.Workload.Slotted.length)
                inst.Workload.Slotted.jobs))
      in
      Active.Exact.optimum inst = Option.map fst (MW.optimum translated))

(* The smaller of two optional costs. *)
let min_some a b = match (a, b) with Some x, Some y -> Some (min x y) | x, None | None, x -> x

(* The size of the smallest feasible open set, by trying every subset of
   the relevant slots. *)
let mw_smallest_open_set inst =
  let rec go chosen = function
    | [] -> if MW.feasible inst ~open_slots:chosen then Some (List.length chosen) else None
    | s :: rest -> min_some (go chosen rest) (go (s :: chosen) rest)
  in
  go [] (MW.relevant_slots inst)

let prop_mw_minimal =
  QCheck.Test.make ~name:"multi-window minimal solutions are feasible and minimal" ~count:25 seed_arb
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let jobs =
        List.init 4 (fun id ->
            let w1 = Random.State.int st 4 in
            let w2 = 6 + Random.State.int st 4 in
            MW.job ~id ~windows:[ (w1, w1 + 2); (w2, w2 + 2) ] ~length:(1 + Random.State.int st 2))
      in
      let inst = MW.make ~g:2 jobs in
      (* at most 10 relevant slots: 1..5 and 7..11 *)
      Option.map fst (MW.optimum inst) = mw_smallest_open_set inst
      &&
      match MW.minimal inst with
      | None -> false
      | Some open_slots ->
          MW.feasible inst ~open_slots
          && List.for_all
               (fun s -> not (MW.feasible inst ~open_slots:(List.filter (fun s' -> s' <> s) open_slots)))
               open_slots)

(* -- further edge cases ---------------------------------------------------------- *)

let test_ilp_on_integrality_gadget () =
  (* the gap-2 gadget forces the LP-based B&B to branch and still reach
     the integer optimum 2g *)
  let g = 3 in
  let inst = Workload.Gadgets.integrality_gap g in
  let obs = Obs.create () in
  (match Active.Ilp.solve ~obs inst with
  | Budget.Complete None -> Alcotest.fail "feasible"
  | Budget.Complete (Some sol) ->
      Alcotest.(check int) "optimum 2g" (2 * g) (Active.Solution.cost sol);
      Alcotest.(check bool) "had to branch" true (Obs.counter obs "active.ilp.nodes" > 1)
  | Budget.Exhausted _ -> Alcotest.fail "unlimited fuel never exhausts");
  (* ILP also detects infeasibility *)
  let bad =
    Workload.Slotted.make ~g:1
      [ Workload.Slotted.job ~id:0 ~release:0 ~deadline:1 ~length:1;
        Workload.Slotted.job ~id:1 ~release:0 ~deadline:1 ~length:1 ]
  in
  Alcotest.(check bool) "infeasible" true (Active.Ilp.exact bad = None)

let test_machines_count_guard () =
  let inst = Workload.Slotted.make ~g:1 [ Workload.Slotted.job ~id:0 ~release:0 ~deadline:1 ~length:1 ] in
  Alcotest.check_raises "count out of range" (Invalid_argument "Machines.feasible: count out of range")
    (fun () -> ignore (Active.Machines.feasible inst ~machines:2 ~openings:[ (1, 3) ]));
  Alcotest.check_raises "machines < 1" (Invalid_argument "Machines.feasible: machines < 1") (fun () ->
      ignore (Active.Machines.feasible inst ~machines:0 ~openings:[]))

let test_widths_wide_boundary () =
  (* w = g/2 is NOT wide (2w > g is strict) *)
  let j = Busy.Widths.wjob ~job:(ij 0 0 1) ~width:2 in
  Alcotest.(check bool) "2w = g not wide" false (Busy.Widths.is_wide ~g:4 j);
  Alcotest.(check bool) "2w > g wide" true (Busy.Widths.is_wide ~g:3 j)

let test_online_bucket_separation () =
  (* jobs in different length classes never share a machine *)
  let jobs = [ ij 0 0 1; ij 1 0 4; ij 2 0 1; ij 3 0 4 ] in
  let packing = Busy.Online.bucketed_first_fit ~g:4 jobs in
  List.iter
    (fun bundle ->
      let classes =
        List.sort_uniq compare (List.map (fun (j : B.t) -> Busy.Online.length_class j.B.length) bundle)
      in
      Alcotest.(check int) "one class per machine" 1 (List.length classes))
    packing

let test_laminar_forest_roots () =
  (* two independent trees plus a duplicate interval *)
  let jobs = [ ij 0 0 4; ij 1 0 4; ij 2 1 2; ij 3 10 3; ij 4 11 1 ] in
  Alcotest.(check bool) "laminar" true (Busy.Laminar.is_laminar jobs);
  (* g=2: the nesting chain 0 > 1 > 2 has length 3, so tree 1 splits:
     {0,1} pays 4, {2} pays 2; tree 2 packs whole: {3,4} pays 3. *)
  let packing = Busy.Laminar.exact ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  Alcotest.(check string) "cost" "9" (Q.to_string (Busy.Bundle.total_busy packing));
  (* g=3 lets the whole chain share: 4 + 3 *)
  Alcotest.(check string) "g=3 cost" "7" (Q.to_string (Busy.Laminar.optimum ~g:3 jobs))

let test_maximize_budget_edge () =
  (* budget exactly equal to the packing cost is accepted *)
  let jobs = [ ij 0 0 3 ] in
  let accepted, busy, _ = Busy.Maximize.exact ~g:1 ~budget:(Q.of_int 3) jobs in
  Alcotest.(check int) "accepted" 1 (List.length accepted);
  Alcotest.(check string) "busy" "3" (Q.to_string busy)

(* -- single-machine online maximization ----------------------------------------- *)

let test_single_online_basic () =
  (* job 1 [0,4); job 2 arrives at 1 and ends later [1,6): greedy aborts
     and completes job 2 (length 5); stubborn completes job 1 then cannot
     start job 2 (already released) *)
  let jobs = [ ij 0 0 4; ij 1 1 5 ] in
  let v_greedy, done_greedy = Busy.Single_online.greedy_switch jobs in
  Alcotest.(check string) "greedy value" "5" (Q.to_string v_greedy);
  Alcotest.(check (list int)) "greedy completes job 1" [ 1 ]
    (List.map (fun (j : B.t) -> j.B.id) done_greedy);
  let v_stub, done_stub = Busy.Single_online.stubborn jobs in
  Alcotest.(check string) "stubborn value" "4" (Q.to_string v_stub);
  Alcotest.(check (list int)) "stubborn completes job 0" [ 0 ]
    (List.map (fun (j : B.t) -> j.B.id) done_stub);
  let v_off, _ = Busy.Single_online.offline_optimum jobs in
  Alcotest.(check string) "offline" "5" (Q.to_string v_off)

let test_single_online_sequence () =
  (* disjoint jobs: every policy completes all of them *)
  let jobs = [ ij 0 0 2; ij 1 3 2; ij 2 6 2 ] in
  let v, completed = Busy.Single_online.stubborn jobs in
  Alcotest.(check string) "all six" "6" (Q.to_string v);
  Alcotest.(check int) "three jobs" 3 (List.length completed)

let prop_single_online =
  QCheck.Test.make ~name:"single-machine online: disjoint completions <= offline optimum" ~count:40
    seed_arb (fun seed ->
      let jobs = Gen.interval_jobs ~n:10 ~horizon:20 ~max_length:5 ~seed () in
      let off, chosen = Busy.Single_online.offline_optimum jobs in
      List.for_all
        (fun policy ->
          let v, completed = policy jobs in
          Intervals.Track.is_track ~interval:B.interval_of completed
          && Q.compare v off <= 0
          && Q.equal v (B.total_length completed))
        [ Busy.Single_online.greedy_switch; Busy.Single_online.stubborn ]
      && Intervals.Track.is_track ~interval:B.interval_of chosen)

(* -- laminar exact ------------------------------------------------------------- *)

let test_laminar_basic () =
  (* nested chain of 3 jobs, g = 2: top must be paid; at most 2 share a
     chain, so {outer, middle} + {inner}: cost len(outer) + len(inner) = 10 + 2 *)
  let jobs = [ ij 0 0 10; ij 1 1 6; ij 2 2 2 ] in
  Alcotest.(check bool) "laminar" true (Busy.Laminar.is_laminar jobs);
  let packing = Busy.Laminar.exact ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  Alcotest.(check string) "cost" "12" (Q.to_string (Busy.Laminar.optimum ~g:2 jobs));
  (* g = 3: all in one bundle: cost 10 *)
  Alcotest.(check string) "g=3 cost" "10" (Q.to_string (Busy.Laminar.optimum ~g:3 jobs));
  (* g = 1: everyone alone: 10 + 6 + 2 *)
  Alcotest.(check string) "g=1 cost" "18" (Q.to_string (Busy.Laminar.optimum ~g:1 jobs))

let test_laminar_guard () =
  Alcotest.check_raises "non-laminar rejected" (Invalid_argument "Laminar.exact: instance is not laminar")
    (fun () -> ignore (Busy.Laminar.exact ~g:2 [ ij 0 0 3; ij 1 2 3 ]))

let prop_laminar_exact =
  QCheck.Test.make ~name:"laminar DP matches exhaustive optimum" ~count:40 seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      (* random laminar instances, truncated to <= 9 jobs for Busy.Exact *)
      let jobs = Gen.laminar_interval_jobs ~depth:3 ~span:20 ~seed () in
      let jobs = List.filteri (fun i _ -> i < 9) jobs in
      QCheck.assume (jobs <> []);
      let g = 1 + Random.State.int st 3 in
      let packing = Busy.Laminar.exact ~g jobs in
      Busy.Bundle.check ~g jobs packing = None
      && Q.equal (Busy.Bundle.total_busy packing) (Busy.Exact.optimum ~g jobs))

(* -- multi-machine active time -------------------------------------------------- *)

let test_machines_basic () =
  (* 4 unit jobs all due in slot 1, g = 2: one machine infeasible, two
     machines cost 2 *)
  let jobs = List.init 4 (fun id -> Workload.Slotted.job ~id ~release:0 ~deadline:1 ~length:1) in
  let inst = Workload.Slotted.make ~g:2 jobs in
  Alcotest.(check bool) "1 machine infeasible" true (Active.Machines.optimum inst ~machines:1 = None);
  (match Active.Machines.optimum inst ~machines:2 with
  | Some (cost, openings) ->
      Alcotest.(check int) "2 machines cost" 2 cost;
      Alcotest.(check bool) "openings feasible" true
        (Active.Machines.feasible inst ~machines:2 ~openings)
  | None -> Alcotest.fail "feasible with 2 machines");
  match Active.Machines.lp_lower_bound inst ~machines:2 with
  | Some lb -> Alcotest.(check string) "LP bound" "2" (Q.to_string lb)
  | None -> Alcotest.fail "LP feasible"

let prop_machines_single_matches =
  QCheck.Test.make ~name:"machines=1 optimum = single-machine optimum" ~count:20 seed_arb (fun seed ->
      let params : Gen.slotted_params = { n = 5; horizon = 8; max_length = 3; slack = 3; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      Active.Exact.optimum inst = Option.map fst (Active.Machines.optimum inst ~machines:1))

(* The cost of the cheapest feasible pool, by trying every vector of
   counts in [0..machines] over the relevant slots. *)
let cheapest_pool inst ~machines =
  let rec go chosen = function
    | [] ->
        if Active.Machines.feasible inst ~machines ~openings:chosen then Some (Active.Machines.cost chosen)
        else None
    | s :: rest ->
        List.fold_left (fun best c -> min_some best (go ((s, c) :: chosen) rest)) None
          (List.init (machines + 1) Fun.id)
  in
  go [] (Workload.Slotted.relevant_slots inst)

let prop_machines_monotone =
  QCheck.Test.make ~name:"more machines never hurt; minimal >= optimum >= LP" ~count:15 seed_arb
    (fun seed ->
      let params : Gen.slotted_params = { n = 6; horizon = 7; max_length = 3; slack = 2; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      (* at most 7 relevant slots, so 3^7 count vectors *)
      Option.map fst (Active.Machines.optimum inst ~machines:2) = cheapest_pool inst ~machines:2
      &&
      match (Active.Machines.optimum inst ~machines:1, Active.Machines.optimum inst ~machines:2) with
      | None, None -> true
      | None, Some _ -> true (* extra machines can create feasibility *)
      | Some _, None -> false
      | Some (o1, _), Some (o2, _) -> (
          o2 <= o1
          &&
          match (Active.Machines.minimal inst ~machines:2, Active.Machines.lp_lower_bound inst ~machines:2) with
          | Some m, Some lb ->
              Active.Machines.cost m >= o2 && Q.compare lb (Q.of_int o2) <= 0
          | _ -> false))

(* The optimum against the cheapest pool on fixed seeds of
   [prop_machines_monotone]'s generator, so a wrong optimum cannot hide
   behind fresh draws where the minimal pool is already optimal: on
   some of these seeds it is not. *)
let test_machines_optimum_fixed_seeds () =
  let gaps = ref 0 in
  for seed = 1 to 40 do
    let params : Gen.slotted_params = { n = 6; horizon = 7; max_length = 3; slack = 2; g = 2 } in
    let inst = Gen.slotted ~params ~seed () in
    let opt = Option.map fst (Active.Machines.optimum inst ~machines:2) in
    Alcotest.(check (option int))
      (Printf.sprintf "seed %d: optimum = cheapest pool" seed)
      (cheapest_pool inst ~machines:2) opt;
    match (Active.Machines.minimal inst ~machines:2, opt) with
    | Some m, Some o when Active.Machines.cost m > o -> incr gaps
    | _ -> ()
  done;
  Alcotest.(check bool) "a minimal pool above the optimum" true (!gaps > 0)

(* -- maximization ------------------------------------------------------------------ *)

let test_maximize_basic () =
  (* budget 2, g=1: three unit jobs at [0,1), [0,1), [5,6): best = 2 jobs *)
  let jobs = [ ij 0 0 1; ij 1 0 1; ij 2 5 1 ] in
  let accepted, busy, packing = Busy.Maximize.exact ~g:1 ~budget:Q.two jobs in
  Alcotest.(check int) "two jobs" 2 (List.length accepted);
  Alcotest.(check string) "busy 2" "2" (Q.to_string busy);
  Alcotest.(check (option string)) "packing valid" None (Busy.Bundle.check ~g:1 accepted packing);
  (* with g=2 all three fit in budget 2 *)
  let accepted3, _, _ = Busy.Maximize.exact ~g:2 ~budget:Q.two jobs in
  Alcotest.(check int) "three jobs at g=2" 3 (List.length accepted3);
  (* zero budget: nothing *)
  let none, _, _ = Busy.Maximize.exact ~g:2 ~budget:Q.zero jobs in
  Alcotest.(check int) "zero budget" 0 (List.length none)

let prop_maximize_greedy_vs_exact =
  QCheck.Test.make ~name:"maximize: greedy <= exact, both within budget and valid" ~count:15 seed_arb
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:6 ~horizon:12 ~max_length:4 ~seed () in
      let budget = Q.of_int 6 in
      let ex, ex_busy, ex_pack = Busy.Maximize.exact ~g:2 ~budget jobs in
      let gr, gr_busy, gr_pack = Busy.Maximize.greedy ~g:2 ~budget jobs in
      List.length gr <= List.length ex
      && Q.compare ex_busy budget <= 0
      && Q.compare gr_busy budget <= 0
      && (ex = [] || Busy.Bundle.check ~g:2 ex ex_pack = None)
      && (gr = [] || Busy.Bundle.check ~g:2 gr gr_pack = None))

(* -- widths ------------------------------------------------------------------------- *)

let wj id start len width = Busy.Widths.wjob ~job:(ij id start len) ~width

let test_widths_basic () =
  Alcotest.(check int) "peak width" 5 (Busy.Widths.peak_width [ wj 0 0 2 2; wj 1 1 2 3 ]);
  Alcotest.(check bool) "fits" true (Busy.Widths.fits ~g:5 [ wj 0 0 2 2 ] (wj 1 1 2 3));
  Alcotest.(check bool) "does not fit" false (Busy.Widths.fits ~g:4 [ wj 0 0 2 2 ] (wj 1 1 2 3));
  Alcotest.check_raises "width 0" (Invalid_argument "Widths.wjob: width < 1") (fun () ->
      ignore (wj 0 0 1 0));
  let jobs = [ wj 0 0 2 2; wj 1 1 2 3; wj 2 5 1 1 ] in
  Alcotest.(check string) "mass g=5" "11/5" (Q.to_string (Busy.Widths.mass ~g:5 jobs));
  Alcotest.(check string) "span" "4" (Q.to_string (Busy.Widths.span jobs));
  let packing = Busy.Widths.first_fit ~g:5 jobs in
  Alcotest.(check (option string)) "first fit valid" None (Busy.Widths.check ~g:5 jobs packing)

let test_widths_unit_recovers_standard () =
  (* width-1 jobs: the width-aware first fit behaves like plain FirstFit *)
  let base = Gen.interval_jobs ~n:8 ~horizon:16 ~max_length:4 ~seed:4 () in
  let wjobs = List.map (fun j -> Busy.Widths.wjob ~job:j ~width:1) base in
  let wcost = Busy.Widths.total_busy (Busy.Widths.first_fit ~g:3 wjobs) in
  let cost = Busy.Bundle.total_busy (Busy.First_fit.solve ~g:3 base) in
  Alcotest.(check string) "same cost" (Q.to_string cost) (Q.to_string wcost)

let prop_widths_algorithms =
  QCheck.Test.make ~name:"width algorithms valid; exact <= heuristics; bounds hold" ~count:15 seed_arb
    (fun seed ->
      let jobs =
        List.map (fun (j, w) -> Busy.Widths.wjob ~job:j ~width:w)
          (Gen.widthed_interval_jobs ~n:7 ~horizon:14 ~max_length:4 ~max_width:3 ~seed ())
      in
      let g = 4 in
      let ff = Busy.Widths.first_fit ~g jobs in
      let split = Busy.Widths.narrow_wide_split ~g jobs in
      let ex = Busy.Widths.exact ~g jobs in
      Busy.Widths.check ~g jobs ff = None
      && Busy.Widths.check ~g jobs split = None
      && Busy.Widths.check ~g jobs ex = None
      && Q.compare (Busy.Widths.total_busy ex) (Busy.Widths.total_busy ff) <= 0
      && Q.compare (Busy.Widths.total_busy ex) (Busy.Widths.total_busy split) <= 0
      && Q.compare (Busy.Widths.best_bound ~g jobs) (Busy.Widths.total_busy ex) <= 0
      && Q.compare (Busy.Widths.total_busy split)
           (Q.mul (Q.of_int 5) (Busy.Widths.best_bound ~g jobs))
         <= 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_proper_greedy; prop_clique_greedy; prop_proper_clique_exact; prop_online_valid;
      prop_online_vs_offline; prop_mw_matches_single_window; prop_mw_minimal;
      prop_machines_single_matches; prop_machines_monotone; prop_maximize_greedy_vs_exact;
      prop_widths_algorithms; prop_laminar_exact; prop_single_online ]

let () =
  Alcotest.run "extensions"
    [ ( "special cases",
        [ Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "proper clique dp" `Quick test_proper_clique_dp_simple ] );
      ( "online",
        [ Alcotest.test_case "length class" `Quick test_length_class;
          Alcotest.test_case "single machine basic" `Quick test_single_online_basic;
          Alcotest.test_case "single machine sequence" `Quick test_single_online_sequence ] );
      ( "multi window",
        [ Alcotest.test_case "validation" `Quick test_mw_validation;
          Alcotest.test_case "feasibility" `Quick test_mw_feasibility;
          Alcotest.test_case "exact cover" `Quick test_mw_exact_cover ] );
      ( "laminar",
        [ Alcotest.test_case "basic" `Quick test_laminar_basic;
          Alcotest.test_case "guard" `Quick test_laminar_guard ] );
      ( "machines",
        [ Alcotest.test_case "basic" `Quick test_machines_basic;
          Alcotest.test_case "optimum on fixed seeds" `Quick test_machines_optimum_fixed_seeds ] );
      ("maximize", [ Alcotest.test_case "basic" `Quick test_maximize_basic ]);
      ( "widths",
        [ Alcotest.test_case "basic" `Quick test_widths_basic;
          Alcotest.test_case "wide boundary" `Quick test_widths_wide_boundary;
          Alcotest.test_case "unit widths recover standard" `Quick test_widths_unit_recovers_standard ] );
      ( "edge cases",
        [ Alcotest.test_case "ilp on integrality gadget" `Quick test_ilp_on_integrality_gadget;
          Alcotest.test_case "machines guards" `Quick test_machines_count_guard;
          Alcotest.test_case "online bucket separation" `Quick test_online_bucket_separation;
          Alcotest.test_case "laminar forest roots" `Quick test_laminar_forest_roots;
          Alcotest.test_case "maximize budget edge" `Quick test_maximize_budget_edge ] );
      ("properties", props) ]
