(* Edge and error-path coverage: every documented failure mode and every
   degenerate input (empty job sets, out-of-range requests, accessor
   behaviour) that the main suites do not already exercise. *)

module Q = Rational
module B = Workload.Bjob
module S = Workload.Slotted

let ij id start len = B.interval ~id ~start:(Q.of_int start) ~length:(Q.of_int len)

(* -- substrates ------------------------------------------------------------- *)

let test_bigint_accessors () =
  Alcotest.(check int) "num_digits zero" 0 (Bigint.num_digits Bigint.zero);
  Alcotest.(check bool) "num_digits grows" true
    (Bigint.num_digits (Bigint.pow (Bigint.of_int 2) 100) > Bigint.num_digits (Bigint.of_int 5));
  Alcotest.(check bool) "is_one" true (Bigint.is_one Bigint.one);
  Alcotest.(check bool) "minus one is not one" false (Bigint.is_one Bigint.minus_one);
  Alcotest.check_raises "to_int_exn overflow" (Failure "Bigint.to_int_exn: value does not fit")
    (fun () -> ignore (Bigint.to_int_exn (Bigint.pow (Bigint.of_int 2) 80)))

let test_rational_edges () =
  Alcotest.(check string) "negative denominator in of_string" "-1/2" (Q.to_string (Q.of_string "2/-4"));
  Alcotest.check_raises "floor_int overflow" (Failure "Rational.floor_int: out of native range")
    (fun () -> ignore (Q.floor_int (Q.of_bigint (Bigint.pow (Bigint.of_int 2) 80))));
  Alcotest.(check int) "ceil_int exact" 5 (Q.ceil_int (Q.of_int 5))

let test_flow_fresh_graph_cut () =
  (* min_cut before any flow: residual = capacities, so the side is plain
     reachability *)
  let g = Flow.create 3 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:1 in
  let side = Flow.min_cut g ~source:0 in
  Alcotest.(check (list bool)) "reachability" [ true; true; false ] (Array.to_list side)

let test_lp_accessors () =
  let m = Lp.create () in
  let x = Lp.add_var m "alpha" in
  let _ = Lp.add_var m "beta" in
  Lp.add_constraint m [ (Q.one, x) ] Lp.Le Q.one;
  Alcotest.(check int) "num_vars" 2 (Lp.num_vars m);
  Alcotest.(check int) "num_constraints" 1 (Lp.num_constraints m);
  Alcotest.(check string) "var_name" "alpha" (Lp.var_name m x)

(* -- empty job sets everywhere ----------------------------------------------- *)

let test_empty_busy_algorithms () =
  Alcotest.(check int) "first fit" 0 (List.length (Busy.First_fit.solve ~g:2 []));
  Alcotest.(check int) "greedy tracking" 0 (List.length (Busy.Greedy_tracking.solve ~g:2 []));
  Alcotest.(check int) "two approx" 0 (List.length (Busy.Two_approx.solve ~g:2 []));
  Alcotest.(check int) "kumar rudra" 0 (List.length (Busy.Kumar_rudra.solve ~g:2 []));
  Alcotest.(check int) "laminar" 0 (List.length (Busy.Laminar.exact ~g:2 []));
  Alcotest.(check int) "online" 0 (List.length (Busy.Online.first_fit ~g:2 []));
  Alcotest.(check string) "preemptive" "0" (Q.to_string (Busy.Preemptive.unbounded []).Busy.Preemptive.cost);
  Alcotest.(check string) "preemptive lp oracle" "0" (Q.to_string (Busy.Preemptive.lp_optimum []));
  let v, completed = Busy.Single_online.greedy_switch [] in
  Alcotest.(check string) "single online" "0" (Q.to_string v);
  Alcotest.(check int) "none completed" 0 (List.length completed)

let test_empty_active_instance () =
  let inst = S.make ~g:2 [] in
  (match Active.Rounding.solve inst with
  | Some (sol, stats) ->
      Alcotest.(check int) "rounding cost 0" 0 (Active.Solution.cost sol);
      Alcotest.(check string) "lp cost 0" "0" (Q.to_string stats.Active.Rounding.lp_cost)
  | None -> Alcotest.fail "empty instance is feasible");
  Alcotest.(check (option int)) "exact 0" (Some 0) (Active.Exact.optimum inst);
  match Active.Minimal.solve inst Active.Minimal.Left_to_right with
  | Some sol -> Alcotest.(check int) "minimal 0" 0 (Active.Solution.cost sol)
  | None -> Alcotest.fail "empty instance is feasible"

let test_empty_sim () =
  let report = Sim.Replay.run_packing ~g:2 [] in
  Alcotest.(check string) "energy 0" "0" (Q.to_string report.Sim.Replay.total_energy);
  Alcotest.(check string) "utilization 0" "0" (Q.to_string report.Sim.Replay.utilization);
  Alcotest.(check int) "no switches" 0 report.Sim.Replay.total_switch_ons

(* -- guards not hit elsewhere -------------------------------------------------- *)

let test_size_guards () =
  let many = List.init 15 (fun id -> ij id (2 * id) 1) in
  Alcotest.check_raises "busy exact cap" (Invalid_argument "Exact.solve: too many jobs for exhaustive search")
    (fun () -> ignore (Busy.Exact.solve ~g:2 many));
  Alcotest.check_raises "maximize cap" (Invalid_argument "Maximize.exact: too many jobs for exhaustive search")
    (fun () -> ignore (Busy.Maximize.exact ~g:2 ~budget:Q.one many));
  let wide = List.map (fun j -> Busy.Widths.wjob ~job:j ~width:1) many in
  Alcotest.check_raises "widths cap" (Invalid_argument "Widths.exact: too many jobs") (fun () ->
      ignore (Busy.Widths.exact ~g:2 wide));
  let big_slotted = S.make ~g:2 (List.init 11 (fun id -> S.job ~id ~release:(2 * id) ~deadline:(2 * id + 2) ~length:1)) in
  Alcotest.check_raises "brute force cap" (Invalid_argument "Exact.brute_force: too many slots") (fun () ->
      ignore (Active.Exact.brute_force big_slotted))

let test_g_guards () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument (name ^ ": g < 1")) (fun () -> f ()))
    [ ("First_fit.solve", fun () -> ignore (Busy.First_fit.solve ~g:0 []));
      ("Greedy_tracking.solve", fun () -> ignore (Busy.Greedy_tracking.solve ~g:0 []));
      ("Two_approx.solve", fun () -> ignore (Busy.Two_approx.solve ~g:0 []));
      ("Kumar_rudra.solve", fun () -> ignore (Busy.Kumar_rudra.solve ~g:0 []));
      ("Laminar.exact", fun () -> ignore (Busy.Laminar.exact ~g:0 []));
      ("Online.first_fit", fun () -> ignore (Busy.Online.first_fit ~g:0 []));
      ("Maximize.greedy", fun () -> ignore (Busy.Maximize.greedy ~g:0 ~budget:Q.one []));
      ("Preemptive.bounded", fun () -> ignore (Busy.Preemptive.bounded ~g:0 [])) ]

let test_gadget_guards () =
  Alcotest.check_raises "gt gadget g" (Invalid_argument "Gadgets.greedy_tracking_tight: needs g >= 2")
    (fun () -> ignore (Workload.Gadgets.greedy_tracking_tight ~g:1 ~eps:(Q.of_ints 1 4)));
  Alcotest.check_raises "gt gadget eps" (Invalid_argument "Gadgets.greedy_tracking_tight: eps must be in (0, 1/2]")
    (fun () -> ignore (Workload.Gadgets.greedy_tracking_tight ~g:3 ~eps:Q.one));
  Alcotest.check_raises "dp gadget eps" (Invalid_argument "Gadgets.dp_profile_tight: eps <= 0") (fun () ->
      ignore (Workload.Gadgets.dp_profile_tight ~g:3 ~eps:Q.zero));
  Alcotest.check_raises "integrality g" (Invalid_argument "Gadgets.integrality_gap: needs g >= 1")
    (fun () -> ignore (Workload.Gadgets.integrality_gap 0))

(* -- behavioural corners --------------------------------------------------------- *)

let test_feasibility_only_unknown_job () =
  (* restricting to an id that does not exist = restricting to no jobs *)
  let inst = S.make ~g:1 [ S.job ~id:0 ~release:0 ~deadline:1 ~length:1 ] in
  Alcotest.(check bool) "vacuously feasible" true
    (Active.Feasibility.feasible ~only_jobs:[ 99 ] inst ~open_slots:[])

let test_oracle_unknown_job () =
  (* the oracle addresses jobs by their index in the job array: an
     index past the jobs is rejected, and index 0 still toggles after
     that *)
  let inst = S.make ~g:1 [ S.job ~id:7 ~release:0 ~deadline:2 ~length:2 ] in
  let o = Active.Feasibility.Oracle.create ~activate_all:false (Active.Feasibility.network inst) in
  Alcotest.check_raises "index past the jobs"
    (Invalid_argument "Feasibility.Oracle.set_job: no job at this index") (fun () ->
      Active.Feasibility.Oracle.set_job o 1 ~active:true);
  Active.Feasibility.Oracle.set_job o 0 ~active:true;
  Alcotest.(check int) "job 0 activated" 2 (Active.Feasibility.Oracle.target o);
  Alcotest.(check bool) "and fits" true (Active.Feasibility.Oracle.check o)

let test_solution_of_infeasible_slots () =
  let inst = S.make ~g:1 [ S.job ~id:0 ~release:0 ~deadline:2 ~length:2 ] in
  Alcotest.(check bool) "not enough slots" true (Active.Solution.of_open_slots inst ~open_slots:[ 1 ] = None)

let test_minimalize_infeasible_start () =
  let inst = S.make ~g:1 [ S.job ~id:0 ~release:0 ~deadline:2 ~length:2 ] in
  Alcotest.(check bool) "infeasible start" true
    (Active.Minimal.minimalize inst ~start:[ 1 ] Active.Minimal.Left_to_right = None)

let test_machines_lp_infeasible () =
  let inst =
    S.make ~g:1
      [ S.job ~id:0 ~release:0 ~deadline:1 ~length:1; S.job ~id:1 ~release:0 ~deadline:1 ~length:1;
        S.job ~id:2 ~release:0 ~deadline:1 ~length:1 ]
  in
  Alcotest.(check bool) "2 machines not enough" true (Active.Machines.lp_lower_bound inst ~machines:2 = None)

let test_render_tiny_width () =
  (* width-1 rendering must not crash or index out of bounds *)
  let s = Render.packing ~width:1 [ [ ij 0 0 2; ij 1 5 1 ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_single_online_no_release_order_dependence () =
  (* inputs are resorted internally: permutations give the same value *)
  let jobs = [ ij 2 6 2; ij 0 0 4; ij 1 1 5 ] in
  let v1, _ = Busy.Single_online.greedy_switch jobs in
  let v2, _ = Busy.Single_online.greedy_switch (List.rev jobs) in
  Alcotest.(check string) "permutation invariant" (Q.to_string v1) (Q.to_string v2)

let test_pool_all_failures () =
  Alcotest.check_raises "first failure in input order" (Failure "t0") (fun () ->
      ignore (Parallel.Pool.map (fun i -> failwith (Printf.sprintf "t%d" i)) [ 0; 1; 2 ]))

let test_io_duplicate_header_fields () =
  (* last 'g' wins - pinned as documented behaviour *)
  match Workload.Io.parse_string "slotted\ng 2\ng 5\njob 0 0 3 1\n" with
  | Workload.Io.Slotted_instance inst -> Alcotest.(check int) "last g wins" 5 inst.S.g
  | _ -> Alcotest.fail "expected slotted"

let test_duplicate_ids_rejected () =
  let jobs = [ ij 0 0 2; ij 0 3 2 ] in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument (name ^ ": duplicate job ids")) (fun () -> f jobs))
    [ ("Greedy_tracking.solve", fun jobs -> ignore (Busy.Greedy_tracking.solve ~g:2 jobs));
      ("Two_approx.solve", fun jobs -> ignore (Busy.Two_approx.solve ~g:2 jobs));
      ("Laminar.exact", fun jobs -> ignore (Busy.Laminar.exact ~g:2 jobs)) ]

let test_widths_narrow_wide_partition () =
  let jobs =
    [ Busy.Widths.wjob ~job:(ij 0 0 2) ~width:3; Busy.Widths.wjob ~job:(ij 1 0 2) ~width:1 ]
  in
  let packing = Busy.Widths.narrow_wide_split ~g:4 jobs in
  (* the wide job (3 > 4/2) and the narrow job never share a machine *)
  List.iter
    (fun bundle ->
      let kinds = List.sort_uniq compare (List.map (Busy.Widths.is_wide ~g:4) bundle) in
      Alcotest.(check int) "homogeneous machine" 1 (List.length kinds))
    packing

let () =
  Alcotest.run "coverage"
    [ ( "substrates",
        [ Alcotest.test_case "bigint accessors" `Quick test_bigint_accessors;
          Alcotest.test_case "rational edges" `Quick test_rational_edges;
          Alcotest.test_case "flow fresh cut" `Quick test_flow_fresh_graph_cut;
          Alcotest.test_case "lp accessors" `Quick test_lp_accessors ] );
      ( "empty inputs",
        [ Alcotest.test_case "busy algorithms" `Quick test_empty_busy_algorithms;
          Alcotest.test_case "active instance" `Quick test_empty_active_instance;
          Alcotest.test_case "simulator" `Quick test_empty_sim ] );
      ( "guards",
        [ Alcotest.test_case "size caps" `Quick test_size_guards;
          Alcotest.test_case "g >= 1" `Quick test_g_guards;
          Alcotest.test_case "gadget parameters" `Quick test_gadget_guards ] );
      ( "corners",
        [ Alcotest.test_case "feasibility unknown job" `Quick test_feasibility_only_unknown_job;
          Alcotest.test_case "oracle unknown job" `Quick test_oracle_unknown_job;
          Alcotest.test_case "solution infeasible slots" `Quick test_solution_of_infeasible_slots;
          Alcotest.test_case "minimalize infeasible start" `Quick test_minimalize_infeasible_start;
          Alcotest.test_case "machines lp infeasible" `Quick test_machines_lp_infeasible;
          Alcotest.test_case "render tiny width" `Quick test_render_tiny_width;
          Alcotest.test_case "single online permutation" `Quick test_single_online_no_release_order_dependence;
          Alcotest.test_case "pool all failures" `Quick test_pool_all_failures;
          Alcotest.test_case "io duplicate fields" `Quick test_io_duplicate_header_fields;
          Alcotest.test_case "duplicate ids rejected" `Quick test_duplicate_ids_rejected;
          Alcotest.test_case "widths narrow/wide partition" `Quick test_widths_narrow_wide_partition ] ) ]
