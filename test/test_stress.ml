(* Cross-module integration and stress tests.

   Every generator family is pushed through every applicable algorithm
   and the result is validated three ways: by the model checkers
   (Bundle.check / Solution.verify), by the simulator replay (energy must
   equal the analytic objective, no violations), and against the paper's
   bounds where an exact optimum or lower bound is available. Also fuzzes
   the instance-file parser. *)

module Q = Rational
module B = Workload.Bjob
module Gen = Workload.Generate

let interval_families =
  [ ("uniform", fun seed -> Gen.interval_jobs ~n:12 ~horizon:24 ~max_length:5 ~seed ());
    ("clique", fun seed -> Gen.clique_interval_jobs ~n:12 ~max_length:5 ~seed ());
    ("proper", fun seed -> Gen.proper_interval_jobs ~n:12 ~seed ());
    ("proper clique", fun seed -> Gen.proper_clique_interval_jobs ~n:12 ~seed ());
    ("laminar", fun seed -> Gen.laminar_interval_jobs ~depth:3 ~span:24 ~seed ()) ]

let algorithms =
  [ ("first fit", (fun ~g jobs -> Busy.First_fit.solve ~g jobs)); ("greedy tracking", (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs));
    ("two approx", (fun ~g jobs -> Busy.Two_approx.solve ~g jobs)); ("online ff", Busy.Online.first_fit);
    ("online bucketed", Busy.Online.bucketed_first_fit) ]

let test_every_family_every_algorithm () =
  List.iter
    (fun (family, gen) ->
      for seed = 0 to 4 do
        let jobs = gen seed in
        List.iter
          (fun g ->
            let profile = Busy.Bounds.demand_profile ~g jobs in
            List.iter
              (fun (name, solve) ->
                let label = Printf.sprintf "%s/%s g=%d seed=%d" family name g seed in
                let packing = solve ~g jobs in
                Alcotest.(check (option string)) (label ^ " valid") None (Busy.Bundle.check ~g jobs packing);
                let report = Sim.Replay.run_packing ~g packing in
                Alcotest.(check (list string))
                  (label ^ " sim clean") [] report.Sim.Replay.violations;
                Alcotest.(check bool) (label ^ " energy matches") true
                  (Q.equal report.Sim.Replay.total_energy (Busy.Bundle.total_busy packing));
                Alcotest.(check bool) (label ^ " above profile bound") true
                  (Q.compare (Busy.Bundle.total_busy packing) profile >= 0))
              algorithms)
          [ 1; 2; 4 ]
      done)
    interval_families

let test_two_approx_guarantee_across_families () =
  List.iter
    (fun (family, gen) ->
      for seed = 0 to 4 do
        let jobs = gen seed in
        List.iter
          (fun g ->
            let cost = Busy.Bundle.total_busy (Busy.Two_approx.solve ~g jobs) in
            let bound = Q.mul Q.two (Busy.Bounds.demand_profile ~g jobs) in
            Alcotest.(check bool)
              (Printf.sprintf "%s g=%d seed=%d within 2x profile" family g seed)
              true
              (Q.compare cost bound <= 0))
          [ 1; 2; 3; 4; 6 ]
      done)
    interval_families

let test_flexible_pipelines_diurnal () =
  for seed = 0 to 3 do
    let jobs = Gen.diurnal_flexible_jobs ~n:14 ~horizon:48 ~seed () in
    let pinned = Busy.Placement.greedy jobs in
    List.iter
      (fun g ->
        List.iter
          (fun (name, solve) ->
            let label = Printf.sprintf "diurnal/%s g=%d seed=%d" name g seed in
            let packing = solve ~g pinned in
            Alcotest.(check (option string)) (label ^ " valid") None (Busy.Bundle.check ~g pinned packing))
          algorithms;
        (* GreedyTracking pipeline accounting: cost <= span(pinned) + 2 mass *)
        let cost = Busy.Bundle.total_busy (Busy.Greedy_tracking.solve ~g pinned) in
        let bound =
          Q.add (Intervals.span (List.map B.interval_of pinned)) (Q.mul Q.two (Busy.Bounds.mass ~g jobs))
        in
        Alcotest.(check bool)
          (Printf.sprintf "diurnal GT bound g=%d seed=%d" g seed)
          true (Q.compare cost bound <= 0))
      [ 2; 4 ]
  done

let test_active_pipeline_consistency () =
  (* all three active-time solvers agree on feasibility, are ordered by
     cost, and replay cleanly in the simulator *)
  for seed = 0 to 9 do
    let params : Gen.slotted_params = { n = 7; horizon = 12; max_length = 3; slack = 4; g = 2 } in
    let inst = Gen.slotted ~params ~seed () in
    let minimal = Active.Minimal.solve inst Active.Minimal.Right_to_left in
    let rounding = Active.Rounding.solve inst in
    let exact = Active.Exact.branch_and_bound inst in
    match (minimal, rounding, exact) with
    | None, None, None -> ()
    | Some m, Some (r, _), Some e ->
        let label s = Printf.sprintf "seed %d: %s" seed s in
        Alcotest.(check bool) (label "exact <= rounding") true
          (Active.Solution.cost e <= Active.Solution.cost r);
        Alcotest.(check bool) (label "exact <= minimal") true
          (Active.Solution.cost e <= Active.Solution.cost m);
        List.iter
          (fun sol ->
            let report = Sim.Replay.run_active inst sol in
            Alcotest.(check (list string)) (label "sim clean") [] report.Sim.Replay.violations;
            Alcotest.(check bool) (label "sim energy") true
              (Q.equal report.Sim.Replay.total_energy (Q.of_int (Active.Solution.cost sol))))
          [ m; r; e ]
    | _ -> Alcotest.fail (Printf.sprintf "seed %d: feasibility disagreement" seed)
  done

let test_unit_clique_slotted () =
  (* slotted translation of clique-like structure: all jobs share slot
     window; LP rounding must stay within 2 LP *)
  for width = 2 to 5 do
    let jobs = List.init (2 * width) (fun id -> Workload.Slotted.job ~id ~release:0 ~deadline:width ~length:1) in
    let inst = Workload.Slotted.make ~g:2 jobs in
    match (Active.Rounding.solve inst, Active.Exact.optimum inst) with
    | Some (sol, stats), Some opt ->
        Alcotest.(check bool) "within 2 LP" true
          (Q.compare (Q.of_int (Active.Solution.cost sol)) (Q.mul Q.two stats.Active.Rounding.lp_cost) <= 0);
        Alcotest.(check bool) "opt sane" true (opt >= width)
    | _ -> Alcotest.fail "clique-slotted should be feasible"
  done

(* -- parser fuzzing ----------------------------------------------------------- *)

let prop_parser_never_crashes =
  let gen =
    QCheck.Gen.(
      let token = oneofl [ "slotted"; "busy"; "g"; "job"; "0"; "1"; "-3"; "5/2"; "x"; "#c"; "" ] in
      let* lines = list_size (int_range 0 8) (list_size (int_range 0 5) token) in
      return (String.concat "\n" (List.map (String.concat " ") lines)))
  in
  QCheck.Test.make ~name:"parser: random token soup either parses or raises Parse_error" ~count:300
    (QCheck.make gen ~print:(fun s -> s))
    (fun input ->
      match Workload.Io.parse_string input with
      | _ -> true
      | exception Workload.Io.Parse_error _ -> true
      | exception _ -> false)

let prop_parse_print_fixpoint =
  QCheck.Test.make ~name:"parse . print . parse is the identity" ~count:100 (QCheck.int_range 0 10_000)
    (fun seed ->
      let inst =
        if seed mod 2 = 0 then Workload.Io.Slotted_instance (Gen.slotted ~seed ())
        else Workload.Io.Busy_instance (Gen.busy_jobs ~seed ())
      in
      let once = Workload.Io.to_string inst in
      let twice = Workload.Io.to_string (Workload.Io.parse_string once) in
      once = twice)

let props = List.map QCheck_alcotest.to_alcotest [ prop_parser_never_crashes; prop_parse_print_fixpoint ]

let () =
  Alcotest.run "stress"
    [ ( "integration",
        [ Alcotest.test_case "every family x every algorithm" `Quick test_every_family_every_algorithm;
          Alcotest.test_case "two-approx guarantee across families" `Quick
            test_two_approx_guarantee_across_families;
          Alcotest.test_case "flexible pipelines on diurnal load" `Quick test_flexible_pipelines_diurnal;
          Alcotest.test_case "active pipeline consistency" `Quick test_active_pipeline_consistency;
          Alcotest.test_case "clique-like slotted instances" `Quick test_unit_clique_slotted ] );
      ("fuzz", props) ]
