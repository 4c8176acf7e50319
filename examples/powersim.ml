(* Power simulation: execute the three busy-time algorithms' packings on a
   simulated machine fleet and compare operational metrics beyond the
   analytic objective - energy, power transitions (relevant when switching
   machines on/off has a cost), peak parallelism and utilization.

   Run with: dune exec examples/powersim.exe *)

module Q = Rational

let () =
  let g = 3 in
  let jobs = Workload.Generate.interval_jobs ~n:24 ~horizon:48 ~max_length:8 ~seed:99 () in
  Printf.printf "=== Power simulation: %d interval jobs, capacity %d ===\n\n" (List.length jobs) g;
  Printf.printf "lower bound (demand profile): %s\n\n"
    (Q.to_string (Busy.Bounds.demand_profile ~g jobs));
  let run name alg =
    let packing = alg ~g jobs in
    let report = Sim.Replay.run_packing ~g packing in
    assert (report.Sim.Replay.violations = []);
    assert (Q.equal report.Sim.Replay.total_energy (Busy.Bundle.total_busy packing));
    Printf.printf "%-26s machines=%2d energy=%6.1f power-ons=%2d peak=%d utilization=%.2f\n" name
      (List.length packing)
      (Q.to_float report.Sim.Replay.total_energy)
      report.Sim.Replay.total_switch_ons report.Sim.Replay.peak_parallelism
      (Q.to_float report.Sim.Replay.utilization);
    packing
  in
  let _ = run "FirstFit (4-approx)" (fun ~g jobs -> Busy.First_fit.solve ~g jobs) in
  let _ = run "GreedyTracking (3-approx)" (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs) in
  let packing = run "TwoApprox (2-approx)" (fun ~g jobs -> Busy.Two_approx.solve ~g jobs) in
  print_endline "\nTwoApprox machine timeline (one row per machine):";
  print_string (Render.packing ~width:64 packing);
  (* preemptive comparison *)
  let flexible = Workload.Generate.flexible_jobs ~n:12 ~horizon:30 ~max_length:5 ~seed:99 () in
  let cost, sol, detail = Busy.Preemptive.bounded ~g flexible in
  let report = Sim.Replay.run_preemptive ~g detail in
  Printf.printf "\npreemptive fleet (flexible jobs): energy %s (analytic %s), machines peak %d\n"
    (Q.to_string report.Sim.Replay.total_energy)
    (Q.to_string cost) report.Sim.Replay.peak_parallelism;
  print_endline "\npreemptive per-job timeline:";
  print_string (Render.preemptive sol ~width:64)
