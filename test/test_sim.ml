(* Tests for the discrete-event simulator and the ASCII renderer.

   The simulator is the end-to-end oracle of the repository: executing a
   packing (or active-time solution) must spend exactly the analytic
   objective in energy, flag no violations on valid schedules, and flag
   violations on deliberately broken ones. *)

module Q = Rational
module B = Workload.Bjob
module Gen = Workload.Generate

let ij id start len = B.interval ~id ~start:(Q.of_int start) ~length:(Q.of_int len)

let test_packing_energy () =
  let jobs = [ ij 0 0 3; ij 1 1 3; ij 2 6 2 ] in
  let packing = Busy.First_fit.solve ~g:2 jobs in
  let report = Sim.run_packing ~g:2 packing in
  Alcotest.(check (list string)) "no violations" [] report.Sim.violations;
  Alcotest.(check string) "energy = busy time" (Q.to_string (Busy.Bundle.total_busy packing))
    (Q.to_string report.Sim.total_energy);
  Alcotest.(check bool) "peak within g" true (report.Sim.peak_parallelism <= 2);
  Alcotest.(check bool) "utilization in (0,1]" true
    (Q.compare report.Sim.utilization Q.zero > 0 && Q.compare report.Sim.utilization Q.one <= 0)

let test_packing_violation_detected () =
  (* 3 overlapping jobs forced onto one machine with g = 2 *)
  let jobs = [ ij 0 0 3; ij 1 1 3; ij 2 2 3 ] in
  let report = Sim.run_packing ~g:2 [ jobs ] in
  Alcotest.(check bool) "violation flagged" true (report.Sim.violations <> []);
  Alcotest.(check int) "peak recorded" 3 report.Sim.peak_parallelism

let test_packing_flexible_rejected () =
  let flex = B.make ~id:0 ~release:Q.zero ~deadline:(Q.of_int 5) ~length:Q.one in
  let report = Sim.run_packing ~g:2 [ [ flex ] ] in
  Alcotest.(check bool) "flexible flagged" true (report.Sim.violations <> [])

let test_switch_counting () =
  (* two disjoint jobs on one machine: two power-ons *)
  let report = Sim.run_packing ~g:2 [ [ ij 0 0 1; ij 1 5 1 ] ] in
  Alcotest.(check int) "switch ons" 2 report.Sim.total_switch_ons;
  (* merged when adjacent *)
  let report2 = Sim.run_packing ~g:2 [ [ ij 0 0 1; ij 1 1 1 ] ] in
  Alcotest.(check int) "adjacent merge" 1 report2.Sim.total_switch_ons

let test_active_energy () =
  let inst =
    Workload.Slotted.make ~g:2
      [ Workload.Slotted.job ~id:0 ~release:0 ~deadline:4 ~length:2;
        Workload.Slotted.job ~id:1 ~release:0 ~deadline:4 ~length:2 ]
  in
  match Active.Exact.branch_and_bound inst with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
      let report = Sim.run_active inst sol in
      Alcotest.(check (list string)) "no violations" [] report.Sim.violations;
      Alcotest.(check string) "energy = active time" (string_of_int (Active.Solution.cost sol))
        (Q.to_string report.Sim.total_energy)

let test_active_violation () =
  let inst =
    Workload.Slotted.make ~g:1 [ Workload.Slotted.job ~id:0 ~release:0 ~deadline:2 ~length:1 ]
  in
  (* schedule outside the declared open slots *)
  let bogus = { Active.Solution.open_slots = [ 1 ]; schedule = [ (0, [ 2 ]) ] } in
  let report = Sim.run_active inst bogus in
  Alcotest.(check bool) "violation flagged" true (report.Sim.violations <> [])

let test_preemptive_energy () =
  let jobs = List.init 4 (fun id -> B.make ~id ~release:Q.zero ~deadline:Q.two ~length:Q.two) in
  let cost, _, detail = Busy.Preemptive.bounded ~g:2 jobs in
  let report = Sim.run_preemptive ~g:2 detail in
  Alcotest.(check (list string)) "no violations" [] report.Sim.violations;
  Alcotest.(check string) "energy = bounded cost" (Q.to_string cost) (Q.to_string report.Sim.total_energy)

(* -- renderer ---------------------------------------------------------------- *)

let test_render_slotted () =
  let inst =
    Workload.Slotted.make ~g:1 [ Workload.Slotted.job ~id:0 ~release:0 ~deadline:4 ~length:2 ]
  in
  let sol = { Active.Solution.open_slots = [ 2; 3 ]; schedule = [ (0, [ 2; 3 ]) ] } in
  Alcotest.(check string) "gantt" "slots   .##.\njob 0   .xx.\n" (Render.slotted inst sol)

let test_render_packing () =
  let packing = [ [ ij 0 0 2; ij 1 2 2 ] ] in
  let s = Render.packing ~width:8 packing in
  Alcotest.(check string) "row" "m0   |00001111|\n" s;
  Alcotest.(check string) "empty" "(empty packing)\n" (Render.packing [])

let test_render_overlap_star () =
  let s = Render.packing ~width:4 [ [ ij 0 0 2; ij 1 0 2 ] ] in
  Alcotest.(check string) "overlap" "m0   |****|\n" s

let count_substring needle haystack =
  let n = String.length needle and h = String.length haystack in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub haystack i n = needle then incr count
  done;
  !count

let test_render_svg () =
  let packing = [ [ ij 0 0 2; ij 1 2 2 ]; [ ij 2 1 3 ] ] in
  let svg = Render.packing_svg ~width:300 packing in
  Alcotest.(check bool) "starts with svg" true (String.length svg > 4 && String.sub svg 0 4 = "<svg");
  Alcotest.(check int) "one rect per job" 3 (count_substring "<rect" svg);
  Alcotest.(check bool) "closes" true (count_substring "</svg>" svg = 1);
  let empty = Render.packing_svg [] in
  Alcotest.(check bool) "empty handled" true (count_substring "empty packing" empty = 1)

let test_render_slotted_svg () =
  let inst =
    Workload.Slotted.make ~g:1 [ Workload.Slotted.job ~id:0 ~release:0 ~deadline:4 ~length:2 ]
  in
  let sol = { Active.Solution.open_slots = [ 2; 3 ]; schedule = [ (0, [ 2; 3 ]) ] } in
  let svg = Render.slotted_svg inst sol in
  (* 2 open-slot rects + 2 unit rects *)
  Alcotest.(check int) "rects" 4 (count_substring "<rect" svg);
  Alcotest.(check int) "closed" 1 (count_substring "</svg>" svg)

let test_render_preemptive () =
  let jobs = [ B.make ~id:0 ~release:Q.zero ~deadline:Q.two ~length:Q.one ] in
  let sol = Busy.Preemptive.unbounded jobs in
  let s = Render.preemptive sol ~width:4 in
  Alcotest.(check bool) "contains job row" true (String.length s > 0 && String.sub s 0 4 = "job ")

(* -- rolling horizon ----------------------------------------------------------- *)

module Rolling = Sim.Rolling
module S = Workload.Slotted

let tiny_trace =
  S.make ~g:2
    [ S.job ~id:0 ~release:0 ~deadline:6 ~length:2;
      S.job ~id:1 ~release:1 ~deadline:7 ~length:3;
      S.job ~id:2 ~release:4 ~deadline:10 ~length:2 ]

let tiny_arrivals = [ (1, 1); (2, 5) ]

let test_rolling_basic () =
  let r = Rolling.run ~arrivals:tiny_arrivals tiny_trace in
  Alcotest.(check int) "all jobs complete" 3 r.Rolling.completed_jobs;
  Alcotest.(check int) "no misses" 0 r.Rolling.total_misses;
  Alcotest.(check int) "work = total length" (S.total_length tiny_trace) r.Rolling.total_work;
  Alcotest.(check int) "energy = open slots" (List.length r.Rolling.open_slots) r.Rolling.total_energy;
  Alcotest.(check (option string)) "committed schedule is valid" None
    (S.check_schedule tiny_trace r.Rolling.schedule);
  (match r.Rolling.replay with
  | None -> Alcotest.fail "complete run must replay"
  | Some rep ->
      Alcotest.(check (list string)) "replay clean" [] rep.Sim.violations;
      Alcotest.(check string) "replayed energy = committed energy"
        (string_of_int r.Rolling.total_energy)
        (Q.to_string rep.Sim.total_energy));
  (* per-epoch bookkeeping sums to the totals *)
  Alcotest.(check int) "epoch work sums" r.Rolling.total_work
    (List.fold_left (fun acc e -> acc + e.Rolling.work) 0 r.Rolling.epochs);
  Alcotest.(check int) "epoch energy sums" r.Rolling.total_energy
    (List.fold_left (fun acc e -> acc + e.Rolling.energy) 0 r.Rolling.epochs);
  (* a job not yet arrived is outside the window *)
  let e0 = List.hd r.Rolling.epochs in
  Alcotest.(check int) "only job 0 at epoch 0" 1 e0.Rolling.arrived;
  List.iter
    (fun e ->
      Alcotest.(check bool) "every epoch stays feasible" true e.Rolling.feasible;
      match e.Rolling.lower_bound with
      | Some b ->
          Alcotest.(check bool) "pinned LP bounds the final energy" true
            (Q.compare b (Q.of_int r.Rolling.total_energy) <= 0)
      | None -> Alcotest.fail "non-degraded epoch must carry a bound")
    r.Rolling.epochs

let test_rolling_miss () =
  (* g = 1 and a late arrival whose window is already spent: the job is
     dropped as an SLA miss, the rest completes, the replay is skipped *)
  let inst =
    S.make ~g:1
      [ S.job ~id:0 ~release:0 ~deadline:4 ~length:2;
        S.job ~id:1 ~release:0 ~deadline:4 ~length:2;
        S.job ~id:2 ~release:0 ~deadline:8 ~length:2 ]
  in
  let config = { Rolling.default_config with Rolling.epoch_len = 2 } in
  let r = Rolling.run ~config ~arrivals:[ (1, 3) ] inst in
  Alcotest.(check int) "one miss" 1 r.Rolling.total_misses;
  Alcotest.(check int) "others complete" 2 r.Rolling.completed_jobs;
  Alcotest.(check bool) "replay skipped" true (r.Rolling.replay = None);
  Alcotest.(check int) "misses accounted per epoch" 1
    (List.fold_left (fun acc e -> acc + e.Rolling.sla_misses) 0 r.Rolling.epochs)

let test_rolling_deadline () =
  (* an always-expired probe degrades every epoch deterministically: the
     cascade records the aborted tier, EDF still commits the work *)
  let config =
    { Rolling.default_config with Rolling.epoch_deadline = Some (fun () () -> true) }
  in
  let r = Rolling.run ~config ~arrivals:tiny_arrivals tiny_trace in
  Alcotest.(check int) "still completes" 3 r.Rolling.completed_jobs;
  List.iter
    (fun e ->
      Alcotest.(check bool) "degraded" true e.Rolling.degraded;
      Alcotest.(check bool) "deadline bound skipped" true (e.Rolling.lower_bound = None);
      match e.Rolling.provenance with
      | Some p ->
          Alcotest.(check bool) "aborted tier recorded" true
            (List.exists
               (fun (a : Budget.Cascade.attempt) -> a.status = Budget.Cascade.Deadline)
               p.attempts)
      | None -> Alcotest.fail "cascade provenance expected")
    r.Rolling.epochs

let test_rolling_of_busy () =
  let jobs = [ ij 0 0 3; ij 1 1 3 ] in
  let inst = Rolling.of_busy ~g:2 jobs in
  Alcotest.(check int) "jobs" 2 (S.num_jobs inst);
  Alcotest.(check int) "horizon" 4 (S.horizon inst);
  let frac = B.make ~id:7 ~release:Q.zero ~deadline:(Q.div Q.one Q.two) ~length:(Q.div Q.one Q.two) in
  Alcotest.check_raises "fractional coordinates rejected"
    (Invalid_argument "Rolling.of_busy: job 7 has non-integral length 1/2") (fun () ->
      ignore (Rolling.of_busy ~g:2 [ frac ]))

let test_rolling_counters () =
  let obs = Obs.create () in
  let r = Rolling.run ~obs ~arrivals:tiny_arrivals tiny_trace in
  let counter n = match List.assoc_opt n (Obs.counters obs) with Some v -> v | None -> 0 in
  Alcotest.(check int) "sim.epochs" (List.length r.Rolling.epochs) (counter "sim.epochs");
  Alcotest.(check int) "sim.energy" r.Rolling.total_energy (counter "sim.energy");
  Alcotest.(check int) "sim.work" r.Rolling.total_work (counter "sim.work");
  Alcotest.(check bool) "session warm hits recorded" true (counter "session.warm_hits" > 0);
  (* the cold baseline reuses nothing across epochs *)
  let cold = Obs.create () in
  let config = { Rolling.default_config with Rolling.warm = false } in
  let rc = Rolling.run ~obs:cold ~config ~arrivals:tiny_arrivals tiny_trace in
  Alcotest.(check int) "cold energy agrees" r.Rolling.total_energy rc.Rolling.total_energy;
  Alcotest.(check bool) "cold records LP work" true
    (List.mem_assoc "lp.exact_cells" (Obs.counters cold));
  (* Warm LP state pays over a batch of traces shaped like the
     sim_rolling benchmark's, not on every trace: a cold run's fresh
     cut loop skips phase 1 too, and on the tiny trace above it does
     slightly less LP work than the warm run. *)
  let params : Gen.slotted_params = { n = 12; horizon = 24; max_length = 4; slack = 8; g = 3 } in
  let cells ~warm (inst, arrivals) =
    let obs = Obs.create () in
    ignore (Rolling.run ~obs ~config:{ Rolling.default_config with Rolling.warm } ~arrivals inst);
    Option.value (List.assoc_opt "lp.exact_cells" (Obs.counters obs)) ~default:0
  in
  let traces = List.init 20 (fun seed -> Gen.timed_slotted ~params ~lead:12 ~seed ()) in
  let total warm = List.fold_left (fun acc t -> acc + cells ~warm t) 0 traces in
  let warm = total true and cold = total false in
  Alcotest.(check bool)
    (Printf.sprintf "cold LP work %d > warm %d over 20 traces" cold warm)
    true (cold > warm)

(* each non-empty window is one registry solve (session.solves); an
   unknown algorithm is rejected by the registry and a bound-only one
   before the first epoch; a deadline probe is armed on the epoch
   budget for any solver, not just the cascade *)
let test_rolling_registry_dispatch () =
  let obs = Obs.create () in
  let r = Rolling.run ~obs ~arrivals:tiny_arrivals tiny_trace in
  let counter n = match List.assoc_opt n (Obs.counters obs) with Some v -> v | None -> 0 in
  Alcotest.(check int) "one solve per non-empty window"
    (List.length (List.filter (fun e -> e.Rolling.window_jobs > 0) r.Rolling.epochs))
    (counter "session.solves");
  (match
     Rolling.run
       ~config:{ Rolling.default_config with Rolling.algorithm = "no-such-solver" }
       ~arrivals:tiny_arrivals tiny_trace
   with
  | exception Core.Solver.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported");
  let obs = Obs.create () in
  Alcotest.check_raises "a bound-only solver has no plan to commit"
    (Core.Solver.Unsupported "lp-bound returns a lower bound, not a schedule to commit")
    (fun () ->
      ignore
        (Rolling.run ~obs
           ~config:{ Rolling.default_config with Rolling.algorithm = "lp-bound" }
           ~arrivals:tiny_arrivals tiny_trace));
  Alcotest.(check (list (pair string int))) "refused before the first epoch" []
    (Obs.counters obs);
  let config =
    { Rolling.default_config with
      Rolling.algorithm = "exact";
      epoch_deadline = Some (fun () () -> true) }
  in
  let r = Rolling.run ~config ~arrivals:tiny_arrivals tiny_trace in
  Alcotest.(check int) "exact under an expired deadline still completes" 3
    r.Rolling.completed_jobs;
  List.iter
    (fun e ->
      Alcotest.(check bool) "degraded" true e.Rolling.degraded;
      Alcotest.(check bool) "no cascade provenance" true (e.Rolling.provenance = None))
    r.Rolling.epochs

(* data/vm_day.txt inlined as (id, release, deadline, length): a day of
   batch VM requests (hours), each arriving at its release *)
let vm_day =
  [ (0, 0, 10, 4); (1, 1, 6, 2); (2, 2, 12, 5); (3, 4, 9, 3); (4, 6, 18, 6); (5, 8, 14, 3);
    (6, 9, 13, 2); (7, 12, 22, 4); (8, 14, 20, 3); (9, 15, 24, 5); (10, 18, 23, 2);
    (11, 20, 24, 2) ]

(* vm_day (epoch_len 2: with epochs of 4 the tightest request arrives
   just after a boundary and is missed before it is seen) and three
   generated timed traces, each replayed warm and cold (fresh warm
   state every epoch). Warmth changes the LP work, never the committed schedule;
   vm_day is pinned at (epochs, energy, misses) = (11, 22, 0), and a
   warm run does no more LP work than a cold one on each trace and less
   in total (5,431 vs 9,138 cells, the cascade's ceil(LP1) floors
   included; vm_day reads 3,020 warm against 3,258 cold). *)
let test_rolling_warm_equals_cold () =
  let vm_jobs =
    List.map
      (fun (id, r, d, p) -> B.make ~id ~release:(Q.of_int r) ~deadline:(Q.of_int d) ~length:(Q.of_int p))
      vm_day
  in
  let vm_arrivals = List.map (fun (id, r, _, _) -> (id, r)) vm_day in
  let params : Gen.slotted_params = { n = 12; horizon = 24; max_length = 4; slack = 5; g = 3 } in
  let traces =
    ("vm_day", Rolling.of_busy ~g:4 vm_jobs, vm_arrivals, 2, Some (11, 22, 0))
    :: List.map
         (fun seed ->
           let inst, arrivals = Gen.timed_slotted ~params ~seed () in
           (Printf.sprintf "gen/s%d" seed, inst, arrivals, Rolling.default_config.Rolling.epoch_len, None))
         [ 3; 8; 9 ]
  in
  let warm_total, cold_total =
    List.fold_left
      (fun (warm_total, cold_total) (name, inst, arrivals, epoch_len, golden) ->
        let run warm =
          let obs = Obs.create () in
          let r = Rolling.run ~obs ~config:{ Rolling.default_config with warm; epoch_len } ~arrivals inst in
          (r, Option.value (List.assoc_opt "lp.exact_cells" (Obs.counters obs)) ~default:0)
        in
        let w, w_cells = run true and c, c_cells = run false in
        Alcotest.(check int) (name ^ ": energy") c.Rolling.total_energy w.Rolling.total_energy;
        Alcotest.(check int) (name ^ ": misses") c.Rolling.total_misses w.Rolling.total_misses;
        Alcotest.(check (list int)) (name ^ ": open slots") c.Rolling.open_slots w.Rolling.open_slots;
        Alcotest.(check bool) (name ^ ": schedule") true (w.Rolling.schedule = c.Rolling.schedule);
        (* LP1's value is unique: the pinned bound resumed across epochs
           equals the one solved afresh in each *)
        let bounds r = List.map (fun e -> Option.map Q.to_string e.Rolling.lower_bound) r.Rolling.epochs in
        Alcotest.(check (list (option string))) (name ^ ": epoch bounds") (bounds c) (bounds w);
        Option.iter
          (fun want ->
            Alcotest.(check (triple int int int)) (name ^ ": (epochs, energy, misses)") want
              (List.length w.Rolling.epochs, w.Rolling.total_energy, w.Rolling.total_misses))
          golden;
        (if w.Rolling.total_misses = 0 then
           match w.Rolling.replay with
           | Some rep ->
               Alcotest.(check (list string)) (name ^ ": replay clean") [] rep.Sim.violations;
               Alcotest.(check string) (name ^ ": replayed energy")
                 (string_of_int w.Rolling.total_energy)
                 (Q.to_string rep.Sim.total_energy)
           | None -> Alcotest.fail (name ^ ": no misses but no replay"));
        Alcotest.(check bool) (name ^ ": warm hits recorded") true
          (List.exists (fun (e : Rolling.epoch) -> e.Rolling.warm_hits > 0) w.Rolling.epochs);
        Alcotest.(check bool)
          (Printf.sprintf "%s: warm LP work %d <= cold %d" name w_cells c_cells)
          true (w_cells <= c_cells);
        (warm_total + w_cells, cold_total + c_cells))
      (0, 0) traces
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm LP work %d < cold %d" warm_total cold_total)
    true (warm_total < cold_total)

let test_rolling_json_and_pp () =
  let r = Rolling.run ~arrivals:tiny_arrivals tiny_trace in
  (match Sim.Rolling.to_json r with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "schema" true (List.assoc_opt "schema" fields = Some (Obs.Json.Int 1));
      Alcotest.(check bool) "kind" true
        (List.assoc_opt "kind" fields = Some (Obs.Json.String "rolling"));
      (match List.assoc_opt "epochs" fields with
      | Some (Obs.Json.List es) ->
          Alcotest.(check int) "one object per epoch" (List.length r.Rolling.epochs) (List.length es)
      | _ -> Alcotest.fail "epochs list expected");
      (* byte-stable: same trace, same config, same document *)
      let r2 = Rolling.run ~arrivals:tiny_arrivals tiny_trace in
      Alcotest.(check string) "deterministic json"
        (Obs.Json.to_string (Rolling.to_json r))
        (Obs.Json.to_string (Rolling.to_json r2))
  | _ -> Alcotest.fail "object expected");
  let text = Format.asprintf "%a" Rolling.pp r in
  Alcotest.(check bool) "pp has a totals line" true (count_substring "total: energy=" text = 1)

let test_rolling_epochs_svg () =
  let r = Rolling.run ~arrivals:tiny_arrivals tiny_trace in
  let svg = Render.epochs_svg r in
  Alcotest.(check bool) "starts with svg" true (String.sub svg 0 4 = "<svg");
  Alcotest.(check int) "closes" 1 (count_substring "</svg>" svg);
  (* one label per epoch lane plus the cumulative band *)
  List.iter
    (fun (e : Rolling.epoch) ->
      Alcotest.(check int)
        (Printf.sprintf "lane e%d" e.Rolling.index)
        1
        (count_substring (Printf.sprintf ">e%d</text>" e.Rolling.index) svg))
    r.Rolling.epochs;
  Alcotest.(check int) "cumulative band" 1 (count_substring ">all</text>" svg)

(* -- properties ---------------------------------------------------------------- *)

let seed_arb = QCheck.int_range 0 100_000

let prop_sim_matches_analytic =
  QCheck.Test.make ~name:"simulated energy = analytic busy time, no violations" ~count:40 seed_arb
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:10 ~horizon:20 ~max_length:5 ~seed () in
      List.for_all
        (fun g ->
          List.for_all
            (fun solve ->
              let packing = solve ~g jobs in
              let report = Sim.run_packing ~g packing in
              report.Sim.violations = []
              && Q.equal report.Sim.total_energy (Busy.Bundle.total_busy packing)
              && report.Sim.peak_parallelism <= g
              && Q.compare report.Sim.utilization Q.one <= 0)
            [ (fun ~g jobs -> Busy.First_fit.solve ~g jobs); (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs); (fun ~g jobs -> Busy.Two_approx.solve ~g jobs) ])
        [ 1; 2; 3 ])

let prop_sim_active =
  QCheck.Test.make ~name:"active-time solutions replay cleanly" ~count:30 seed_arb (fun seed ->
      let params : Gen.slotted_params = { n = 6; horizon = 10; max_length = 3; slack = 3; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      match Active.Minimal.solve inst Active.Minimal.Right_to_left with
      | None -> true
      | Some sol ->
          let report = Sim.run_active inst sol in
          report.Sim.violations = []
          && Q.equal report.Sim.total_energy (Q.of_int (Active.Solution.cost sol))
          && Q.compare report.Sim.utilization Q.zero >= 0
          && Q.compare report.Sim.utilization Q.one <= 0)

let prop_slotted_svg_shape =
  QCheck.Test.make ~name:"slotted SVG is well-formed with one rect per unit" ~count:30 seed_arb
    (fun seed ->
      let params : Gen.slotted_params = { n = 6; horizon = 10; max_length = 3; slack = 3; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      match Active.Minimal.solve inst Active.Minimal.Right_to_left with
      | None -> true
      | Some sol ->
          let svg = Render.slotted_svg inst sol in
          let units =
            List.fold_left (fun acc (_, slots) -> acc + List.length slots) 0
              sol.Active.Solution.schedule
          in
          String.length svg > 4
          && String.sub svg 0 4 = "<svg"
          && count_substring "</svg>" svg = 1
          && count_substring "<rect" svg = List.length sol.Active.Solution.open_slots + units)

let prop_render_total =
  QCheck.Test.make ~name:"renderer never raises and is line-structured" ~count:30 seed_arb (fun seed ->
      let jobs = Gen.interval_jobs ~n:8 ~horizon:16 ~max_length:4 ~seed () in
      let packing = Busy.First_fit.solve ~g:2 jobs in
      let s = Render.packing ~width:40 packing in
      String.length s > 0
      && List.length (String.split_on_char '\n' s) = List.length packing + 1)

(* report invariants: utilization is zero exactly when no energy was
   spent, and the report totals are the fold of its per-machine traces *)
let report_invariants (r : Sim.report) =
  Q.is_zero r.Sim.utilization = Q.is_zero r.Sim.total_energy
  && r.Sim.total_switch_ons
     = List.fold_left (fun acc (t : Sim.machine_trace) -> acc + t.Sim.switch_ons) 0 r.Sim.traces
  && Q.equal r.Sim.total_energy
       (List.fold_left (fun acc (t : Sim.machine_trace) -> Q.add acc t.Sim.energy) Q.zero r.Sim.traces)

let prop_report_invariants =
  QCheck.Test.make ~name:"report invariants (utilization, switch-on and energy folds)" ~count:40
    seed_arb (fun seed ->
      let jobs = Gen.interval_jobs ~n:8 ~horizon:16 ~max_length:4 ~seed () in
      List.for_all
        (fun g -> report_invariants (Sim.run_packing ~g (Busy.First_fit.solve ~g jobs)))
        [ 1; 2; 3 ]
      && report_invariants (Sim.run_packing ~g:2 [])
      &&
      let params : Gen.slotted_params = { n = 6; horizon = 10; max_length = 3; slack = 3; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      match Active.Minimal.solve inst Active.Minimal.Right_to_left with
      | None -> true
      | Some sol -> report_invariants (Sim.run_active inst sol))

(* satellite oracle: for EVERY registered active-slotted solver that
   returns a schedule witness, replaying the witness spends exactly the
   analytic objective in energy *)
let prop_registry_replay_energy =
  QCheck.Test.make ~name:"replayed energy = analytic cost for every registry solver" ~count:25
    seed_arb (fun seed ->
      let params : Gen.slotted_params = { n = 6; horizon = 12; max_length = 3; slack = 3; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      let ci = Core.Instance.Slotted inst in
      Core.Registry.all
      |> List.filter (fun (s : Core.Solver.t) ->
             s.Core.Solver.kind = Core.Instance.Active_slotted && s.Core.Solver.guard ci = None)
      |> List.for_all (fun (s : Core.Solver.t) ->
             match s.Core.Solver.solve ~budget:(Budget.limited 300_000) ci with
             | {
                 Core.Result.status = Core.Result.Solved;
                 objective = Some (Core.Result.Slots cost);
                 witness = Some (Core.Result.Opened { open_slots; schedule });
                 _;
               } ->
                 let report = Sim.run_active inst { Active.Solution.open_slots; schedule } in
                 report.Sim.violations = []
                 && Q.equal report.Sim.total_energy (Q.of_int cost)
                 && report_invariants report
             | _ -> true (* bound-only, infeasible or exhausted: nothing to replay *)))

(* rolling runs that finish without misses commit a valid schedule whose
   replay spends exactly the committed energy, warm or cold — and the
   cold baseline answers identically *)
let prop_rolling_replay =
  QCheck.Test.make ~name:"rolling-horizon commits replay to the committed energy" ~count:15
    seed_arb (fun seed ->
      let params : Gen.slotted_params = { n = 8; horizon = 16; max_length = 3; slack = 4; g = 2 } in
      let inst, arrivals = Gen.timed_slotted ~params ~seed () in
      let r = Rolling.run ~arrivals inst in
      let cold =
        Rolling.run ~config:{ Rolling.default_config with Rolling.warm = false } ~arrivals inst
      in
      r.Rolling.total_energy = cold.Rolling.total_energy
      && r.Rolling.total_misses = cold.Rolling.total_misses
      && r.Rolling.schedule = cold.Rolling.schedule
      && r.Rolling.total_work
         = List.fold_left (fun acc e -> acc + e.Rolling.work) 0 r.Rolling.epochs
      && List.for_all
           (fun e ->
             match e.Rolling.lower_bound with
             | Some b ->
                 r.Rolling.total_misses > 0
                 || Q.compare b (Q.of_int r.Rolling.total_energy) <= 0
             | None -> true)
           r.Rolling.epochs
      &&
      match r.Rolling.replay with
      | Some rep ->
          r.Rolling.total_misses = 0
          && rep.Sim.violations = []
          && Q.equal rep.Sim.total_energy (Q.of_int r.Rolling.total_energy)
          && S.check_schedule inst r.Rolling.schedule = None
          && report_invariants rep
      | None -> r.Rolling.total_misses > 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sim_matches_analytic; prop_sim_active; prop_slotted_svg_shape; prop_render_total;
      prop_report_invariants; prop_registry_replay_energy; prop_rolling_replay ]

let () =
  Alcotest.run "sim"
    [ ( "simulator",
        [ Alcotest.test_case "packing energy" `Quick test_packing_energy;
          Alcotest.test_case "violation detected" `Quick test_packing_violation_detected;
          Alcotest.test_case "flexible rejected" `Quick test_packing_flexible_rejected;
          Alcotest.test_case "switch counting" `Quick test_switch_counting;
          Alcotest.test_case "active energy" `Quick test_active_energy;
          Alcotest.test_case "active violation" `Quick test_active_violation;
          Alcotest.test_case "preemptive energy" `Quick test_preemptive_energy ] );
      ( "rolling",
        [ Alcotest.test_case "basic run" `Quick test_rolling_basic;
          Alcotest.test_case "sla miss" `Quick test_rolling_miss;
          Alcotest.test_case "deadline degradation" `Quick test_rolling_deadline;
          Alcotest.test_case "of_busy" `Quick test_rolling_of_busy;
          Alcotest.test_case "counters and cold baseline" `Quick test_rolling_counters;
          Alcotest.test_case "registry dispatch" `Quick test_rolling_registry_dispatch;
          Alcotest.test_case "warm = cold on vm_day and timed traces" `Quick
            test_rolling_warm_equals_cold;
          Alcotest.test_case "json and pp" `Quick test_rolling_json_and_pp;
          Alcotest.test_case "epochs svg" `Quick test_rolling_epochs_svg ] );
      ( "renderer",
        [ Alcotest.test_case "slotted" `Quick test_render_slotted;
          Alcotest.test_case "packing" `Quick test_render_packing;
          Alcotest.test_case "overlap star" `Quick test_render_overlap_star;
          Alcotest.test_case "svg packing" `Quick test_render_svg;
          Alcotest.test_case "svg slotted" `Quick test_render_slotted_svg;
          Alcotest.test_case "preemptive" `Quick test_render_preemptive ] );
      ("properties", props) ]
