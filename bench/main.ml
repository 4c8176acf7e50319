(* Benchmark and experiment harness.

   One experiment per theorem/figure of the paper (see DESIGN.md's
   per-experiment index and EXPERIMENTS.md for recorded results):

     e1  - Theorem 1 / Fig. 3   minimal feasible vs OPT (active time)
     e2  - Theorem 2            LP rounding on random instances
     e3  - Section 3.5          LP integrality gap
     e4  - Thm 1 vs Thm 2       minimal feasible vs LP rounding head-to-head
     e5  - Theorem 5 / Fig. 6-7 GreedyTracking tightness (busy time)
     e6  - Theorem 3 / Fig. 8   interval-job 2-approximation
     e7  - Lemma 7 / Fig. 9     demand-profile doubling of the conversion
     e8  - Theorem 10 / Fig. 10 flexible-job pipelines (factor 4 vs 3)
     e9  - Theorems 6-7         preemptive busy time (+ LP exactness oracle)
     e10 - survey               all busy-time algorithms on random inputs
     e11 - footnote 1 / S1.3    special cases (proper/clique/laminar)
     e12 - S1.3 online          online algorithms (Shalom, Faigle)
     e13 - S1.3 Mertzios        budgeted maximization
     e14 - S1.3 Koehler-Khuller finite machine pools
     e15 - S1 Khandekar         job widths/demands
     e16 - methodology          exact solvers head to head (flow vs LP B&B)
     e17 - methodology          worst-case hunting for the rounding ratio
     e18 - methodology          fuel budgets and the degradation cascade
     abl - methodology          ablations of the documented design choices
     par - methodology          multicore sweep correctness/speedup
     timing                     Bechamel wall-clock micro-benchmarks

   `dune exec bench/main.exe` runs everything; pass experiment names to
   select, e.g. `dune exec bench/main.exe -- e5 timing`. *)

module Q = Rational
module S = Workload.Slotted
module B = Workload.Bjob
module Gen = Workload.Generate
module Gad = Workload.Gadgets

let pr fmt = Printf.printf fmt
let f = Q.to_float

let header title =
  pr "\n================================================================\n";
  pr "%s\n" title;
  pr "================================================================\n"

let table_row cells = pr "%s\n" (String.concat " | " cells)

let fixed w s =
  let len = String.length s in
  if len >= w then s else s ^ String.make (w - len) ' '

let col = fixed 12

(* Survey tables are registry queries, not hand-kept lists: every
   registered unrestricted busy-interval approximation, worst declared
   ratio first (FF, GT, 2A, KR). A newly registered solver joins the
   survey automatically. *)
let survey_algs () =
  Core.Registry.approx Core.Instance.Busy_interval
  |> List.filter (fun (s : Core.Solver.t) -> s.Core.Solver.restriction = None)

let online_algs () =
  Core.Registry.of_kind Core.Instance.Busy_interval
  |> List.filter (fun (s : Core.Solver.t) -> s.Core.Solver.online)
  |> List.sort (fun (a : Core.Solver.t) (b : Core.Solver.t) ->
         compare a.Core.Solver.rank b.Core.Solver.rank)

let pipeline_algs () = Core.Registry.approx Core.Instance.Busy_flexible

let registry_packing (s : Core.Solver.t) inst =
  match (s.Core.Solver.solve inst).Core.Result.witness with
  | Some (Core.Result.Packing p) -> p
  | _ -> failwith (s.Core.Solver.name ^ ": no packing")

let interval_packing s ~g jobs = registry_packing s (Core.Instance.Interval { g; jobs })
let flexible_packing s ~g jobs = registry_packing s (Core.Instance.Flexible { g; jobs })

(* short column label: hyphen initials, e.g. greedy-tracking -> GT *)
let abbrev (s : Core.Solver.t) =
  String.split_on_char '-' s.Core.Solver.name
  |> List.map (fun w -> String.make 1 (Char.uppercase_ascii w.[0]))
  |> String.concat ""

(* One recorder per experiment run; the driver swaps in a fresh one and
   serializes it to BENCH_<exp>.json afterwards (same Json/Obs schema as
   `atbt --format json`, so CI can archive both kinds of document). *)
let bench_obs = ref Obs.null

let write_bench_json name obs =
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.Int 1);
        ("tool", Obs.Json.String "bench");
        ("experiment", Obs.Json.String name);
        ("counters", Obs.counters_to_json obs);
        ("spans", Obs.spans_to_json obs) ]
  in
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ---------------------------------------------------------------- e1 -- *)

let e1 () =
  header "E1 (Theorem 1, Fig. 3): minimal feasible solutions vs OPT";
  pr "Paper: any minimal feasible solution <= 3 OPT; the Fig. 3 instance\n";
  pr "admits a minimal solution of cost 3g-2 against OPT = g (ratio -> 3).\n\n";
  table_row (List.map col [ "g"; "OPT"; "bad minimal"; "ratio"; "min L2R"; "min R2L" ]);
  List.iter
    (fun g ->
      let inst = Gad.minimal_feasible_tight g in
      let opt =
        if g <= 5 then
          match Active.Exact.optimum inst with Some o -> o | None -> assert false
        else g (* analytic optimum, verified exact for g <= 5 *)
      in
      let bad =
        match
          Active.Minimal.minimalize inst ~start:(Gad.minimal_feasible_tight_bad_slots g)
            Active.Minimal.Left_to_right
        with
        | Some sol -> Active.Solution.cost sol
        | None -> assert false
      in
      let from_scratch order =
        match Active.Minimal.solve inst order with Some sol -> Active.Solution.cost sol | None -> assert false
      in
      table_row
        (List.map col
           [ string_of_int g; string_of_int opt; string_of_int bad;
             Printf.sprintf "%.3f" (float_of_int bad /. float_of_int opt);
             string_of_int (from_scratch Active.Minimal.Left_to_right);
             string_of_int (from_scratch Active.Minimal.Right_to_left) ]))
    [ 3; 4; 5; 6; 8; 10; 14 ]

(* ---------------------------------------------------------------- e2 -- *)

let e2 () =
  header "E2 (Theorem 2): LP rounding on random active-time instances";
  pr "Paper: rounded cost <= 2 LP <= 2 OPT; LP <= OPT. We report the\n";
  pr "worst and mean rounded/LP and rounded/OPT over random instances\n";
  pr "(OPT by branch-and-bound where tractable).\n\n";
  table_row (List.map col [ "n"; "T"; "g"; "max r/LP"; "mean r/LP"; "max r/OPT"; "mean r/OPT" ]);
  List.iter
    (fun (n, horizon, g, with_exact) ->
      let params : Gen.slotted_params = { n; horizon; max_length = 4; slack = 5; g } in
      (* seeds in parallel across domains: every solver allocates its own
         state, so the sweep is embarrassingly parallel *)
      let per_seed seed =
        match Active.Rounding.solve (Gen.slotted ~params ~seed ()) with
        | None -> None
        | Some (sol, stats) ->
            let r = float_of_int (Active.Solution.cost sol) in
            let opt_ratio =
              if with_exact then
                match Active.Exact.optimum (Gen.slotted ~params ~seed ()) with
                | Some opt -> Some (r /. float_of_int opt)
                | None -> None
              else None
            in
            Some (r /. f stats.Active.Rounding.lp_cost, opt_ratio)
      in
      let outcomes = List.filter_map (fun x -> x) (Parallel.Pool.init 10 per_seed) in
      let rlp = ref (List.map fst outcomes) in
      let ropt = ref (List.filter_map snd outcomes) in
      let agg l =
        (List.fold_left max 0.0 l, List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)))
      in
      let max_lp, mean_lp = agg !rlp in
      let opt_cells =
        if with_exact then begin
          let max_o, mean_o = agg !ropt in
          [ Printf.sprintf "%.3f" max_o; Printf.sprintf "%.3f" mean_o ]
        end
        else [ "-"; "-" ]
      in
      table_row
        (List.map col
           ([ string_of_int n; string_of_int horizon; string_of_int g; Printf.sprintf "%.3f" max_lp;
              Printf.sprintf "%.3f" mean_lp ]
           @ opt_cells)))
    [ (6, 10, 2, true); (8, 14, 2, true); (10, 16, 3, true); (16, 24, 3, false); (24, 36, 4, false) ]

(* ---------------------------------------------------------------- e3 -- *)

let e3 () =
  header "E3 (Section 3.5): LP integrality gap";
  pr "Paper: the gadget with g pairs of adjacent slots and g+1 jobs per\n";
  pr "pair has LP = g+1 and IP = 2g; the gap 2g/(g+1) -> 2.\n\n";
  table_row (List.map col [ "g"; "LP"; "IP"; "gap" ]);
  List.iter
    (fun g ->
      let inst = Gad.integrality_gap g in
      let lp =
        match Active.Lp_model.solve inst with Some l -> l.Active.Lp_model.cost | None -> assert false
      in
      let ip =
        if g <= 4 then match Active.Exact.optimum inst with Some o -> o | None -> assert false
        else 2 * g (* analytic: each pair needs both slots; exact for g <= 4 *)
      in
      table_row
        (List.map col
           [ string_of_int g; Q.to_string lp; string_of_int ip;
             Printf.sprintf "%.3f" (float_of_int ip /. f lp) ]))
    [ 2; 3; 4; 6; 8; 12 ]

(* ---------------------------------------------------------------- e4 -- *)

let e4 () =
  header "E4: minimal feasible vs LP rounding, head to head";
  pr "LP rounding (2-approx) dominates worst-case minimal solutions\n";
  pr "(3-approx) on the adversarial instances and matches them on random\n";
  pr "ones.\n\n";
  table_row (List.map col [ "instance"; "OPT/LB"; "bad minimal"; "rounding" ]);
  List.iter
    (fun g ->
      let inst = Gad.minimal_feasible_tight g in
      let bad =
        match
          Active.Minimal.minimalize inst ~start:(Gad.minimal_feasible_tight_bad_slots g)
            Active.Minimal.Left_to_right
        with
        | Some sol -> Active.Solution.cost sol
        | None -> assert false
      in
      let rounding =
        match Active.Rounding.solve inst with
        | Some (sol, _) -> Active.Solution.cost sol
        | None -> assert false
      in
      table_row
        (List.map col
           [ Printf.sprintf "fig3 g=%d" g; string_of_int g; string_of_int bad; string_of_int rounding ]))
    [ 3; 4; 5; 6 ];
  List.iter
    (fun seed ->
      let params : Gen.slotted_params = { n = 10; horizon = 16; max_length = 4; slack = 5; g = 3 } in
      let inst = Gen.slotted ~params ~seed () in
      match
        (Active.Exact.optimum inst, Active.Minimal.solve inst Active.Minimal.Left_to_right, Active.Rounding.solve inst)
      with
      | Some opt, Some m, Some (r, _) ->
          table_row
            (List.map col
               [ Printf.sprintf "random %d" seed; string_of_int opt; string_of_int (Active.Solution.cost m);
                 string_of_int (Active.Solution.cost r) ])
      | _ -> ())
    [ 1; 2; 3; 4 ]

(* ---------------------------------------------------------------- e5 -- *)

let e5 () =
  header "E5 (Theorem 5, Fig. 6/7): GreedyTracking tightness";
  pr "Paper: GreedyTracking <= 3 OPT, and the gadget drives it to\n";
  pr "(6 - o(eps)) g vs OPT ~ 2g + 2: ratio -> 3 as g grows, eps -> 0.\n";
  pr "The 2-approximation stays below 2 on the same instances.\n\n";
  table_row (List.map col [ "g"; "eps"; "OPT<="; "GT"; "GT ratio"; "2A"; "2A ratio"; "FF" ]);
  List.iter
    (fun (g, eps_n, eps_d) ->
      let eps = Q.of_ints eps_n eps_d in
      let gt = Gad.greedy_tracking_tight ~g ~eps in
      let jobs = gt.Gad.gt_adversarial in
      let cost alg = Busy.Bundle.total_busy (alg ~g jobs) in
      let opt = f gt.Gad.gt_opt_cost in
      let gtc = f (cost (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs)) in
      let tac = f (cost (fun ~g jobs -> Busy.Two_approx.solve ~g jobs)) in
      table_row
        (List.map col
           [ string_of_int g; Printf.sprintf "%d/%d" eps_n eps_d; Printf.sprintf "%.2f" opt;
             Printf.sprintf "%.2f" gtc; Printf.sprintf "%.3f" (gtc /. opt); Printf.sprintf "%.2f" tac;
             Printf.sprintf "%.3f" (tac /. opt); Printf.sprintf "%.2f" (f (cost (fun ~g jobs -> Busy.First_fit.solve ~g jobs))) ]))
    [ (2, 1, 4); (3, 1, 4); (4, 1, 10); (6, 1, 10); (8, 1, 20); (10, 1, 20) ];
  (* decompose the loss at g = 2, where the pinned instance (12 jobs) is
     still within exhaustive reach: total = packing loss x conversion loss *)
  let gt = Gad.greedy_tracking_tight ~g:2 ~eps:(Q.of_ints 1 4) in
  let opt_adv = f (Busy.Exact.optimum ~g:2 gt.Gad.gt_adversarial) in
  let opt_flex = f gt.Gad.gt_opt_cost in
  let gtc = f (Busy.Bundle.total_busy (Busy.Greedy_tracking.solve ~g:2 gt.Gad.gt_adversarial)) in
  pr "\nloss decomposition at g=2 (exact): GT/OPT(pinned) = %.3f,\n" (gtc /. opt_adv);
  pr "OPT(pinned)/OPT(flexible) = %.3f; product = total ratio %.3f\n" (opt_adv /. opt_flex)
    (gtc /. opt_flex)

(* ---------------------------------------------------------------- e6 -- *)

let e6 () =
  header "E6 (Theorem 3/8, Fig. 8): interval-job 2-approximation";
  pr "Paper: the level/track-pairing algorithms are 2-approximate and\n";
  pr "tight at 2. Our flow-based variant (2A) is optimal on the gadget;\n";
  pr "the reconstructed Kumar-Rudra level algorithm (KR) realizes the\n";
  pr "factor-2 run organically, alongside the paper's certificate\n";
  pr "packing of cost 2 + eps + eps'.\n\n";
  table_row (List.map col [ "eps"; "OPT"; "2A"; "KR"; "KR ratio"; "certificate"; "cert ratio" ]);
  List.iter
    (fun (en, ed) ->
      let eps = Q.of_ints en ed and eps' = Q.of_ints en (2 * ed) in
      let ta = Gad.two_approx_tight ~eps ~eps' in
      let jobs = ta.Gad.ta_jobs in
      let cost alg = Busy.Bundle.total_busy (alg ~g:2 jobs) in
      let by_id i = List.find (fun (j : B.t) -> j.B.id = i) jobs in
      let certificate = [ [ by_id 0; by_id 3 ]; [ by_id 1; by_id 2; by_id 4 ] ] in
      assert (Busy.Bundle.check ~g:2 jobs certificate = None);
      let cert = f (Busy.Bundle.total_busy certificate) in
      let opt = f (Busy.Exact.optimum ~g:2 jobs) in
      let kr = f (cost Busy.Kumar_rudra.solve) in
      table_row
        (List.map col
           [ Printf.sprintf "%d/%d" en ed; Printf.sprintf "%.4f" opt;
             Printf.sprintf "%.4f" (f (cost (fun ~g jobs -> Busy.Two_approx.solve ~g jobs))); Printf.sprintf "%.4f" kr;
             Printf.sprintf "%.3f" (kr /. opt); Printf.sprintf "%.4f" cert;
             Printf.sprintf "%.3f" (cert /. opt) ]))
    [ (1, 4); (1, 10); (1, 100); (1, 1000) ]

(* ---------------------------------------------------------------- e7 -- *)

let e7 () =
  header "E7 (Lemma 7, Fig. 9): demand-profile cost of the conversion";
  pr "Paper: the span-minimizing placement can double the demand profile\n";
  pr "relative to the optimal solution's structure; ratio -> (2g-1)/g -> 2.\n\n";
  table_row (List.map col [ "g"; "adv profile"; "opt profile"; "ratio"; "(2g-1)/g"; "our greedy" ]);
  List.iter
    (fun g ->
      let dp = Gad.dp_profile_tight ~g ~eps:(Q.of_ints 1 1000) in
      let profile jobs = Intervals.Demand.profile_cost ~g (List.map B.interval_of jobs) in
      let adv = f (profile dp.Gad.dp_adversarial) and opt = f (profile dp.Gad.dp_optimal) in
      (* what OUR span-minimizing converter actually does on the gadget *)
      let ours = f (profile (Busy.Placement.greedy dp.Gad.dp_instance)) in
      table_row
        (List.map col
           [ string_of_int g; Printf.sprintf "%.3f" adv; Printf.sprintf "%.3f" opt;
             Printf.sprintf "%.4f" (adv /. opt);
             Printf.sprintf "%.4f" (float_of_int ((2 * g) - 1) /. float_of_int g);
             Printf.sprintf "%.3f" ours ]))
    [ 2; 3; 4; 6; 8; 12; 20 ]

(* ---------------------------------------------------------------- e8 -- *)

let e8 () =
  header "E8 (Theorem 10, Fig. 10-12): flexible-job pipelines";
  pr "Paper: converting flexible jobs by span-minimization and then\n";
  pr "running a track-pairing 2-approximation is only 4-approximate; the\n";
  pr "GreedyTracking pipeline guarantees 3. Costs on the adversarially\n";
  pr "converted gadget vs the analytic OPT ~ g + (g-1) eps:\n\n";
  table_row
    (List.map col [ "g"; "OPT~"; "2A pipe"; "ratio"; "GT pipe"; "ratio"; "cert"; "cert ratio" ]);
  List.iter
    (fun g ->
      let eps = Q.of_ints 1 (10 * g) in
      let fa = Gad.four_approx_tight ~g ~eps ~eps':(Q.div eps (Q.of_int 3)) in
      let jobs = fa.Gad.fa_adversarial in
      let cost alg = f (Busy.Bundle.total_busy (alg ~g jobs)) in
      let opt = f fa.Gad.fa_opt_cost_approx in
      let ta = cost (fun ~g jobs -> Busy.Two_approx.solve ~g jobs) and gt = cost (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs) in
      assert (Busy.Bundle.check ~g jobs fa.Gad.fa_bad_packing = None);
      let cert = f (Busy.Bundle.total_busy fa.Gad.fa_bad_packing) in
      table_row
        (List.map col
           [ string_of_int g; Printf.sprintf "%.2f" opt; Printf.sprintf "%.2f" ta;
             Printf.sprintf "%.3f" (ta /. opt); Printf.sprintf "%.2f" gt;
             Printf.sprintf "%.3f" (gt /. opt); Printf.sprintf "%.2f" cert;
             Printf.sprintf "%.3f" (cert /. opt) ]))
    [ 2; 3; 4; 6; 8; 12 ]

(* ---------------------------------------------------------------- e9 -- *)

let e9 () =
  header "E9 (Theorems 6/7): preemptive busy time";
  pr "Theorem 6's greedy is exact for g = infinity: its cost must equal\n";
  pr "the independent LP oracle over the event grid. Theorem 7 derives a\n";
  pr "bounded-g schedule of cost <= OPTinf + mass <= 2 OPT; ratios are\n";
  pr "against the max(mass, OPTinf) lower bound.\n\n";
  table_row (List.map col [ "seed"; "g"; "OPTinf_pre"; "LP oracle"; "bounded"; "LB"; "ratio" ]);
  List.iter
    (fun seed ->
      let jobs = Gen.flexible_jobs ~n:12 ~horizon:30 ~max_length:5 ~seed () in
      let sol = Busy.Preemptive.unbounded jobs in
      let oracle = Busy.Preemptive.lp_optimum jobs in
      assert (Q.equal oracle sol.Busy.Preemptive.cost);
      List.iter
        (fun g ->
          let cost, _, _ = Busy.Preemptive.bounded ~g jobs in
          let lb = Q.max (Busy.Bounds.mass ~g jobs) sol.Busy.Preemptive.cost in
          table_row
            (List.map col
               [ string_of_int seed; string_of_int g;
                 Printf.sprintf "%.2f" (f sol.Busy.Preemptive.cost); Printf.sprintf "%.2f" (f oracle);
                 Printf.sprintf "%.2f" (f cost); Printf.sprintf "%.2f" (f lb);
                 Printf.sprintf "%.3f" (f cost /. f lb) ]))
        [ 1; 2; 4 ])
    [ 1; 2; 3 ]

(* --------------------------------------------------------------- e10 -- *)

let e10 () =
  header "E10: random-workload survey of the busy-time algorithms";
  pr "Mean cost ratios vs the demand-profile lower bound (interval jobs)\n";
  pr "and vs the exact optimum (small instances). Lower is better; the\n";
  pr "guarantees are FF <= 4, GT <= 3, 2A <= 2.\n\n";
  let algs = survey_algs () in
  table_row (List.map col ("n" :: "g" :: List.map (fun s -> abbrev s ^ "/LB") algs));
  List.iter
    (fun (n, g) ->
      let per_seed seed =
        let jobs = Gen.interval_jobs ~n ~horizon:(3 * n) ~max_length:6 ~seed () in
        let lb = f (Busy.Bounds.best ~g jobs) in
        if lb <= 0.0 then None
        else
          Some
            (List.map (fun s -> f (Busy.Bundle.total_busy (interval_packing s ~g jobs)) /. lb) algs)
      in
      let rows = List.filter_map (fun x -> x) (Parallel.Pool.init 10 per_seed) in
      let acc = Array.make (List.length algs) 0.0 in
      List.iter (fun ratios -> List.iteri (fun i r -> acc.(i) <- acc.(i) +. r) ratios) rows;
      let c = float_of_int (List.length rows) in
      table_row
        (List.map col
           (string_of_int n :: string_of_int g
           :: List.map (fun v -> Printf.sprintf "%.3f" (v /. c)) (Array.to_list acc))))
    [ (12, 2); (12, 4); (30, 2); (30, 4); (30, 8); (60, 4) ];
  pr "\nSmall instances vs exact optimum (n = 7, g = 2, 10 seeds):\n\n";
  table_row (List.map col [ "algorithm"; "mean ratio"; "max ratio" ]);
  let ratios = Array.make (List.length algs) [] in
  for seed = 0 to 9 do
    let jobs = Gen.interval_jobs ~n:7 ~horizon:12 ~max_length:4 ~seed () in
    let opt = f (Busy.Exact.optimum ~g:2 jobs) in
    List.iteri
      (fun i s ->
        ratios.(i) <- (f (Busy.Bundle.total_busy (interval_packing s ~g:2 jobs)) /. opt) :: ratios.(i))
      algs
  done;
  List.iteri
    (fun i (s : Core.Solver.t) ->
      let l = ratios.(i) in
      let mean = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      let mx = List.fold_left max 0.0 l in
      table_row
        (List.map col [ s.Core.Solver.name; Printf.sprintf "%.3f" mean; Printf.sprintf "%.3f" mx ]))
    algs;
  pr "\nFlexible jobs through the greedy-placement pipeline (vs mass/span LB):\n\n";
  let pipes = pipeline_algs () in
  table_row (List.map col ("n" :: "g" :: List.map (fun (s : Core.Solver.t) -> s.Core.Solver.name) pipes));
  List.iter
    (fun (n, g) ->
      let acc = Array.make (List.length pipes) 0.0 in
      let count = ref 0 in
      for seed = 0 to 4 do
        let jobs = Gen.flexible_jobs ~n ~horizon:(3 * n) ~max_length:5 ~seed () in
        let pinned = Busy.Placement.greedy jobs in
        let lb =
          f (Q.max (Busy.Bounds.mass ~g jobs) (Intervals.span (List.map B.interval_of pinned)))
        in
        if lb > 0.0 then begin
          incr count;
          List.iteri
            (fun i s -> acc.(i) <- acc.(i) +. (f (Busy.Bundle.total_busy (flexible_packing s ~g jobs)) /. lb))
            pipes
        end
      done;
      let c = float_of_int !count in
      table_row
        (List.map col
           (string_of_int n :: string_of_int g
           :: List.map (fun v -> Printf.sprintf "%.3f" (v /. c)) (Array.to_list acc))))
    [ (15, 2); (15, 4); (25, 4) ]

(* --------------------------------------------------------------- e11 -- *)

let e11 () =
  header "E11 (footnote 1 / Section 1.3): special-case algorithms";
  pr "Proper instances: release-order first fit is 2-approximate.\n";
  pr "Cliques: g consecutive jobs per machine is 2-approximate.\n";
  pr "Proper cliques: the consecutive-runs DP is exact (Mertzios et al.).\n";
  pr "Mean ratios vs the exact optimum over 10 seeds (n = 8):\n\n";
  table_row (List.map col [ "structure"; "g"; "special/OPT"; "GT/OPT"; "2A/OPT" ]);
  let run name gen special =
    List.iter
      (fun g ->
        let acc = Array.make 3 0.0 in
        for seed = 0 to 9 do
          let jobs = gen seed in
          let opt = f (Busy.Exact.optimum ~g jobs) in
          List.iteri
            (fun i alg -> acc.(i) <- acc.(i) +. (f (Busy.Bundle.total_busy (alg ~g jobs)) /. opt))
            [ special; (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs); (fun ~g jobs -> Busy.Two_approx.solve ~g jobs) ]
        done;
        table_row
          (List.map col
             [ name; string_of_int g; Printf.sprintf "%.3f" (acc.(0) /. 10.0);
               Printf.sprintf "%.3f" (acc.(1) /. 10.0); Printf.sprintf "%.3f" (acc.(2) /. 10.0) ]))
      [ 2; 3 ]
  in
  run "proper" (fun seed -> Gen.proper_interval_jobs ~n:8 ~seed ()) Busy.Special.proper_greedy;
  run "clique" (fun seed -> Gen.clique_interval_jobs ~n:8 ~seed ()) Busy.Special.clique_greedy;
  run "proper+clique" (fun seed -> Gen.proper_clique_interval_jobs ~n:8 ~seed ())
    Busy.Special.proper_clique_exact;
  run "laminar"
    (fun seed -> List.filteri (fun i _ -> i < 8) (Gen.laminar_interval_jobs ~depth:3 ~span:20 ~seed ()))
    Busy.Laminar.exact

(* --------------------------------------------------------------- e12 -- *)

let e12 () =
  header "E12 (Section 1.3, online): release-order online algorithms";
  pr "Online algorithms place each job on arrival, irrevocably; the\n";
  pr "deterministic lower bound is g. Empirical competitive ratios vs the\n";
  pr "offline 2-approximation (random streams, 10 seeds):\n\n";
  let online = online_algs () in
  table_row (List.map col ("n" :: "g" :: List.map (fun s -> abbrev s ^ "/2A") online));
  List.iter
    (fun (n, g) ->
      let acc = Array.make (List.length online) 0.0 in
      for seed = 0 to 9 do
        let jobs = Gen.interval_jobs ~n ~horizon:(3 * n) ~max_length:8 ~seed () in
        let off = f (Busy.Bundle.total_busy (Busy.Two_approx.solve ~g jobs)) in
        List.iteri
          (fun i s -> acc.(i) <- acc.(i) +. (f (Busy.Bundle.total_busy (interval_packing s ~g jobs)) /. off))
          online
      done;
      table_row
        (List.map col
           (string_of_int n :: string_of_int g
           :: List.map (fun v -> Printf.sprintf "%.3f" (v /. 10.0)) (Array.to_list acc))))
    [ (20, 2); (20, 4); (50, 4); (50, 8) ];
  pr "\nSingle-machine online maximization (Faigle et al.): fraction of\n";
  pr "the offline optimum completed (10 seeds):\n\n";
  table_row (List.map col [ "n"; "greedy"; "stubborn" ]);
  List.iter
    (fun n ->
      let a = ref 0.0 and b = ref 0.0 in
      for seed = 0 to 9 do
        let jobs = Gen.interval_jobs ~n ~horizon:(2 * n) ~max_length:6 ~seed () in
        let off, _ = Busy.Single_online.offline_optimum jobs in
        let g1, _ = Busy.Single_online.greedy_switch jobs in
        let s1, _ = Busy.Single_online.stubborn jobs in
        a := !a +. (f g1 /. f off);
        b := !b +. (f s1 /. f off)
      done;
      table_row
        (List.map col [ string_of_int n; Printf.sprintf "%.3f" (!a /. 10.0); Printf.sprintf "%.3f" (!b /. 10.0) ]))
    [ 10; 25; 50 ]

(* --------------------------------------------------------------- e13 -- *)

let e13 () =
  header "E13 (Section 1.3): resource-allocation maximization";
  pr "Maximize accepted jobs under a busy-time budget (Mertzios et al.).\n";
  pr "Greedy acceptance vs the exact subset search (n = 6, g = 2):\n\n";
  table_row (List.map col [ "seed"; "budget"; "exact jobs"; "greedy jobs"; "exact busy"; "greedy busy" ]);
  List.iter
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:6 ~horizon:12 ~max_length:4 ~seed () in
      List.iter
        (fun budget ->
          let ex, exb, _ = Busy.Maximize.exact ~g:2 ~budget:(Q.of_int budget) jobs in
          let gr, grb, _ = Busy.Maximize.greedy ~g:2 ~budget:(Q.of_int budget) jobs in
          table_row
            (List.map col
               [ string_of_int seed; string_of_int budget; string_of_int (List.length ex);
                 string_of_int (List.length gr); Printf.sprintf "%.1f" (f exb);
                 Printf.sprintf "%.1f" (f grb) ]))
        [ 4; 8 ])
    [ 1; 2; 3 ]

(* --------------------------------------------------------------- e14 -- *)

let e14 () =
  header "E14 (Section 1.3): active time on a finite machine pool";
  pr "Koehler-Khuller setting: m machines of capacity g; cost = total\n";
  pr "machine-slots on. Greedy minimalization vs exact vs the LP bound:\n\n";
  table_row (List.map col [ "seed"; "m"; "LP"; "exact"; "minimal" ]);
  List.iter
    (fun seed ->
      let params : Gen.slotted_params = { n = 7; horizon = 8; max_length = 3; slack = 2; g = 2 } in
      let inst = Gen.slotted ~params ~seed () in
      List.iter
        (fun machines ->
          match
            ( Active.Machines.lp_lower_bound inst ~machines,
              Active.Machines.optimum inst ~machines,
              Active.Machines.minimal inst ~machines )
          with
          | Some lp, Some (opt, _), Some minimal ->
              table_row
                (List.map col
                   [ string_of_int seed; string_of_int machines; Printf.sprintf "%.2f" (f lp);
                     string_of_int opt; string_of_int (Active.Machines.cost minimal) ])
          | _ ->
              table_row (List.map col [ string_of_int seed; string_of_int machines; "infeas"; "-"; "-" ]))
        [ 1; 2 ])
    [ 1; 2; 3 ]

(* --------------------------------------------------------------- e15 -- *)

let e15 () =
  header "E15 (Section 1): busy time with job widths (Khandekar et al.)";
  pr "Jobs carry demands w <= g; active demand per machine at most g.\n";
  pr "Width-aware FirstFit vs the narrow/wide split (their\n";
  pr "5-approximation's skeleton) vs exact, ratios vs the width-weighted\n";
  pr "profile bound (10 seeds):\n\n";
  table_row (List.map col [ "n"; "g"; "FF/LB"; "split/LB"; "exact/LB" ]);
  List.iter
    (fun (n, g, with_exact) ->
      let acc = Array.make 3 0.0 in
      for seed = 0 to 9 do
        let jobs =
          List.map (fun (j, w) -> Busy.Widths.wjob ~job:j ~width:w)
            (Gen.widthed_interval_jobs ~n ~horizon:(2 * n) ~max_length:5 ~max_width:(max 1 (g - 1)) ~seed ())
        in
        let lb = f (Busy.Widths.best_bound ~g jobs) in
        acc.(0) <- acc.(0) +. (f (Busy.Widths.total_busy (Busy.Widths.first_fit ~g jobs)) /. lb);
        acc.(1) <- acc.(1) +. (f (Busy.Widths.total_busy (Busy.Widths.narrow_wide_split ~g jobs)) /. lb);
        if with_exact then
          acc.(2) <- acc.(2) +. (f (Busy.Widths.total_busy (Busy.Widths.exact ~g jobs)) /. lb)
      done;
      table_row
        (List.map col
           [ string_of_int n; string_of_int g; Printf.sprintf "%.3f" (acc.(0) /. 10.0);
             Printf.sprintf "%.3f" (acc.(1) /. 10.0);
             (if with_exact then Printf.sprintf "%.3f" (acc.(2) /. 10.0) else "-") ]))
    [ (8, 3, true); (8, 4, true); (20, 4, false); (20, 8, false) ]

(* --------------------------------------------------------------- e16 -- *)

let e16 () =
  header "E16: exact solvers head to head (flow B&B vs LP-based B&B)";
  pr "Both are exact (asserted equal); the combinatorial search prunes by\n";
  pr "flow feasibility, the OR-style search by LP bounds. Node counts and\n";
  pr "wall time per instance:\n\n";
  table_row
    (List.map col [ "instance"; "OPT"; "flow nodes"; "flow (s)"; "ilp nodes"; "lp solves"; "ilp (s)" ]);
  let run name inst =
    let obs = Obs.create () in
    let t0 = Unix.gettimeofday () in
    let flow_opt =
      match Active.Exact.solve ~obs inst with
      | Budget.Complete r -> Option.map Active.Solution.cost r
      | Budget.Exhausted _ -> assert false (* unlimited fuel never exhausts *)
    in
    let t_flow = Unix.gettimeofday () -. t0 in
    let flow_nodes = Option.value (List.assoc_opt "active.exact.nodes" (Obs.counters obs)) ~default:0 in
    let t0 = Unix.gettimeofday () in
    let ilp = Active.Ilp.exact inst in
    let t_ilp = Unix.gettimeofday () -. t0 in
    match (flow_opt, ilp) with
    | Some o1, Some (sol, st) ->
        assert (o1 = Active.Solution.cost sol);
        table_row
          (List.map col
             [ name; string_of_int o1; string_of_int flow_nodes;
               Printf.sprintf "%.3f" t_flow; string_of_int st.Active.Ilp.nodes;
               string_of_int st.Active.Ilp.lp_solves; Printf.sprintf "%.3f" t_ilp ])
    | None, None -> table_row (List.map col [ name; "infeas"; "-"; "-"; "-"; "-"; "-" ])
    | _ -> failwith "exact solvers disagree on feasibility"
  in
  List.iter (fun g -> run (Printf.sprintf "fig3 g=%d" g) (Gad.minimal_feasible_tight g)) [ 3; 4; 5 ];
  List.iter (fun g -> run (Printf.sprintf "intgap g=%d" g) (Gad.integrality_gap g)) [ 2; 3 ];
  List.iter
    (fun seed ->
      let params : Gen.slotted_params = { n = 9; horizon = 14; max_length = 4; slack = 4; g = 3 } in
      run (Printf.sprintf "random %d" seed) (Gen.slotted ~params ~seed ()))
    [ 1; 2; 3 ]

(* --------------------------------------------------------------- e17 -- *)

let e17 () =
  header "E17: worst-case hunting for the LP rounding ratio";
  pr "Theorem 2 proves rounded <= 2 LP and Section 3.5 shows 2 is the\n";
  pr "integrality-gap limit. Hunting over many random instances for the\n";
  pr "worst empirical rounded/LP ratio (the gap gadget remains the\n";
  pr "champion):\n\n";
  table_row (List.map col [ "family"; "instances"; "worst r/LP"; "at seed" ]);
  let hunt name mk seeds =
    let per_seed seed =
      match Active.Rounding.solve (mk seed) with
      | None -> None
      | Some (sol, stats) ->
          Some (float_of_int (Active.Solution.cost sol) /. f stats.Active.Rounding.lp_cost, seed)
    in
    let outcomes = List.filter_map (fun x -> x) (Parallel.Pool.init seeds per_seed) in
    let worst, at = List.fold_left (fun (w, a) (r, s) -> if r > w then (r, s) else (w, a)) (1.0, -1) outcomes in
    table_row
      (List.map col [ name; string_of_int (List.length outcomes); Printf.sprintf "%.4f" worst; string_of_int at ])
  in
  hunt "tight slack"
    (fun seed -> Gen.slotted ~params:{ n = 8; horizon = 10; max_length = 3; slack = 1; g = 2 } ~seed ())
    300;
  hunt "loose slack"
    (fun seed -> Gen.slotted ~params:{ n = 8; horizon = 14; max_length = 3; slack = 6; g = 2 } ~seed ())
    300;
  hunt "unit jobs" (fun seed -> Gen.slotted_unit ~horizon:10 ~g:2 ~n:10 ~seed ()) 300;
  hunt "crowded g=4"
    (fun seed -> Gen.slotted ~params:{ n = 14; horizon = 10; max_length = 3; slack = 3; g = 4 } ~seed ())
    200;
  (* the analytic champion for reference *)
  let gap = Gad.integrality_gap 6 in
  (match Active.Rounding.solve gap with
  | Some (sol, stats) ->
      pr "\nintegrality gadget g=6 for reference: rounded/LP = %.4f\n"
        (float_of_int (Active.Solution.cost sol) /. f stats.Active.Rounding.lp_cost)
  | None -> ())

(* ---------------------------------------------------------------- e18 -- *)

let e18 () =
  header "E18: deterministic budgets and the degradation cascade";
  pr "The bb_hard gadget family (groups of g+1 unit jobs in wide disjoint\n";
  pr "windows) defeats the branch-and-bound pruning: every subset of the\n";
  pr "window's slots looks promising, so the tree grows ~16x per group.\n";
  pr "Under a fuel budget the cascade falls back to LP rounding, which\n";
  pr "solves these instances near-instantly.\n\n";
  table_row (List.map col [ "groups"; "budget"; "tier"; "ticks"; "cost"; "mass bound" ]);
  List.iter
    (fun groups ->
      List.iter
        (fun limit ->
          let inst = Gad.bb_hard ~g:2 ~groups ~width:6 in
          let sol, prov = Active.Cascade.solve ~obs:!bench_obs ~limit inst in
          let ticks =
            List.fold_left (fun acc (a : Budget.Cascade.attempt) -> acc + a.ticks) 0
              prov.Budget.Cascade.attempts
          in
          table_row
            (List.map col
               [ string_of_int groups;
                 string_of_int limit;
                 Option.value prov.Budget.Cascade.winner ~default:"-";
                 string_of_int ticks;
                 (match sol with Some s -> string_of_int (Active.Solution.cost s) | None -> "-");
                 string_of_int prov.Budget.Cascade.bound ]))
        [ 10_000; 100_000 ])
    [ 4; 5; 6 ];
  pr "\nbusy-time cascade (interval jobs, n=18, g=3):\n";
  table_row (List.map col [ "budget"; "tier"; "busy"; "lower bound" ]);
  List.iter
    (fun limit ->
      let jobs = Gen.interval_jobs ~n:18 ~horizon:20 ~max_length:5 ~seed:7 () in
      let packing, prov = Busy.Cascade.solve ~obs:!bench_obs ~limit ~g:3 jobs in
      table_row
        (List.map col
           [ string_of_int limit;
             Option.value prov.Budget.Cascade.winner ~default:"-";
             (match packing with Some p -> Q.to_string (Busy.Bundle.total_busy p) | None -> "-");
             Q.to_string prov.Budget.Cascade.bound ]))
    [ 1_000; 1_000_000 ]

(* ---------------------------------------------------------------- abl -- *)

let abl () =
  header "ABL: ablations of the design choices DESIGN.md calls out";
  pr "1. Minimal-feasible closing order (Theorem 1 holds for any order;\n";
  pr "   the order decides WHICH minimal solution is found). Mean cost\n";
  pr "   over 15 random instances (OPT column for scale):\n\n";
  table_row (List.map col [ "order"; "mean cost"; "mean/OPT" ]);
  let params : Gen.slotted_params = { n = 8; horizon = 12; max_length = 3; slack = 4; g = 2 } in
  let instances =
    List.filter_map
      (fun seed ->
        let inst = Gen.slotted ~params ~seed () in
        Option.map (fun o -> (inst, o)) (Active.Exact.optimum inst))
      (List.init 15 (fun i -> i))
  in
  List.iter
    (fun (name, order) ->
      let total = ref 0.0 and ratio = ref 0.0 in
      List.iter
        (fun (inst, opt) ->
          match Active.Minimal.solve inst order with
          | Some sol ->
              let c = float_of_int (Active.Solution.cost sol) in
              total := !total +. c;
              ratio := !ratio +. (c /. float_of_int opt)
          | None -> ())
        instances;
      let n = float_of_int (List.length instances) in
      table_row (List.map col [ name; Printf.sprintf "%.2f" (!total /. n); Printf.sprintf "%.3f" (!ratio /. n) ]))
    [ ("left-to-right", Active.Minimal.Left_to_right); ("right-to-left", Active.Minimal.Right_to_left);
      ("shuffled(1)", Active.Minimal.Shuffled 1); ("shuffled(2)", Active.Minimal.Shuffled 2) ];

  pr "\n2. Placement local search (greedy insertion + re-placement passes)\n";
  pr "   vs the exact span, mean ratio over 10 flexible instances:\n\n";
  table_row (List.map col [ "passes"; "span/exact" ]);
  let flex = List.init 10 (fun seed -> Gen.flexible_jobs ~n:6 ~horizon:14 ~max_length:3 ~seed ()) in
  let exact_spans = List.map (fun jobs -> f (Busy.Placement.optimum_span jobs)) flex in
  List.iter
    (fun passes ->
      let r = ref 0.0 in
      List.iter2
        (fun jobs ex ->
          r := !r +. (f (Busy.Placement.span_of (Busy.Placement.greedy ~passes jobs)) /. ex))
        flex exact_spans;
      table_row (List.map col [ string_of_int passes; Printf.sprintf "%.4f" (!r /. 10.0) ]))
    [ 0; 1; 3 ];

  pr "\n3. Simplex pricing rule on LP1 (10 random instances, n=12 T=18):\n\n";
  table_row (List.map col [ "rule"; "mean pivots"; "wall (s)" ]);
  let lp_params : Gen.slotted_params = { n = 12; horizon = 18; max_length = 4; slack = 5; g = 3 } in
  List.iter
    (fun (name, rule) ->
      let pivots = ref 0 in
      let t0 = Unix.gettimeofday () in
      for seed = 0 to 9 do
        let inst = Gen.slotted ~params:lp_params ~seed () in
        let obs = Obs.create () in
        (match Active.Ilp.solve_lp inst ~fixing:(fun _ -> None) ~rule ~obs with
        | Some _ | None -> ());
        pivots := !pivots + (try List.assoc "lp.pivots" (Obs.counters obs) with Not_found -> 0)
      done;
      let t = Unix.gettimeofday () -. t0 in
      table_row (List.map col [ name; Printf.sprintf "%.1f" (float_of_int !pivots /. 10.0); Printf.sprintf "%.2f" t ]))
    [ ("dantzig+fb", Lp.Dantzig_with_fallback); ("pure bland", Lp.Pure_bland) ];

  pr "\n4. Two-approx pair depth (the analysis requires depth g; depth 1\n";
  pr "   opens a fresh bundle pair per track pair), mean cost ratio vs\n";
  pr "   the profile bound over 10 instances (n=30, g=4):\n\n";
  table_row (List.map col [ "pair depth"; "cost/profile"; "machines" ]);
  List.iter
    (fun depth ->
      let r = ref 0.0 and machines = ref 0 in
      for seed = 0 to 9 do
        let jobs = Gen.interval_jobs ~n:30 ~horizon:90 ~max_length:6 ~seed () in
        let packing = Busy.Two_approx.solve_with_depth ~pair_depth:depth ~g:4 jobs in
        machines := !machines + List.length packing;
        r := !r +. (f (Busy.Bundle.total_busy packing) /. f (Busy.Bounds.demand_profile ~g:4 jobs))
      done;
      table_row
        (List.map col
           [ string_of_int depth; Printf.sprintf "%.3f" (!r /. 10.0);
             Printf.sprintf "%.1f" (float_of_int !machines /. 10.0) ]))
    [ 1; 2; 4 ]

(* ---------------------------------------------------------------- par -- *)

let par () =
  header "PAR: multicore speedup of the experiment sweeps";
  pr "The bench sweeps are embarrassingly parallel (one task per seed);\n";
  pr "Parallel.Pool work-shares them over OCaml 5 domains. Fixed sweep:\n";
  pr "GreedyTracking + TwoApprox over 24 seeds at n = 120.\n\n";
  let work seed =
    let jobs = Gen.interval_jobs ~n:120 ~horizon:300 ~max_length:8 ~seed () in
    let gt = Busy.Bundle.total_busy (Busy.Greedy_tracking.solve ~g:4 jobs) in
    let ta = Busy.Bundle.total_busy (Busy.Two_approx.solve ~g:4 jobs) in
    Q.to_string (Q.add gt ta)
  in
  let time domains =
    let t0 = Unix.gettimeofday () in
    let r = Parallel.Pool.init ~domains 24 work in
    (Unix.gettimeofday () -. t0, r)
  in
  let t1, r1 = time 1 in
  let d = max 2 (Parallel.Pool.default_domains ()) in
  let td, rd = time d in
  assert (r1 = rd);
  pr "cores available: %d (speedup is bounded by this; on a 1-core host\n" (Domain.recommended_domain_count ());
  pr "the two rows should roughly tie)\n\n";
  table_row (List.map col [ "domains"; "wall (s)"; "speedup" ]);
  table_row (List.map col [ "1"; Printf.sprintf "%.2f" t1; "1.00" ]);
  table_row (List.map col [ string_of_int d; Printf.sprintf "%.2f" td; Printf.sprintf "%.2f" (t1 /. td) ]);
  pr "\n(identical results from both runs, asserted)\n"

(* ------------------------------------------------------------ scaling -- *)

let scaling () =
  header "SCALING: busy-time algorithms vs instance size";
  pr "Wall time for one solve (exact rational arithmetic throughout).\n\n";
  let algs = survey_algs () in
  table_row (List.map col ("n" :: List.map (fun s -> abbrev s ^ " (ms)") algs));
  List.iter
    (fun n ->
      let jobs = Gen.interval_jobs ~n ~horizon:(3 * n) ~max_length:8 ~seed:5 () in
      let ms s =
        let t0 = Unix.gettimeofday () in
        ignore (interval_packing s ~g:4 jobs);
        (Unix.gettimeofday () -. t0) *. 1000.0
      in
      table_row
        (List.map col (string_of_int n :: List.map (fun s -> Printf.sprintf "%.1f" (ms s)) algs)))
    [ 50; 100; 200; 400 ]

(* ------------------------------------------------------------- timing -- *)

let timing () =
  header "T1: Bechamel wall-clock micro-benchmarks";
  let open Bechamel in
  let open Toolkit in
  let interval60 = Gen.interval_jobs ~n:60 ~horizon:150 ~max_length:8 ~seed:3 () in
  let interval200 = Gen.interval_jobs ~n:200 ~horizon:500 ~max_length:8 ~seed:3 () in
  let flexible30 = Gen.flexible_jobs ~n:30 ~horizon:80 ~max_length:5 ~seed:3 () in
  let slotted_params : Gen.slotted_params = { n = 20; horizon = 30; max_length = 4; slack = 5; g = 3 } in
  let slotted = Gen.slotted ~params:slotted_params ~seed:3 () in
  let slots = Workload.Slotted.relevant_slots slotted in
  let tests =
    Test.make_grouped ~name:"abt" ~fmt:"%s/%s"
      [ Test.make ~name:"feasibility-flow n=20 T=30"
          (Staged.stage (fun () -> Active.Feasibility.feasible slotted ~open_slots:slots));
        Test.make ~name:"minimal-feasible n=20 T=30"
          (Staged.stage (fun () -> Active.Minimal.solve slotted Active.Minimal.Right_to_left));
        Test.make ~name:"lp-rounding n=20 T=30" (Staged.stage (fun () -> Active.Rounding.solve slotted));
        Test.make ~name:"first-fit n=60" (Staged.stage (fun () -> Busy.First_fit.solve ~g:4 interval60));
        Test.make ~name:"greedy-tracking n=60"
          (Staged.stage (fun () -> Busy.Greedy_tracking.solve ~g:4 interval60));
        Test.make ~name:"two-approx n=60" (Staged.stage (fun () -> Busy.Two_approx.solve ~g:4 interval60));
        Test.make ~name:"first-fit n=200" (Staged.stage (fun () -> Busy.First_fit.solve ~g:8 interval200));
        Test.make ~name:"greedy-tracking n=200"
          (Staged.stage (fun () -> Busy.Greedy_tracking.solve ~g:8 interval200));
        Test.make ~name:"two-approx n=200" (Staged.stage (fun () -> Busy.Two_approx.solve ~g:8 interval200));
        Test.make ~name:"placement-greedy n=30" (Staged.stage (fun () -> Busy.Placement.greedy flexible30));
        Test.make ~name:"preemptive n=30" (Staged.stage (fun () -> Busy.Preemptive.unbounded flexible30)) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  pr "%s | time per run\n" (fixed 36 "benchmark");
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let est =
        match Analyze.OLS.estimates r with
        | Some (e :: _) ->
            if e > 1e9 then Printf.sprintf "%8.3f s " (e /. 1e9)
            else if e > 1e6 then Printf.sprintf "%8.3f ms" (e /. 1e6)
            else if e > 1e3 then Printf.sprintf "%8.3f us" (e /. 1e3)
            else Printf.sprintf "%8.0f ns" e
        | _ -> "n/a"
      in
      pr "%s | %s\n" (fixed 36 name) est)
    (List.sort compare rows)

(* ---------------------------------------------------------------- e19 -- *)

let e19 () =
  header "E19: golden solver counters on the bb_hard family";
  pr "Telemetry counts solver events (nodes, feasibility checks, flow\n";
  pr "rounds), never wall-clock, so the counter set of a seeded run is\n";
  pr "byte-reproducible. test/test_obs.ml pins the g=2 groups=3 width=6\n";
  pr "row as a golden snapshot; a diff here means the search changed.\n\n";
  table_row (List.map col [ "groups"; "outcome"; "counter"; "value" ]);
  List.iter
    (fun groups ->
      let inst = Gad.bb_hard ~g:2 ~groups ~width:6 in
      let obs = Obs.create () in
      let outcome =
        match Active.Exact.solve ~budget:(Budget.limited 1_000_000) ~obs inst with
        | Budget.Complete (Some sol) -> Printf.sprintf "cost %d" (Active.Solution.cost sol)
        | Budget.Complete None -> "infeasible"
        | Budget.Exhausted { spent; _ } -> Printf.sprintf "exhausted@%d" spent
      in
      List.iter
        (fun (name, v) ->
          table_row (List.map col [ string_of_int groups; outcome; name; string_of_int v ]);
          Obs.add !bench_obs (Printf.sprintf "e19.groups%d.%s" groups name) v)
        (Obs.counters obs))
    [ 2; 3; 4 ]

(* ---------------------------------------------------------------- e20 -- *)

(* set by the --quick flag: trims e20 to the CI perf-smoke configuration *)
let quick = ref false

let e20 () =
  header "E20: incremental feasibility oracle vs per-probe rebuild";
  pr "The exact active-time search probes feasibility once per candidate\n";
  pr "slot closure. The incremental oracle keeps ONE warm flow network per\n";
  pr "solve (close = drain + zero the slot arc; probe = re-augment), the\n";
  pr "rebuild baseline reconstructs the network and recomputes the max\n";
  pr "flow from scratch per probe. Both are exact, so the searches are\n";
  pr "observationally identical: same optimum, same nodes, same probe\n";
  pr "count. The golden columns below are pinned; drift fails the run.\n\n";
  table_row
    (List.map col
       [ "groups"; "cost"; "nodes"; "flow_checks"; "rebuild s"; "incremental"; "speedup" ]);
  (* golden search-effort counters for bb_hard ~g:2 ~width:6 under a 1M
     tick budget (also pinned for groups=3 by test/test_obs.ml) *)
  let golden = [ (2, (795, 456)); (3, (16773, 9518)); (4, (346217, 195573)) ] in
  let groups_list = if !quick then [ 2; 3 ] else [ 2; 3; 4 ] in
  let drift = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> drift := s :: !drift) fmt in
  List.iter
    (fun groups ->
      let inst = Gad.bb_hard ~g:2 ~groups ~width:6 in
      let run oracle =
        let obs = Obs.create () in
        let t0 = Unix.gettimeofday () in
        let r = Active.Exact.solve ~budget:(Budget.limited 1_000_000) ~oracle ~obs inst in
        let t = Unix.gettimeofday () -. t0 in
        (r, obs, t)
      in
      (* incremental second: any cache warmup penalizes, not favors, it *)
      let r_reb, obs_reb, t_reb = run Active.Feasibility.Rebuild in
      let r_inc, obs_inc, t_inc = run Active.Feasibility.Incremental in
      let cost = function
        | Budget.Complete (Some sol) -> string_of_int (Active.Solution.cost sol)
        | Budget.Complete None -> "infeasible"
        | Budget.Exhausted _ -> "exhausted"
      in
      let opens = function
        | Budget.Complete (Some sol) -> sol.Active.Solution.open_slots
        | _ -> []
      in
      let counter obs name = Option.value (List.assoc_opt name (Obs.counters obs)) ~default:0 in
      let nodes = counter obs_inc "active.exact.nodes" in
      let checks = counter obs_inc "active.exact.flow_checks" in
      if cost r_inc <> cost r_reb || opens r_inc <> opens r_reb then
        complain "groups=%d: optima differ between probe modes" groups;
      if nodes <> counter obs_reb "active.exact.nodes"
         || checks <> counter obs_reb "active.exact.flow_checks"
      then
        complain "groups=%d: search effort differs between probe modes (%d/%d vs %d/%d)" groups
          nodes checks
          (counter obs_reb "active.exact.nodes")
          (counter obs_reb "active.exact.flow_checks");
      (match List.assoc_opt groups golden with
      | Some (g_nodes, g_checks) when (g_nodes, g_checks) <> (nodes, checks) ->
          complain "groups=%d: golden drift: nodes %d (want %d), flow_checks %d (want %d)" groups
            nodes g_nodes checks g_checks
      | _ -> ());
      let speedup = t_reb /. t_inc in
      table_row
        (List.map col
           [ string_of_int groups; cost r_inc; string_of_int nodes; string_of_int checks;
             Printf.sprintf "%.3f" t_reb; Printf.sprintf "%.3f" t_inc;
             Printf.sprintf "%.1fx" speedup ]);
      Obs.add !bench_obs (Printf.sprintf "e20.groups%d.nodes" groups) nodes;
      Obs.add !bench_obs (Printf.sprintf "e20.groups%d.flow_checks" groups) checks;
      Obs.add !bench_obs
        (Printf.sprintf "e20.groups%d.rebuild_us" groups)
        (int_of_float (t_reb *. 1e6));
      Obs.add !bench_obs
        (Printf.sprintf "e20.groups%d.incremental_us" groups)
        (int_of_float (t_inc *. 1e6));
      Obs.add !bench_obs
        (Printf.sprintf "e20.groups%d.speedup_x100" groups)
        (int_of_float (speedup *. 100.0)))
    groups_list;
  if !drift <> [] then begin
    pr "\nE20 FAILED:\n";
    List.iter (fun s -> pr "  %s\n" s) (List.rev !drift);
    exit 1
  end

(* ---------------------------------------------------------------- e21 -- *)

let e21 () =
  header "E21: LP engines - dense tableau vs bounded-variable revised simplex";
  pr "Cold solves of the repo's two LP families under both engines: the\n";
  pr "active-time LP1 relaxation of E10-style slotted workloads and the\n";
  pr "preemptive busy-time event-grid LP of E12-style interval streams.\n";
  pr "Work = tableau_cells, the scalar cell operations each engine\n";
  pr "actually performed (since 1.8.0 a touched-cell count, not a static\n";
  pr "area x pivots estimate): the dense tableau eliminates over one row\n";
  pr "per upper-bounded variable plus artificial columns, the revised\n";
  pr "engine over one row per constraint. Pivot counts and the\n";
  pr "warm-probe work ratio are golden; drift fails the run.\n\n";
  let drift = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> drift := s :: !drift) fmt in
  let describe = function
    | Lp.Optimal s -> Printf.sprintf "opt %s" (Q.to_string (Lp.objective_value s))
    | Lp.Infeasible -> "infeasible"
    | Lp.Unbounded -> "unbounded"
  in
  (* golden (dense pivots, revised pivots) per cold row *)
  let golden_cold =
    [ ("lp1/s3", (130, 64)); ("lp1/s8", (118, 55)); ("lp1/s9", (119, 53));
      ("busy/s0", (117, 62)); ("busy/s1", (116, 58)); ("busy/s2", (123, 64)) ]
  in
  let lp1_seeds = if !quick then [ 3 ] else [ 3; 8; 9 ] in
  let busy_seeds = if !quick then [ 0 ] else [ 0; 1; 2 ] in
  let params : Gen.slotted_params = { n = 10; horizon = 16; max_length = 4; slack = 4; g = 2 } in
  let families =
    List.map
      (fun s ->
        ( Printf.sprintf "lp1/s%d" s,
          fun () -> fst (Active.Lp_model.build_lp1 (Gen.slotted ~params ~seed:s ())) ))
      lp1_seeds
    @ List.map
        (fun s ->
          ( Printf.sprintf "busy/s%d" s,
            fun () ->
              Busy.Preemptive.lp_model (Gen.interval_jobs ~n:20 ~horizon:60 ~max_length:8 ~seed:s ())
          ))
        busy_seeds
  in
  table_row
    (List.map col [ "model"; "outcome"; "dense piv"; "dense cells"; "rev piv"; "rev cells"; "work ratio" ]);
  List.iter
    (fun (name, build) ->
      let m = build () in
      let rd = Lp.solve ~engine:Lp.Dense m in
      let rr = Lp.solve ~engine:Lp.Revised m in
      if describe rd <> describe rr then
        complain "%s: engines disagree (dense %s, revised %s)" name (describe rd) (describe rr);
      match (rd, rr) with
      | Lp.Optimal sd, Lp.Optimal sr ->
          let pd = Lp.pivots sd and pr_ = Lp.pivots sr in
          let cd = Lp.tableau_cells sd and cr = Lp.tableau_cells sr in
          (match List.assoc_opt name golden_cold with
          | Some (gd, gr) when (gd, gr) <> (pd, pr_) ->
              complain "%s: golden drift: dense pivots %d (want %d), revised %d (want %d)" name pd
                gd pr_ gr
          | _ -> ());
          let ratio = float_of_int cd /. float_of_int (max 1 cr) in
          table_row
            (List.map col
               [ name; describe rr; string_of_int pd; string_of_int cd; string_of_int pr_;
                 string_of_int cr; Printf.sprintf "%.1fx" ratio ]);
          let key k v = Obs.add !bench_obs (Printf.sprintf "e21.%s.%s" name k) v in
          key "dense_pivots" pd;
          key "dense_work" cd;
          key "revised_pivots" pr_;
          key "revised_work" cr
      | _ -> table_row (List.map col [ name; describe rr; "-"; "-"; "-"; "-"; "-" ]))
    families;
  (* Warm-started probes: ONE LP1 model, rounds of bound tightening and
     restoration (the ILP search's access pattern), re-solved three ways
     per round - dense cold, revised cold, revised warm from the
     previous round's basis. The acceptance gate is the headline of this
     PR: warm revised probes do >= 3x less pivot-work than the dense
     engine they replace. *)
  pr "\nWarm-started probes (one LP1 model, %d bound-rewrite rounds):\n\n"
    (if !quick then 8 else 16);
  let rounds = if !quick then 8 else 16 in
  let inst = Gen.slotted ~params ~seed:3 () in
  let m, y_vars = Active.Lp_model.build_lp1 inst in
  let ny = List.length y_vars in
  let work_d = ref 0 and work_r = ref 0 and work_w = ref 0 in
  let piv_d = ref 0 and piv_r = ref 0 and piv_w = ref 0 in
  let warm = ref None in
  (match Lp.solve m with
  | Lp.Optimal s -> warm := Lp.basis s
  | _ -> complain "warm probes: seed-3 LP1 unexpectedly not optimal");
  (* branch-up probes: round i toggles y_{i mod ny} between fixed-open
     (lower = 1, the ILP's branch-up rewrite) and free. Opening more
     slots never loses feasibility, so every round re-solves to optimal
     and all three variants accumulate comparable work. *)
  let fixed_open = Array.make ny false in
  for round = 0 to rounds - 1 do
    let i = round mod ny in
    let _, yv = List.nth y_vars i in
    fixed_open.(i) <- not fixed_open.(i);
    Lp.set_bounds m yv ~lower:(if fixed_open.(i) then Q.one else Q.zero) ~upper:(Some Q.one);
    let rd = Lp.solve ~engine:Lp.Dense m in
    let rr = Lp.solve ~engine:Lp.Revised m in
    let rw = Lp.solve ~engine:Lp.Revised ?warm:!warm m in
    if describe rd <> describe rr || describe rr <> describe rw then
      complain "warm probes round %d: results differ (dense %s, cold %s, warm %s)" round
        (describe rd) (describe rr) (describe rw);
    let acc work piv = function
      | Lp.Optimal s ->
          work := !work + Lp.tableau_cells s;
          piv := !piv + Lp.pivots s
      | _ -> ()
    in
    acc work_d piv_d rd;
    acc work_r piv_r rr;
    acc work_w piv_w rw;
    match rw with Lp.Optimal s -> warm := Lp.basis s | _ -> warm := None
  done;
  let ratio_dw = float_of_int !work_d /. float_of_int (max 1 !work_w) in
  let ratio_rw = float_of_int !work_r /. float_of_int (max 1 !work_w) in
  table_row (List.map col [ "variant"; "pivots"; "work"; "vs warm" ]);
  table_row
    (List.map col
       [ "dense"; string_of_int !piv_d; string_of_int !work_d; Printf.sprintf "%.1fx" ratio_dw ]);
  table_row
    (List.map col
       [ "revised"; string_of_int !piv_r; string_of_int !work_r; Printf.sprintf "%.1fx" ratio_rw ]);
  table_row (List.map col [ "rev+warm"; string_of_int !piv_w; string_of_int !work_w; "1.0x" ]);
  if ratio_dw < 3.0 then
    complain "warm probes: dense/warm work ratio %.2f below the 3x acceptance floor" ratio_dw;
  Obs.add !bench_obs "e21.warm.dense_work" !work_d;
  Obs.add !bench_obs "e21.warm.revised_work" !work_r;
  Obs.add !bench_obs "e21.warm.warm_work" !work_w;
  Obs.add !bench_obs "e21.warm.dense_pivots" !piv_d;
  Obs.add !bench_obs "e21.warm.revised_pivots" !piv_r;
  Obs.add !bench_obs "e21.warm.warm_pivots" !piv_w;
  Obs.add !bench_obs "e21.warm.ratio_dense_x100" (int_of_float (ratio_dw *. 100.0));
  Obs.add !bench_obs "e21.warm.ratio_cold_x100" (int_of_float (ratio_rw *. 100.0));
  if !drift <> [] then begin
    pr "\nE21 FAILED:\n";
    List.iter (fun s -> pr "  %s\n" s) (List.rev !drift);
    exit 1
  end

(* ---------------------------------------------------------------- e22 -- *)

let e22 () =
  header "E22: serve daemon - request throughput, cold vs memoized";
  pr "A single-worker daemon (no --timing nondeterminism in goldens: the\n";
  pr "latency fields come from the config's timing switch) fed N distinct\n";
  pr "cascade requests and then the same N twice more. The repeats must\n";
  pr "replay from the memo cache: the hit counter is golden-pinned and\n";
  pr "the memoized latency must beat the cold latency.\n\n";
  let n = if !quick then 12 else 40 in
  let request seed =
    let params : Gen.slotted_params = { n = 9; horizon = 14; max_length = 4; slack = 3; g = 2 } in
    let inst = Gen.slotted ~params ~seed () in
    Obs.Json.to_string
      (Obs.Json.Obj
         [ ("instance", Obs.Json.String (Workload.Io.to_string (Workload.Io.Slotted_instance inst)));
           ("algorithm", Obs.Json.String "cascade");
           ("budget", Obs.Json.Int 200_000) ])
  in
  let cold = List.init n request in
  let stream = cold @ cold @ cold in
  let obs = Obs.create () in
  (* queue must hold the whole stream: run_lines feeds lines faster than
     the single worker drains them, and a shed request is never cached *)
  let config =
    { (Serve.default_config ()) with
      Serve.domains = 1;
      timing = true;
      queue_capacity = List.length stream }
  in
  let t0 = Unix.gettimeofday () in
  let responses = Serve.run_lines ~obs ~config stream in
  let wall = Unix.gettimeofday () -. t0 in
  let field name line =
    match Obs.Json.parse line with
    | Ok doc -> Obs.Json.member name doc
    | Error _ -> None
  in
  let latencies disposition =
    List.filter_map
      (fun line ->
        match (field "cache" line, field "elapsed_us" line) with
        | Some (Obs.Json.String d), Some (Obs.Json.Int us) when d = disposition -> Some us
        | _ -> None)
      responses
    |> List.sort compare
  in
  let percentile sorted p =
    match sorted with
    | [] -> 0
    | _ ->
        let k = List.length sorted in
        List.nth sorted (min (k - 1) (p * k / 100))
  in
  let cold_lat = latencies "miss" and memo_lat = latencies "hit" in
  let hits =
    match List.assoc_opt "serve.cache_hits" (Obs.counters obs) with Some h -> h | None -> 0
  in
  let cold_p50 = percentile cold_lat 50 and cold_p99 = percentile cold_lat 99 in
  let memo_p50 = percentile memo_lat 50 and memo_p99 = percentile memo_lat 99 in
  let rps = float_of_int (List.length stream) /. wall in
  table_row (List.map col [ "phase"; "requests"; "p50 us"; "p99 us" ]);
  table_row (List.map col [ "cold"; string_of_int (List.length cold_lat); string_of_int cold_p50; string_of_int cold_p99 ]);
  table_row (List.map col [ "memoized"; string_of_int (List.length memo_lat); string_of_int memo_p50; string_of_int memo_p99 ]);
  pr "\n%d responses in %.3fs (%.0f requests/sec), %d cache hits\n"
    (List.length responses) wall rps hits;
  Obs.add !bench_obs "e22.requests" (List.length stream);
  Obs.add !bench_obs "e22.cache_hits" hits;
  Obs.add !bench_obs "e22.cold.p50_us" cold_p50;
  Obs.add !bench_obs "e22.cold.p99_us" cold_p99;
  Obs.add !bench_obs "e22.memo.p50_us" memo_p50;
  Obs.add !bench_obs "e22.memo.p99_us" memo_p99;
  Obs.add !bench_obs "e22.requests_per_sec" (int_of_float rps);
  (* gates: the repeats must all hit (golden hit count) and replaying a
     cached answer must be measurably faster than solving it *)
  if hits <> 2 * n then begin
    pr "\nE22 FAILED: expected %d cache hits, measured %d\n" (2 * n) hits;
    exit 1
  end;
  if List.length responses <> List.length stream then begin
    pr "\nE22 FAILED: %d requests, %d responses\n" (List.length stream) (List.length responses);
    exit 1
  end;
  if memo_p50 >= cold_p50 then begin
    pr "\nE22 FAILED: memoized p50 %dus not faster than cold p50 %dus\n" memo_p50 cold_p50;
    exit 1
  end

(* ---------------------------------------------------------------- e23 -- *)

let e23 () =
  header "E23: LP engines - exact revised vs float-certified simplex";
  pr "The e21 LP families re-solved under the float engine: a double\n";
  pr "precision simplex picks the final basis, one exact rational\n";
  pr "refactorization certifies it (or the exact engine re-solves on\n";
  pr "certification failure), so objectives stay bit-identical to the\n";
  pr "revised engine. Work is engine-comparable rational operations:\n";
  pr "exact tableau cells touched for the revised engine, and the exact\n";
  pr "cells counter (certification mul/divs plus any fallback re-solve)\n";
  pr "for float-certified. The certify rate is golden\n";
  pr "and total float work must undercut exact work by >= 5x; the\n";
  pr "certify-fail fallback is exercised by the pinned float_trap gadget.\n\n";
  let drift = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> drift := s :: !drift) fmt in
  let lp1_seeds = if !quick then [ 3 ] else [ 3; 8; 9 ] in
  let busy_seeds = if !quick then [ 0 ] else [ 0; 1; 2 ] in
  let params : Gen.slotted_params = { n = 10; horizon = 16; max_length = 4; slack = 4; g = 2 } in
  let families =
    List.map
      (fun s ->
        ( Printf.sprintf "lp1/s%d" s,
          fun () -> fst (Active.Lp_model.build_lp1 (Gen.slotted ~params ~seed:s ())) ))
      lp1_seeds
    @ List.map
        (fun s ->
          ( Printf.sprintf "busy/s%d" s,
            fun () ->
              Busy.Preemptive.lp_model (Gen.interval_jobs ~n:20 ~horizon:60 ~max_length:8 ~seed:s ())
          ))
        busy_seeds
  in
  let repeats = if !quick then 5 else 15 in
  let timed_solve ?obs ~engine m =
    (* wall per solve over [repeats] runs, microseconds, plus the last result *)
    let times = ref [] in
    let result = ref Lp.Infeasible in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      result := Lp.solve ?obs ~engine m;
      times := int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) :: !times
    done;
    (!result, !times)
  in
  let percentile sorted p =
    match sorted with
    | [] -> 0
    | _ ->
        let k = List.length sorted in
        List.nth sorted (min (k - 1) (p * k / 100))
  in
  let exact_total = ref 0 and float_total = ref 0 and certified = ref 0 in
  let exact_times = ref [] and float_times = ref [] in
  table_row
    (List.map col
       [ "model"; "objective"; "exact work"; "float work"; "ratio"; "certified" ]);
  List.iter
    (fun (name, build) ->
      let m = build () in
      let rr, tr = timed_solve ~engine:Lp.Revised m in
      let obs = Obs.create () in
      let rf, tf = timed_solve ~obs ~engine:Lp.Float_certified m in
      exact_times := tr @ !exact_times;
      float_times := tf @ !float_times;
      match (rr, rf) with
      | Lp.Optimal sr, Lp.Optimal sf ->
          if not (Q.equal (Lp.objective_value sr) (Lp.objective_value sf)) then
            complain "%s: objectives differ: revised %s, float %s" name
              (Q.to_string (Lp.objective_value sr))
              (Q.to_string (Lp.objective_value sf));
          let counter n = match List.assoc_opt n (Obs.counters obs) with Some v -> v | None -> 0 in
          let exact_work = Lp.tableau_cells sr in
          (* per-solve rational cost: the obs accumulated [repeats] runs;
             lp.exact_cells covers certification and any fallback re-solve *)
          let certify_ops = counter "lp.certify_ops" / repeats in
          let is_certified = counter "lp.certify_fail" = 0 in
          let float_work = counter "lp.exact_cells" / repeats in
          if is_certified then incr certified;
          exact_total := !exact_total + exact_work;
          float_total := !float_total + float_work;
          table_row
            (List.map col
               [ name; Q.to_string (Lp.objective_value sr); string_of_int exact_work;
                 string_of_int float_work;
                 Printf.sprintf "%.0fx" (float_of_int exact_work /. float_of_int (max 1 float_work));
                 (if is_certified then "yes" else "no (fell back)") ]);
          let key k v = Obs.add !bench_obs (Printf.sprintf "e23.%s.%s" name k) v in
          key "exact_work" exact_work;
          key "float_work" float_work;
          key "certify_ops" certify_ops;
          key "certified" (if is_certified then 1 else 0)
      | _ -> complain "%s: expected Optimal under both engines" name)
    families;
  let exact_sorted = List.sort compare !exact_times in
  let float_sorted = List.sort compare !float_times in
  pr "\nwall per solve (%d runs/model):  exact p50 %dus p99 %dus,  float-certified p50 %dus p99 %dus\n"
    repeats (percentile exact_sorted 50) (percentile exact_sorted 99)
    (percentile float_sorted 50) (percentile float_sorted 99);
  let ratio = float_of_int !exact_total /. float_of_int (max 1 !float_total) in
  pr "total simplex work: exact %d, float-certified %d (%.0fx less)\n" !exact_total !float_total
    ratio;
  pr "certified %d/%d models\n" !certified (List.length families);
  Obs.add !bench_obs "e23.exact.p50_us" (percentile exact_sorted 50);
  Obs.add !bench_obs "e23.exact.p99_us" (percentile exact_sorted 99);
  Obs.add !bench_obs "e23.float.p50_us" (percentile float_sorted 50);
  Obs.add !bench_obs "e23.float.p99_us" (percentile float_sorted 99);
  Obs.add !bench_obs "e23.exact_work_total" !exact_total;
  Obs.add !bench_obs "e23.float_work_total" !float_total;
  Obs.add !bench_obs "e23.certified_models" !certified;
  Obs.add !bench_obs "e23.work_ratio_x10" (int_of_float (ratio *. 10.0));
  (* the certify-fail fallback path, exercised and pinned: the float_trap
     gadget's optimal column wins by less than one ulp of double, so the
     float basis must fail certification and the exact fallback must
     return the gadget's known optimum *)
  let trap = Gad.float_trap ~pairs:4 ~ulp_exp:54 in
  let tm = Lp.create () in
  let tvars = List.map (Lp.add_var tm) trap.Gad.ft_vars in
  List.iter
    (fun (coeffs, rhs) -> Lp.add_constraint tm (List.combine coeffs tvars) Lp.Le rhs)
    trap.Gad.ft_rows;
  Lp.set_objective tm Lp.Maximize (List.combine trap.Gad.ft_obj tvars);
  let tobs = Obs.create () in
  (match Lp.solve ~engine:Lp.Float_certified ~obs:tobs tm with
  | Lp.Optimal s ->
      let counter n = match List.assoc_opt n (Obs.counters tobs) with Some v -> v | None -> 0 in
      pr "float_trap (pairs=4, ulp_exp=54): certify_fail=%d fallbacks=%d, objective %s\n"
        (counter "lp.certify_fail") (counter "lp.fallbacks")
        (Q.to_string (Lp.objective_value s));
      if counter "lp.certify_fail" <> 1 || counter "lp.fallbacks" <> 1 then
        complain "float_trap: expected exactly one certify_fail + fallback, got %d + %d"
          (counter "lp.certify_fail") (counter "lp.fallbacks");
      if not (Q.equal (Lp.objective_value s) trap.Gad.ft_opt) then
        complain "float_trap: fallback objective %s, want %s"
          (Q.to_string (Lp.objective_value s))
          (Q.to_string trap.Gad.ft_opt);
      Obs.add !bench_obs "e23.trap.certify_fail" (counter "lp.certify_fail");
      Obs.add !bench_obs "e23.trap.fallbacks" (counter "lp.fallbacks")
  | _ -> complain "float_trap: expected Optimal");
  (* gates: every family model certifies (golden rate), and certified
     float work undercuts exact work by at least the headline factor *)
  if !certified <> List.length families then
    complain "certify rate drift: %d/%d models certified" !certified (List.length families);
  if ratio < 5.0 then
    complain "float-certified work only %.1fx below exact (gate: >= 5x)" ratio;
  if !drift <> [] then begin
    pr "\nE23 FAILED:\n";
    List.iter (pr "  %s\n") (List.rev !drift);
    exit 1
  end

(* ---------------------------------------------------------------- e24 -- *)

let e24 () =
  header "E24: LP engines - sparse LU basis algebra, eta updates, warm floats";
  pr "The e21 LP families plus the block-diagonal sparse_wide gadget,\n";
  pr "solved four ways: dense tableau, the revised engine (since 1.9 the\n";
  pr "same sparse LU driver as `sparse`: CSC matrix, fill-minimizing\n";
  pr "ordering, product-form eta updates), the sparse engine, and the\n";
  pr "sparse engine warm from its own optimal basis. Work =\n";
  pr "tableau_cells, the scalar cell operations actually touched.\n";
  pr "Objectives are golden (engines agree; sparse_wide matches its\n";
  pr "closed-form LP1 optimum blocks*(g+1)/g) and sparse pivots must\n";
  pr "equal revised pivots. Gates: sparse work >= 3x below the dense\n";
  pr "tableau on sparse_wide, and float ?warm re-solves must beat float\n";
  pr "cold on the e21 warm-probe rounds.\n\n";
  let drift = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> drift := s :: !drift) fmt in
  let lp1_seeds = if !quick then [ 3 ] else [ 3; 8; 9 ] in
  let busy_seeds = if !quick then [ 0 ] else [ 0; 1; 2 ] in
  let wide_blocks = if !quick then [ 2 ] else [ 2; 4; 8 ] in
  let wide_g = 16 and wide_width = 24 in
  let params : Gen.slotted_params = { n = 10; horizon = 16; max_length = 4; slack = 4; g = 2 } in
  let families =
    List.map
      (fun s ->
        ( Printf.sprintf "lp1/s%d" s,
          (fun () -> fst (Active.Lp_model.build_lp1 (Gen.slotted ~params ~seed:s ()))),
          None ))
      lp1_seeds
    @ List.map
        (fun s ->
          ( Printf.sprintf "busy/s%d" s,
            (fun () ->
              Busy.Preemptive.lp_model (Gen.interval_jobs ~n:20 ~horizon:60 ~max_length:8 ~seed:s ())),
            None ))
        busy_seeds
    @ List.map
        (fun b ->
          ( Printf.sprintf "wide/b%d" b,
            (fun () ->
              fst (Active.Lp_model.build_lp1 (Gad.sparse_wide ~g:wide_g ~blocks:b ~width:wide_width))),
            Some (Gad.sparse_wide_lp_opt ~g:wide_g ~blocks:b) ))
        wide_blocks
  in
  let wide_dense = ref 0 and wide_sparse = ref 0 in
  table_row
    (List.map col
       [ "model"; "objective"; "dense"; "revised"; "sparse"; "sp+warm"; "dn/sparse"; "etas"; "refac" ]);
  List.iter
    (fun (name, build, golden) ->
      let m = build () in
      let rd = Lp.solve ~engine:Lp.Dense m in
      let rr = Lp.solve ~engine:Lp.Revised m in
      let obs = Obs.create () in
      let rs = Lp.solve ~obs ~engine:Lp.Revised m in
      match (rd, rr, rs) with
      | Lp.Optimal sd, Lp.Optimal sr, Lp.Optimal ss ->
          let obj = Lp.objective_value ss in
          if not (Q.equal (Lp.objective_value sd) obj && Q.equal (Lp.objective_value sr) obj)
          then complain "%s: engines disagree on the objective" name;
          (match golden with
          | Some want when not (Q.equal obj want) ->
              complain "%s: objective %s, closed form wants %s" name (Q.to_string obj)
                (Q.to_string want)
          | _ -> ());
          if Lp.pivots sr <> Lp.pivots ss then
            complain "%s: sparse pivots %d differ from revised %d" name (Lp.pivots ss)
              (Lp.pivots sr);
          (* warm re-solve from the sparse engine's own optimal basis:
             the factorization rebuilds, the simplex confirms in 0 pivots *)
          let warm_work =
            match Lp.solve ~engine:Lp.Revised ?warm:(Lp.basis ss) m with
            | Lp.Optimal sw ->
                if not (Q.equal (Lp.objective_value sw) obj) then
                  complain "%s: sparse warm objective drifted" name;
                Lp.tableau_cells sw
            | _ ->
                complain "%s: sparse warm re-solve not optimal" name;
                0
          in
          let counter n = match List.assoc_opt n (Obs.counters obs) with Some v -> v | None -> 0 in
          let cd = Lp.tableau_cells sd
          and cr = Lp.tableau_cells sr
          and cs = Lp.tableau_cells ss in
          let ratio = float_of_int cd /. float_of_int (max 1 cs) in
          if String.length name >= 4 && String.sub name 0 4 = "wide" then begin
            wide_dense := !wide_dense + cd;
            wide_sparse := !wide_sparse + cs
          end;
          table_row
            (List.map col
               [ name; Q.to_string obj; string_of_int cd; string_of_int cr; string_of_int cs;
                 string_of_int warm_work; Printf.sprintf "%.1fx" ratio;
                 string_of_int (counter "lp.eta_updates");
                 string_of_int (counter "lp.refactorizations") ]);
          let key k v = Obs.add !bench_obs (Printf.sprintf "e24.%s.%s" name k) v in
          key "dense_work" cd;
          key "revised_work" cr;
          key "sparse_work" cs;
          key "warm_work" warm_work;
          key "pivots" (Lp.pivots ss);
          key "eta_updates" (counter "lp.eta_updates");
          key "refactorizations" (counter "lp.refactorizations");
          key "fill_nonzeros" (counter "lp.fill_nonzeros")
      | _ -> complain "%s: expected Optimal under all engines" name)
    families;
  let wide_ratio = float_of_int !wide_dense /. float_of_int (max 1 !wide_sparse) in
  pr "\nsparse_wide work: dense %d, sparse %d (%.1fx less)\n" !wide_dense !wide_sparse
    wide_ratio;
  Obs.add !bench_obs "e24.wide.dense_total" !wide_dense;
  Obs.add !bench_obs "e24.wide.sparse_total" !wide_sparse;
  Obs.add !bench_obs "e24.wide.ratio_x100" (int_of_float (wide_ratio *. 100.0));
  if wide_ratio < 3.0 then
    complain "sparse_wide: sparse work only %.2fx below dense (gate: >= 3x)" wide_ratio;
  (* Float warm probes: the e21 warm-probe rounds re-run under the float
     engine - cold every round vs warm from the previous round's basis.
     The warm path restores the basis, refactorizes sparsely, re-enters
     phase 2, and still certifies; it must beat the cold float solves. *)
  let rounds = if !quick then 8 else 16 in
  pr "\nFloat warm probes (one LP1 model, %d bound-rewrite rounds):\n\n" rounds;
  let inst = Gen.slotted ~params ~seed:3 () in
  let m, y_vars = Active.Lp_model.build_lp1 inst in
  let ny = List.length y_vars in
  let work_c = ref 0 and work_w = ref 0 in
  let piv_c = ref 0 and piv_w = ref 0 in
  let warm = ref None in
  (match Lp.solve ~engine:Lp.Float_certified m with
  | Lp.Optimal s -> warm := Lp.basis s
  | _ -> complain "float warm probes: seed-3 LP1 unexpectedly not optimal");
  let fixed_open = Array.make ny false in
  for round = 0 to rounds - 1 do
    let i = round mod ny in
    let _, yv = List.nth y_vars i in
    fixed_open.(i) <- not fixed_open.(i);
    Lp.set_bounds m yv ~lower:(if fixed_open.(i) then Q.one else Q.zero) ~upper:(Some Q.one);
    let rc = Lp.solve ~engine:Lp.Float_certified m in
    let rw = Lp.solve ~engine:Lp.Float_certified ?warm:!warm m in
    (match (rc, rw) with
    | Lp.Optimal sc, Lp.Optimal sw ->
        if not (Q.equal (Lp.objective_value sc) (Lp.objective_value sw)) then
          complain "float warm probes round %d: cold and warm objectives differ" round;
        work_c := !work_c + Lp.tableau_cells sc;
        piv_c := !piv_c + Lp.pivots sc;
        work_w := !work_w + Lp.tableau_cells sw;
        piv_w := !piv_w + Lp.pivots sw
    | _ -> complain "float warm probes round %d: expected Optimal" round);
    match rw with Lp.Optimal s -> warm := Lp.basis s | _ -> warm := None
  done;
  let fratio = float_of_int !work_c /. float_of_int (max 1 !work_w) in
  table_row (List.map col [ "variant"; "pivots"; "work"; "vs warm" ]);
  table_row
    (List.map col
       [ "float cold"; string_of_int !piv_c; string_of_int !work_c;
         Printf.sprintf "%.1fx" fratio ]);
  table_row (List.map col [ "float+warm"; string_of_int !piv_w; string_of_int !work_w; "1.0x" ]);
  if !work_w >= !work_c then
    complain "float warm probes: warm work %d does not beat cold %d" !work_w !work_c;
  Obs.add !bench_obs "e24.fwarm.cold_work" !work_c;
  Obs.add !bench_obs "e24.fwarm.warm_work" !work_w;
  Obs.add !bench_obs "e24.fwarm.cold_pivots" !piv_c;
  Obs.add !bench_obs "e24.fwarm.warm_pivots" !piv_w;
  Obs.add !bench_obs "e24.fwarm.ratio_x100" (int_of_float (fratio *. 100.0));
  if !drift <> [] then begin
    pr "\nE24 FAILED:\n";
    List.iter (pr "  %s\n") (List.rev !drift);
    exit 1
  end

(* ---------------------------------------------------------------- e25 -- *)

(* data/vm_day.txt inlined (cwd-independent): a day of batch VM
   requests, replayed online with each job arriving at its release. *)
let vm_day_jobs =
  List.map
    (fun (id, r, d, p) -> B.make ~id ~release:(Q.of_int r) ~deadline:(Q.of_int d) ~length:(Q.of_int p))
    [ (0, 0, 10, 4); (1, 1, 6, 2); (2, 2, 12, 5); (3, 4, 9, 3); (4, 6, 18, 6); (5, 8, 14, 3);
      (6, 9, 13, 2); (7, 12, 22, 4); (8, 14, 20, 3); (9, 15, 24, 5); (10, 18, 23, 2);
      (11, 20, 24, 2) ]

let e25 () =
  header "E25: rolling-horizon replay - session-warm vs cold-per-epoch";
  pr "Traces (vm_day online plus generated timed_slotted mixes) replayed\n";
  pr "epoch by epoch through Sim.Rolling, once on a persistent warm\n";
  pr "Core.Session and once rebuilding every epoch cold. The committed\n";
  pr "schedules must be identical - warmth changes the work, never the\n";
  pr "answer. Golden epoch counts and objectives pin the vm_day replay;\n";
  pr "generated traces gate on warm = cold totals and a clean replay\n";
  pr "whenever nothing missed. Gate: total warm LP work (lp.exact_cells)\n";
  pr "strictly below cold.\n\n";
  let drift = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> drift := s :: !drift) fmt in
  let module Rolling = Sim.Rolling in
  let gen_seeds = if !quick then [ 3 ] else [ 3; 8; 9 ] in
  let gen_params : Gen.slotted_params = { n = 12; horizon = 24; max_length = 4; slack = 5; g = 3 } in
  let vm_arrivals = List.map (fun (j : B.t) -> (j.B.id, Q.to_float j.B.release |> int_of_float)) vm_day_jobs in
  (* epoch_len 2 for vm_day: with hour-grain epochs of 4 the tightest
     request (job 6, 2h of slack) arrives just after a boundary and is
     missed before it is ever seen - a granularity artifact, not an
     overload - so the showcase replans every 2 hours. *)
  let traces =
    ("vm_day", Rolling.of_busy ~g:4 vm_day_jobs, vm_arrivals, 2, Some (11, 22, 0))
    :: List.map
         (fun s ->
           let inst, arrivals = Gen.timed_slotted ~params:gen_params ~seed:s () in
           (Printf.sprintf "gen/s%d" s, inst, arrivals, Rolling.default_config.Rolling.epoch_len, None))
         gen_seeds
  in
  let lp_counter obs = match List.assoc_opt "lp.exact_cells" (Obs.counters obs) with Some v -> v | None -> 0 in
  let warm_total = ref 0 and cold_total = ref 0 in
  table_row
    (List.map col
       [ "trace"; "epochs"; "energy"; "misses"; "warm hits"; "warm lp"; "cold lp"; "ratio" ]);
  List.iter
    (fun (name, inst, arrivals, epoch_len, golden) ->
      let run_once warm =
        let obs = Obs.create () in
        let config = { Rolling.default_config with warm; epoch_len } in
        let r = Rolling.run ~obs ~config ~arrivals inst in
        (r, lp_counter obs)
      in
      let rw, ww = run_once true in
      let rc, wc = run_once false in
      if
        rw.Rolling.total_energy <> rc.Rolling.total_energy
        || rw.Rolling.total_misses <> rc.Rolling.total_misses
        || rw.Rolling.open_slots <> rc.Rolling.open_slots
        || rw.Rolling.schedule <> rc.Rolling.schedule
      then complain "%s: warm and cold replays disagree on the committed schedule" name;
      (match golden with
      | Some (epochs, energy, misses) ->
          if List.length rw.Rolling.epochs <> epochs then
            complain "%s: %d epochs, golden wants %d" name (List.length rw.Rolling.epochs) epochs;
          if rw.Rolling.total_energy <> energy then
            complain "%s: energy %d, golden wants %d" name rw.Rolling.total_energy energy;
          if rw.Rolling.total_misses <> misses then
            complain "%s: %d misses, golden wants %d" name rw.Rolling.total_misses misses
      | None -> ());
      (if rw.Rolling.total_misses = 0 then
         match rw.Rolling.replay with
         | Some rep ->
             if rep.Sim.violations <> [] then complain "%s: replay reports violations" name;
             if not (Q.equal rep.Sim.total_energy (Q.of_int rw.Rolling.total_energy)) then
               complain "%s: replay energy disagrees with the epoch totals" name
         | None -> complain "%s: no misses but the replay oracle was skipped" name);
      let warm_hits =
        List.fold_left (fun acc (e : Rolling.epoch) -> acc + e.Rolling.warm_hits) 0 rw.Rolling.epochs
      in
      if warm_hits = 0 then complain "%s: warm run recorded no session warm hits" name;
      warm_total := !warm_total + ww;
      cold_total := !cold_total + wc;
      table_row
        (List.map col
           [ name; string_of_int (List.length rw.Rolling.epochs);
             string_of_int rw.Rolling.total_energy; string_of_int rw.Rolling.total_misses;
             string_of_int warm_hits; string_of_int ww; string_of_int wc;
             Printf.sprintf "%.1fx" (float_of_int wc /. float_of_int (max 1 ww)) ]);
      let key k v = Obs.add !bench_obs (Printf.sprintf "e25.%s.%s" name k) v in
      key "epochs" (List.length rw.Rolling.epochs);
      key "energy" rw.Rolling.total_energy;
      key "misses" rw.Rolling.total_misses;
      key "warm_hits" warm_hits;
      key "warm_lp_work" ww;
      key "cold_lp_work" wc)
    traces;
  let ratio = float_of_int !cold_total /. float_of_int (max 1 !warm_total) in
  pr "\ntotal LP work: warm %d, cold %d (%.1fx less)\n" !warm_total !cold_total ratio;
  Obs.add !bench_obs "e25.total.warm_lp_work" !warm_total;
  Obs.add !bench_obs "e25.total.cold_lp_work" !cold_total;
  Obs.add !bench_obs "e25.total.ratio_x100" (int_of_float (ratio *. 100.0));
  if !warm_total >= !cold_total then
    complain "gate: warm LP work %d does not beat cold %d" !warm_total !cold_total;
  if !drift <> [] then begin
    pr "\nE25 FAILED:\n";
    List.iter (pr "  %s\n") (List.rev !drift);
    exit 1
  end

(* -------------------------------------------------------------- main -- *)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
    ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21); ("e22", e22); ("e23", e23); ("e24", e24); ("e25", e25); ("abl", abl); ("par", par); ("scaling", scaling); ("timing", timing) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "--quick" args;
  let requested = List.filter (fun a -> a <> "--quick") args in
  let to_run =
    if requested = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some fn -> Some (name, fn)
          | None ->
              pr "unknown experiment %S (available: %s)\n" name
                (String.concat ", " (List.map fst experiments));
              None)
        requested
  in
  List.iter
    (fun (name, fn) ->
      let obs = Obs.create () in
      bench_obs := obs;
      fn ();
      bench_obs := Obs.null;
      write_bench_json name obs)
    to_run
