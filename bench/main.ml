(* Experiment harness: prints the paper's tables.

   One experiment per theorem/figure of the paper (see DESIGN.md's
   per-experiment index and EXPERIMENTS.md for recorded results). Every
   column is a cost, a ratio or a deterministic counter, never a clock,
   so the full output is pinned by bench/main.expected under
   `dune runtest`; wall-clock time belongs to perfbench/.

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
     e19 - methodology          golden solver counters on bb_hard
     abl - methodology          ablations of the documented design choices

   `dune exec bench/main.exe` runs everything; pass experiment names to
   select, e.g. `dune exec bench/main.exe -- e5 abl`. An unknown name
   lists the valid ones and exits 2 before anything runs. *)

module Q = Rational
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
  pr "flow feasibility, the OR-style search by LP bounds. Node counts\n";
  pr "per instance:\n\n";
  table_row (List.map col [ "instance"; "OPT"; "flow nodes"; "ilp nodes"; "lp solves" ]);
  let run name inst =
    (* one recorder: the two searches count under different names *)
    let obs = Obs.create () in
    let complete = function
      | Budget.Complete r -> Option.map Active.Solution.cost r
      | Budget.Exhausted _ -> assert false (* unlimited fuel never exhausts *)
    in
    let flow_opt = complete (Active.Exact.solve ~obs inst) in
    match (flow_opt, complete (Active.Ilp.solve ~obs inst)) with
    | Some o1, Some o2 ->
        assert (o1 = o2);
        table_row
          (List.map col
             (name :: List.map string_of_int
                  [ o1; Obs.counter obs "active.exact.nodes"; Obs.counter obs "active.ilp.nodes";
                    Obs.counter obs "active.ilp.lp_solves" ]))
    | None, None -> table_row (List.map col [ name; "infeas"; "-"; "-"; "-" ])
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
          let sol, prov = Active.Cascade.solve ~limit inst in
          table_row
            (List.map col
               [ string_of_int groups;
                 string_of_int limit;
                 Option.value prov.Budget.Cascade.winner ~default:"-";
                 string_of_int (Budget.Cascade.spent prov);
                 (match sol with Some s -> string_of_int (Active.Solution.cost s) | None -> "-");
                 string_of_int prov.Budget.Cascade.bound ]))
        [ 10_000; 100_000 ])
    [ 4; 5; 6 ];
  pr "\nbusy-time cascade (interval jobs, n=18, g=3):\n";
  table_row (List.map col [ "budget"; "tier"; "busy"; "lower bound" ]);
  List.iter
    (fun limit ->
      let jobs = Gen.interval_jobs ~n:18 ~horizon:20 ~max_length:5 ~seed:7 () in
      let packing, prov = Busy.Cascade.solve ~limit ~g:3 jobs in
      table_row
        (List.map col
           [ string_of_int limit;
             Option.value prov.Budget.Cascade.winner ~default:"-";
             (match packing with Some p -> Q.to_string (Busy.Bundle.total_busy p) | None -> "-");
             Q.to_string prov.Budget.Cascade.bound ]))
    [ 1_000; 1_000_000 ]

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
        (fun (name, v) -> table_row (List.map col [ string_of_int groups; outcome; name; string_of_int v ]))
        (Obs.counters obs))
    [ 2; 3; 4 ]

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

  pr "\n3. Simplex pricing rule on LP1 (10 random instances, n=12 T=18), mean\n";
  pr "   pivots of the cut loop over y and of the x-form model solved cold:\n\n";
  table_row (List.map col [ "rule"; "cut loop"; "x-form" ]);
  let lp_params : Gen.slotted_params = { n = 12; horizon = 18; max_length = 4; slack = 5; g = 3 } in
  List.iter
    (fun (name, rule) ->
      let loop = ref 0 and xform = ref 0 in
      for seed = 0 to 9 do
        let inst = Gen.slotted ~params:lp_params ~seed () in
        let obs = Obs.create () in
        ignore (Active.Lp_model.resolve ~rule ~obs (Active.Lp_model.create inst));
        loop := !loop + (try List.assoc "lp.pivots" (Obs.counters obs) with Not_found -> 0);
        match Lp.solve ~rule (fst (Active.Lp_model.build_lp1 inst)) with
        | Lp.Optimal sol -> xform := !xform + Lp.pivots sol
        | Lp.Infeasible | Lp.Unbounded -> ()
      done;
      let mean total = Printf.sprintf "%.1f" (float_of_int total /. 10.0) in
      table_row (List.map col [ name; mean !loop; mean !xform ]))
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

(* -------------------------------------------------------------- main -- *)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
    ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("abl", abl) ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  (* every name is checked before anything runs, so a typo fails fast *)
  (match List.filter (fun name -> not (List.mem_assoc name experiments)) requested with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown experiment %s (valid: %s)\n" (String.concat ", " unknown)
        (String.concat " " (List.map fst experiments));
      exit 2);
  let names = if requested = [] then List.map fst experiments else requested in
  List.iter (fun name -> (List.assoc name experiments) ()) names
