(* Busy-time tests: bundles and bounds, FirstFit, GreedyTracking (+ the
   Theorem 5 witness), the flow-based 2-approximation, span-minimizing
   placement, the flexible-job pipeline, and preemptive scheduling
   (Theorems 6/7). Properties check every guarantee the paper proves. *)

module Q = Rational
module B = Workload.Bjob
module I = Intervals.Interval
module Gen = Workload.Generate
module Gad = Workload.Gadgets

let q = Q.of_ints
let ij id start len = B.interval ~id ~start:(Q.of_int start) ~length:(Q.of_int len)
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

(* -- bundles -------------------------------------------------------------- *)

let test_bundle_busy_time () =
  check_q "overlapping" "3" (Busy.Bundle.busy_time [ ij 0 0 2; ij 1 1 2 ]);
  check_q "disjoint" "2" (Busy.Bundle.busy_time [ ij 0 0 1; ij 1 5 1 ]);
  Alcotest.(check int) "parallel" 2 (Busy.Bundle.max_parallel [ ij 0 0 2; ij 1 1 2 ]);
  Alcotest.(check bool) "fits" true (Busy.Bundle.fits ~g:2 [ ij 0 0 2 ] (ij 1 1 2));
  Alcotest.(check bool) "does not fit" false (Busy.Bundle.fits ~g:1 [ ij 0 0 2 ] (ij 1 1 2))

let test_bundle_check () =
  let jobs = [ ij 0 0 2; ij 1 1 2; ij 2 5 1 ] in
  Alcotest.(check (option string)) "valid" None
    (Busy.Bundle.check ~g:2 jobs [ [ ij 0 0 2; ij 1 1 2 ]; [ ij 2 5 1 ] ]);
  Alcotest.(check bool) "capacity violation" true
    (Busy.Bundle.check ~g:1 jobs [ [ ij 0 0 2; ij 1 1 2 ]; [ ij 2 5 1 ] ] <> None);
  Alcotest.(check bool) "missing job" true (Busy.Bundle.check ~g:2 jobs [ [ ij 0 0 2; ij 1 1 2 ] ] <> None);
  Alcotest.(check bool) "duplicated job" true
    (Busy.Bundle.check ~g:2 jobs [ [ ij 0 0 2; ij 1 1 2 ]; [ ij 2 5 1; ij 0 0 2 ] ] <> None)

let test_bounds () =
  let jobs = [ ij 0 0 2; ij 1 1 2; ij 2 5 1 ] in
  check_q "mass g=2" "5/2" (Busy.Bounds.mass ~g:2 jobs);
  check_q "span" "4" (Busy.Bounds.span jobs);
  (* cells: [0,1):1 [1,2):2 [2,3):1 [5,6):1, g=2 -> 1+1+1+1 = 4 *)
  check_q "profile g=2" "4" (Busy.Bounds.demand_profile ~g:2 jobs);
  check_q "best" "4" (Busy.Bounds.best ~g:2 jobs)

(* -- FirstFit -------------------------------------------------------------- *)

let test_first_fit_basic () =
  let jobs = [ ij 0 0 2; ij 1 1 2; ij 2 0 2 ] in
  let packing = Busy.First_fit.solve ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  Alcotest.(check int) "two bundles (g=2, 3 overlapping jobs)" 2 (List.length packing)

let test_first_fit_rejects_flexible () =
  let flex = B.make ~id:0 ~release:Q.zero ~deadline:(Q.of_int 5) ~length:Q.one in
  Alcotest.check_raises "flexible" (Invalid_argument "First_fit.solve: flexible job (convert first)")
    (fun () -> ignore (Busy.First_fit.solve ~g:2 [ flex ]))

(* -- GreedyTracking --------------------------------------------------------- *)

let test_greedy_tracking_basic () =
  (* 2g disjoint-in-pairs structure: tracks group cleanly *)
  let jobs = [ ij 0 0 3; ij 1 4 3; ij 2 0 2; ij 3 5 2 ] in
  let packing = Busy.Greedy_tracking.solve ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  (* first track = {0,1} (length 6), second = {2,3}; one bundle of both;
     union = [0,3) u [4,7) -> busy 6 *)
  Alcotest.(check int) "single bundle" 1 (List.length packing);
  check_q "busy" "6" (Busy.Bundle.total_busy packing)

let test_greedy_tracking_witness () =
  let bundle = [ ij 0 0 3; ij 1 1 1; ij 2 2 3; ij 3 6 2 ] in
  let w = Busy.Greedy_tracking.witness bundle in
  check_q "same span" (Q.to_string (Busy.Bundle.busy_time bundle)) (Intervals.span (List.map B.interval_of w));
  Alcotest.(check bool) "at most 2 live" true (Busy.Bundle.max_parallel w <= 2)

(* -- Two-approximation ------------------------------------------------------ *)

let test_two_approx_basic () =
  let jobs = [ ij 0 0 2; ij 1 1 2; ij 2 0 3; ij 3 4 1 ] in
  let packing = Busy.Two_approx.solve ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  let cost = Busy.Bundle.total_busy packing in
  let bound = Q.mul Q.two (Busy.Bounds.demand_profile ~g:2 jobs) in
  Alcotest.(check bool) "within 2x profile" true (Q.compare cost bound <= 0)

let test_two_approx_identical_jobs () =
  (* parallel edges in the event DAG *)
  let jobs = List.init 4 (fun id -> ij id 0 2) in
  let packing = Busy.Two_approx.solve ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  check_q "cost 4 (two machines of two)" "4" (Busy.Bundle.total_busy packing)

let test_two_approx_fig8_gadget () =
  let ta = Gad.two_approx_tight ~eps:(q 1 10) ~eps':(q 1 20) in
  let packing = Busy.Two_approx.solve ~g:ta.Gad.ta_g ta.Gad.ta_jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 ta.Gad.ta_jobs packing);
  let cost = Busy.Bundle.total_busy packing in
  (* guarantee: <= 2 * OPT = 2 + 2eps; the paper's bad run costs 2+eps+eps' *)
  Alcotest.(check bool) "within guarantee" true
    (Q.compare cost (Q.mul Q.two ta.Gad.ta_opt_cost) <= 0);
  (* the Fig. 8(B) certificate packing costs 2 + eps + eps' *)
  let by_id i = List.find (fun (j : B.t) -> j.B.id = i) ta.Gad.ta_jobs in
  let bad = [ [ by_id 0; by_id 3 ]; [ by_id 1; by_id 2; by_id 4 ] ] in
  Alcotest.(check (option string)) "certificate packing valid" None
    (Busy.Bundle.check ~g:2 ta.Gad.ta_jobs bad);
  check_q "certificate cost 2+eps+eps'" "43/20" (Busy.Bundle.total_busy bad)

let test_max_track_exposed () =
  let jobs = [ ij 0 0 3; ij 1 3 2; ij 2 1 4 ] in
  let track, len = Busy.Greedy_tracking.max_track jobs in
  (* {0,1}: 5 vs {2}: 4 *)
  check_q "track length" "5" len;
  Alcotest.(check int) "two jobs" 2 (List.length track);
  Alcotest.(check bool) "is track" true (Intervals.Track.is_track ~interval:B.interval_of track)

let test_two_approx_single_job () =
  let jobs = [ ij 0 0 5 ] in
  let packing = Busy.Two_approx.solve ~g:3 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:3 jobs packing);
  check_q "cost = length" "5" (Busy.Bundle.total_busy packing)

let test_preemptive_multi_round () =
  (* forces several greedy rounds with different deadlines:
     A rigid [0,2); B rigid [6,8); C window [0,8) length 5.
     Round 1 (d=2): open [0,2): A done, C serves 2.
     Round 2 (d=8): due B (rem 2) and C (rem 3): l_max = 3, open the
     rightmost 3 unopened units before 8 = [5,8): B serves [6,8), C
     serves 3. Total opened = 2 + 3 = 5. *)
  let jobs =
    [ B.make ~id:0 ~release:Q.zero ~deadline:Q.two ~length:Q.two;
      B.make ~id:1 ~release:(Q.of_int 6) ~deadline:(Q.of_int 8) ~length:Q.two;
      B.make ~id:2 ~release:Q.zero ~deadline:(Q.of_int 8) ~length:(Q.of_int 5) ]
  in
  let sol = Busy.Preemptive.unbounded jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Preemptive.check jobs sol);
  check_q "cost 5" "5" sol.Busy.Preemptive.cost;
  (* the opened time must be [0,2) u [5,8) *)
  Alcotest.(check string) "opened set" "{[0, 2) u [5, 8)}"
    (Format.asprintf "%a" Intervals.Union.pp sol.Busy.Preemptive.opened)

let test_first_fit_prefers_early_bundles () =
  (* equal-length jobs: the longest-first order is stable, so job 0 and
     the disjoint job 2 share bundle 0 *)
  let jobs = [ ij 0 0 2; ij 1 1 2; ij 2 5 2 ] in
  let packing = Busy.First_fit.solve ~g:1 jobs in
  Alcotest.(check int) "two bundles" 2 (List.length packing);
  let first = List.nth packing 0 in
  Alcotest.(check bool) "bundle 0 holds jobs 0 and 2" true
    (List.sort compare (List.map (fun (j : B.t) -> j.B.id) first) = [ 0; 2 ])

(* -- Kumar-Rudra ------------------------------------------------------------- *)

let test_kumar_rudra_basic () =
  let jobs = [ ij 0 0 2; ij 1 1 2; ij 2 0 3; ij 3 4 1 ] in
  let packing = Busy.Kumar_rudra.solve ~g:2 jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 jobs packing);
  Alcotest.(check bool) "within 2x profile" true
    (Q.compare (Busy.Bundle.total_busy packing)
       (Q.mul Q.two (Busy.Bounds.demand_profile ~g:2 jobs))
    <= 0)

(* Regression: the instance on which the fuzzer refuted the index-parity
   reading of Kumar-Rudra's phase 2 at g = 1 (a long job overlapping two
   pairwise-disjoint later jobs of its level got the same fiber as one of
   them). The greedy 2-coloring must keep this valid. *)
let test_kumar_rudra_parity_regression () =
  let jobs = Gen.interval_jobs ~n:8 ~horizon:16 ~max_length:4 ~seed:0 () in
  List.iter
    (fun g ->
      let packing = Busy.Kumar_rudra.solve ~g jobs in
      Alcotest.(check (option string))
        (Printf.sprintf "valid at g=%d" g)
        None
        (Busy.Bundle.check ~g jobs packing))
    [ 1; 2; 3; 4 ]

let test_kumar_rudra_fig8 () =
  (* the gadget the appendix built for exactly this algorithm *)
  let ta = Gad.two_approx_tight ~eps:(q 1 10) ~eps':(q 1 20) in
  let packing = Busy.Kumar_rudra.solve ~g:2 ta.Gad.ta_jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 ta.Gad.ta_jobs packing);
  let cost = Busy.Bundle.total_busy packing in
  Alcotest.(check bool) "within 2 OPT" true (Q.compare cost (Q.mul Q.two ta.Gad.ta_opt_cost) <= 0)

(* -- placement -------------------------------------------------------------- *)

let test_placement_exact_simple () =
  (* two unit jobs with overlapping windows can share one slot of time *)
  let jobs =
    [ B.make ~id:0 ~release:Q.zero ~deadline:(Q.of_int 3) ~length:Q.one;
      B.make ~id:1 ~release:Q.one ~deadline:(Q.of_int 4) ~length:Q.one ]
  in
  let placed = Busy.Placement.exact jobs in
  check_q "span 1" "1" (Intervals.span (List.map B.interval_of placed));
  List.iter2
    (fun (orig : B.t) (p : B.t) ->
      Alcotest.(check bool) "within window" true
        (Q.compare orig.B.release p.B.release <= 0 && Q.compare p.B.deadline orig.B.deadline <= 0))
    jobs placed

let test_placement_exact_forced_split () =
  (* windows too far apart to share: span = 2 *)
  let jobs =
    [ B.make ~id:0 ~release:Q.zero ~deadline:Q.one ~length:Q.one;
      B.make ~id:1 ~release:(Q.of_int 5) ~deadline:(Q.of_int 6) ~length:Q.one ]
  in
  check_q "span 2" "2" (Busy.Placement.optimum_span jobs)

let test_placement_greedy_not_worse_than_double () =
  let jobs = Gen.flexible_jobs ~n:6 ~horizon:15 ~max_length:3 ~seed:5 () in
  let exact = Busy.Placement.optimum_span jobs in
  let greedy = Intervals.span (List.map B.interval_of (Busy.Placement.greedy jobs)) in
  Alcotest.(check bool) "greedy >= exact" true (Q.compare greedy exact >= 0);
  Alcotest.(check bool) "greedy <= 2 exact (sanity)" true (Q.compare greedy (Q.mul Q.two exact) <= 0)

let test_placement_duplicate_ids () =
  (* two jobs share id 1: an answer sorted by id cannot tell them apart *)
  let jobs =
    [ B.of_ints ~id:1 ~release:0 ~deadline:10 ~length:2;
      B.of_ints ~id:1 ~release:5 ~deadline:9 ~length:3;
      B.of_ints ~id:2 ~release:0 ~deadline:4 ~length:4 ]
  in
  Alcotest.check_raises "greedy" (Invalid_argument "Placement.greedy: duplicate job ids") (fun () ->
      ignore (Busy.Placement.greedy jobs));
  Alcotest.check_raises "exact" (Invalid_argument "Placement.exact: duplicate job ids") (fun () ->
      ignore (Busy.Placement.exact jobs))

(* -- pipeline ---------------------------------------------------------------- *)

let test_pipeline_pinned_validation () =
  let jobs = [ B.make ~id:0 ~release:Q.zero ~deadline:(Q.of_int 3) ~length:Q.one ] in
  Alcotest.check_raises "wrong ids" (Invalid_argument "Pipeline.place: pinned placement does not match jobs")
    (fun () ->
      ignore (Busy.Pipeline.run ~g:2 ~placement:(Busy.Pipeline.Pinned [ ij 7 0 1 ]) ~algorithm:Busy.Pipeline.First_fit jobs))

let test_pipeline_greedy_tracking () =
  let jobs = Gen.flexible_jobs ~n:6 ~horizon:15 ~max_length:3 ~seed:9 () in
  let pinned, packing =
    Busy.Pipeline.run ~g:2 ~placement:Busy.Pipeline.Exact_placement ~algorithm:Busy.Pipeline.Greedy_tracking jobs
  in
  Alcotest.(check (option string)) "valid" None (Busy.Bundle.check ~g:2 pinned packing);
  (* Theorem 5 accounting: cost <= OPT_inf + 2 * mass *)
  let opt_inf = Intervals.span (List.map B.interval_of pinned) in
  let bound = Q.add opt_inf (Q.mul Q.two (Busy.Bounds.mass ~g:2 jobs)) in
  Alcotest.(check bool) "within span + 2 mass" true
    (Q.compare (Busy.Bundle.total_busy packing) bound <= 0)

(* -- preemptive --------------------------------------------------------------- *)

let test_preemptive_unbounded_simple () =
  (* paper Theorem 6 greedy on a 2-job instance: job A rigid [0,2), job B
     window [0,4) length 2: open [0,2) for A, B shares it fully. *)
  let jobs =
    [ B.make ~id:0 ~release:Q.zero ~deadline:Q.two ~length:Q.two;
      B.make ~id:1 ~release:Q.zero ~deadline:(Q.of_int 4) ~length:Q.two ]
  in
  let sol = Busy.Preemptive.unbounded jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Preemptive.check jobs sol);
  check_q "cost 2" "2" sol.Busy.Preemptive.cost

let test_preemptive_beats_nonpreemptive () =
  (* preemption wins: long flexible job must straddle a rigid gap *)
  let jobs =
    [ B.make ~id:0 ~release:Q.zero ~deadline:Q.one ~length:Q.one;
      B.make ~id:1 ~release:(Q.of_int 4) ~deadline:(Q.of_int 5) ~length:Q.one;
      B.make ~id:2 ~release:Q.zero ~deadline:(Q.of_int 5) ~length:Q.two ]
  in
  let sol = Busy.Preemptive.unbounded jobs in
  Alcotest.(check (option string)) "valid" None (Busy.Preemptive.check jobs sol);
  (* preemptive: job 2 splits across the two rigid units: cost 2 *)
  check_q "preemptive cost" "2" sol.Busy.Preemptive.cost;
  let nonpreemptive = Busy.Placement.optimum_span jobs in
  Alcotest.(check bool) "beats non-preemptive" true (Q.compare sol.Busy.Preemptive.cost nonpreemptive < 0)

let test_preemptive_bounded () =
  let jobs = List.init 4 (fun id -> B.make ~id ~release:Q.zero ~deadline:Q.two ~length:Q.two) in
  let cost, sol, detail = Busy.Preemptive.bounded ~g:2 jobs in
  Alcotest.(check (option string)) "unbounded part valid" None (Busy.Preemptive.check jobs sol);
  check_q "unbounded cost" "2" sol.Busy.Preemptive.cost;
  (* 4 identical jobs, g=2 : two machines for 2 units each -> 4 *)
  check_q "bounded cost" "4" cost;
  Alcotest.(check bool) "detail covers opened time" true (detail <> [])

(* -- exact bundling ------------------------------------------------------------ *)

let test_exact_bundling () =
  let jobs = [ ij 0 0 2; ij 1 0 2; ij 2 0 2 ] in
  (* g=2: 2 machines, cost 4 *)
  check_q "three identical, g=2" "4" (Busy.Exact.optimum ~g:2 jobs);
  check_q "g=3: one machine" "2" (Busy.Exact.optimum ~g:3 jobs)

let test_exact_parallel_rejects_budget () =
  Alcotest.check_raises "parallel + budget"
    (Invalid_argument "Exact.solve: the parallel split is for the unbudgeted path") (fun () ->
      ignore (Busy.Exact.solve ~budget:(Budget.limited 10) ~parallel:true ~g:2 [ ij 0 0 2 ]))

(* -- properties ------------------------------------------------------------------ *)

let seed_arb = QCheck.int_range 0 100_000

let interval_jobs seed = Gen.interval_jobs ~n:8 ~horizon:16 ~max_length:4 ~seed ()

let prop_packings_valid =
  QCheck.Test.make ~name:"all three algorithms produce valid packings" ~count:60 seed_arb (fun seed ->
      let jobs = interval_jobs seed in
      List.for_all
        (fun g ->
          List.for_all
            (fun solve -> Busy.Bundle.check ~g jobs (solve ~g jobs) = None)
            [ (fun ~g jobs -> Busy.First_fit.solve ~g jobs); (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs); (fun ~g jobs -> Busy.Two_approx.solve ~g jobs) ])
        [ 1; 2; 3 ])

let prop_two_approx_profile_bound =
  QCheck.Test.make ~name:"two-approx cost <= 2 * demand profile" ~count:60
    (QCheck.pair seed_arb (QCheck.int_range 1 4))
    (fun (seed, g) ->
      let jobs = interval_jobs seed in
      let cost = Busy.Bundle.total_busy (Busy.Two_approx.solve ~g jobs) in
      Q.compare cost (Q.mul Q.two (Busy.Bounds.demand_profile ~g jobs)) <= 0)

let prop_ratios_vs_exact =
  QCheck.Test.make ~name:"GT <= 3 OPT, 2-approx <= 2 OPT, FF <= 4 OPT (small)" ~count:25 seed_arb
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:7 ~horizon:12 ~max_length:4 ~seed () in
      let g = 2 in
      let opt = Busy.Exact.optimum ~g jobs in
      let cost solve = Busy.Bundle.total_busy (solve ~g jobs) in
      Q.compare (cost (fun ~g jobs -> Busy.Greedy_tracking.solve ~g jobs)) (Q.mul (Q.of_int 3) opt) <= 0
      && Q.compare (cost (fun ~g jobs -> Busy.Two_approx.solve ~g jobs)) (Q.mul Q.two opt) <= 0
      && Q.compare (cost (fun ~g jobs -> Busy.First_fit.solve ~g jobs)) (Q.mul (Q.of_int 4) opt) <= 0)

let prop_exact_below_heuristics =
  QCheck.Test.make ~name:"exact <= all heuristics and >= best lower bound" ~count:25 seed_arb
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:7 ~horizon:12 ~max_length:4 ~seed () in
      let g = 2 in
      let opt = Busy.Exact.optimum ~g jobs in
      Q.compare opt (Busy.Bundle.total_busy (Busy.First_fit.solve ~g jobs)) <= 0
      && Q.compare opt (Busy.Bundle.total_busy (Busy.Greedy_tracking.solve ~g jobs)) <= 0
      && Q.compare opt (Busy.Bounds.best ~g jobs) >= 0)

(* The root-level split explores the same tree under a shared incumbent;
   the optimum cost it reports is deterministic and must equal the
   sequential search's. *)
let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel split = sequential optimum" ~count:15 seed_arb (fun seed ->
      let jobs = Gen.interval_jobs ~n:7 ~horizon:12 ~max_length:4 ~seed () in
      let g = 2 in
      Q.equal (Busy.Exact.optimum ~parallel:true ~g jobs) (Busy.Exact.optimum ~g jobs))

let prop_kumar_rudra =
  QCheck.Test.make ~name:"Kumar-Rudra: valid and <= 2 x demand profile" ~count:60
    (QCheck.pair seed_arb (QCheck.int_range 1 4))
    (fun (seed, g) ->
      let jobs = interval_jobs seed in
      let packing = Busy.Kumar_rudra.solve ~g jobs in
      Busy.Bundle.check ~g jobs packing = None
      && Q.compare (Busy.Bundle.total_busy packing)
           (Q.mul Q.two (Busy.Bounds.demand_profile ~g jobs))
         <= 0)

let prop_covering_pair =
  QCheck.Test.make ~name:"covering pair: two tracks that jointly cover the support" ~count:60 seed_arb
    (fun seed ->
      let jobs = interval_jobs seed in
      QCheck.assume (jobs <> []);
      let t1, t2 = Busy.Two_approx.covering_track_pair jobs in
      let track l = Intervals.Track.is_track ~interval:B.interval_of l in
      let support = Intervals.Union.of_list (List.map B.interval_of jobs) in
      let union = Intervals.Union.of_list (List.map B.interval_of (t1 @ t2)) in
      track t1 && track t2 && Intervals.Union.equal support union
      (* no job taken twice *)
      && (let ids = List.map (fun (j : B.t) -> j.B.id) (t1 @ t2) in
          List.length (List.sort_uniq compare ids) = List.length ids))

let prop_witness =
  QCheck.Test.make ~name:"Theorem 5 witness: same span, <= 2 live" ~count:60 seed_arb (fun seed ->
      let jobs = interval_jobs seed in
      let packing = Busy.Greedy_tracking.solve ~g:2 jobs in
      List.for_all
        (fun bundle ->
          let w = Busy.Greedy_tracking.witness bundle in
          Q.equal (Busy.Bundle.busy_time bundle) (Intervals.span (List.map B.interval_of w))
          && Busy.Bundle.max_parallel w <= 2)
        packing)

let prop_placement_windows =
  QCheck.Test.make ~name:"placements stay within windows; exact <= greedy" ~count:25 seed_arb
    (fun seed ->
      let jobs = Gen.flexible_jobs ~n:6 ~horizon:14 ~max_length:3 ~seed () in
      let check placed =
        List.for_all2
          (fun (o : B.t) (p : B.t) ->
            B.is_interval p
            && Q.compare o.B.release p.B.release <= 0
            && Q.compare p.B.deadline o.B.deadline <= 0
            && Q.equal o.B.length p.B.length)
          jobs placed
      in
      let e = Busy.Placement.exact jobs and gr = Busy.Placement.greedy jobs in
      check e && check gr
      && Q.compare (Intervals.span (List.map B.interval_of e)) (Intervals.span (List.map B.interval_of gr)) <= 0)

let prop_preemptive =
  QCheck.Test.make ~name:"preemptive: valid, <= nonpreemptive span; bounded <= span+mass" ~count:25
    seed_arb (fun seed ->
      let jobs = Gen.flexible_jobs ~n:6 ~horizon:14 ~max_length:3 ~seed () in
      let sol = Busy.Preemptive.unbounded jobs in
      Busy.Preemptive.check jobs sol = None
      && Q.compare sol.Busy.Preemptive.cost (Busy.Placement.optimum_span jobs) <= 0
      && List.for_all
           (fun g ->
             let cost, _, _ = Busy.Preemptive.bounded ~g jobs in
             Q.compare cost (Q.add sol.Busy.Preemptive.cost (Busy.Bounds.mass ~g jobs)) <= 0
             && Q.compare cost sol.Busy.Preemptive.cost >= 0)
           [ 1; 2; 3 ])

(* Theorem 6's exactness, against the independent LP oracle. *)
let prop_preemptive_exact_vs_lp =
  QCheck.Test.make ~name:"Theorem 6 greedy = LP optimum (unbounded preemptive)" ~count:25 seed_arb
    (fun seed ->
      let jobs = Gen.flexible_jobs ~n:6 ~horizon:14 ~max_length:3 ~seed () in
      let sol = Busy.Preemptive.unbounded jobs in
      Q.equal sol.Busy.Preemptive.cost (Busy.Preemptive.lp_optimum jobs))

let prop_pipeline_bound =
  QCheck.Test.make ~name:"GT pipeline <= OPTinf + 2 mass" ~count:20 seed_arb (fun seed ->
      let jobs = Gen.flexible_jobs ~n:6 ~horizon:14 ~max_length:3 ~seed () in
      List.for_all
        (fun g ->
          let pinned, packing =
            Busy.Pipeline.run ~g ~placement:Busy.Pipeline.Exact_placement
              ~algorithm:Busy.Pipeline.Greedy_tracking jobs
          in
          Busy.Bundle.check ~g pinned packing = None
          &&
          let opt_inf = Intervals.span (List.map B.interval_of pinned) in
          Q.compare (Busy.Bundle.total_busy packing) (Q.add opt_inf (Q.mul Q.two (Busy.Bounds.mass ~g jobs)))
          <= 0)
        [ 1; 2; 3 ])

(* Reference greedy placement: the same search, rebuilding the union of
   the other placed jobs at every step (O(n^2 log n) per pass).
   [Busy.Placement.greedy] must match it start for start. *)
module Reference_placement = struct
  module U = Intervals.Union

  let span_of placed = Intervals.span (List.map B.interval_of placed)

  let candidate_starts (j : B.t) union =
    let lo = j.B.release and hi = B.latest_start j in
    let clamp s = if Q.compare s lo < 0 then None else if Q.compare s hi > 0 then None else Some s in
    let anchors =
      List.concat_map
        (fun (c : I.t) -> [ c.I.lo; c.I.hi; Q.sub c.I.lo j.B.length; Q.sub c.I.hi j.B.length ])
        (U.components union)
    in
    List.sort_uniq Q.compare (lo :: hi :: List.filter_map clamp anchors)

  let place_best union (j : B.t) =
    let best = ref None in
    List.iter
      (fun s ->
        let iv = I.make s (Q.add s j.B.length) in
        let cost = U.marginal union iv in
        match !best with
        | Some (_, c) when Q.compare c cost <= 0 -> ()
        | _ -> best := Some (s, cost))
      (candidate_starts j union);
    match !best with Some (s, _) -> B.place j s | None -> assert false

  let greedy ?(passes = 3) jobs =
    let sorted = List.stable_sort (fun (a : B.t) (b : B.t) -> Q.compare b.B.length a.B.length) jobs in
    let initial =
      List.fold_left
        (fun (placed, union) j ->
          let p = place_best union j in
          (p :: placed, U.add union (B.interval_of p)))
        ([], U.empty) sorted
      |> fst
    in
    (* local search: re-place each job given all the others *)
    let improve placed =
      List.fold_left
        (fun placed (j : B.t) ->
          let others = List.filter (fun (k : B.t) -> k.B.id <> j.B.id) placed in
          let union = U.of_list (List.map B.interval_of others) in
          let original = List.find (fun (o : B.t) -> o.B.id = j.B.id) jobs in
          place_best union original :: others)
        placed jobs
    in
    let rec loop placed k =
      if k = 0 then placed
      else begin
        let placed' = improve placed in
        if Q.compare (span_of placed') (span_of placed) < 0 then loop placed' (k - 1) else placed
      end
    in
    List.sort (fun (a : B.t) (b : B.t) -> compare a.B.id b.B.id) (loop initial passes)
end

(* Flexible jobs with rational data, ids out of input order, and some
   zero-slack (interval) jobs among them. *)
let rational_jobs st =
  let r bound = Q.of_ints (Random.State.int st bound) (1 + Random.State.int st 6) in
  let n = 1 + Random.State.int st 40 in
  List.init n (fun k ->
      let release = r 60 and length = Q.add (r 20) (q 1 7) in
      let slack = if Random.State.int st 4 = 0 then Q.zero else r 30 in
      B.make ~id:(3 * (n - k)) ~release ~deadline:(Q.add release (Q.add length slack)) ~length)

(* serve's two busy families, the generator's flexible jobs, and
   rational data *)
let placement_instance seed =
  let st = Random.State.make [| seed |] in
  let size lo hi = lo + Random.State.int st (hi - lo + 1) in
  match seed mod 4 with
  | 0 -> Gen.diurnal_flexible_jobs ~n:(size 30 120) ~horizon:48 ~max_length:6 ~seed ()
  | 1 -> Gen.interval_jobs ~n:(size 40 120) ~horizon:60 ~max_length:10 ~seed ()
  | 2 -> Gen.flexible_jobs ~n:(size 1 40) ~seed ()
  | _ -> rational_jobs st

let prop_greedy_matches_reference =
  QCheck.Test.make ~name:"greedy placement = reference, passes 0-3" ~count:100 seed_arb (fun seed ->
      let jobs = placement_instance seed in
      let same (a : B.t) (b : B.t) =
        a.B.id = b.B.id && Q.equal a.B.release b.B.release && Q.equal a.B.deadline b.B.deadline
      in
      List.for_all
        (fun passes ->
          List.equal same (Busy.Placement.greedy ~passes jobs) (Reference_placement.greedy ~passes jobs))
        [ 0; 1; 2; 3 ])

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_packings_valid; prop_two_approx_profile_bound; prop_ratios_vs_exact; prop_exact_below_heuristics;
      prop_parallel_matches_sequential;
      prop_covering_pair; prop_kumar_rudra; prop_witness; prop_placement_windows; prop_preemptive;
      prop_preemptive_exact_vs_lp; prop_pipeline_bound; prop_greedy_matches_reference ]

let () =
  Alcotest.run "busy"
    [ ( "bundle",
        [ Alcotest.test_case "busy time" `Quick test_bundle_busy_time;
          Alcotest.test_case "check" `Quick test_bundle_check;
          Alcotest.test_case "bounds" `Quick test_bounds ] );
      ( "first fit",
        [ Alcotest.test_case "basic" `Quick test_first_fit_basic;
          Alcotest.test_case "prefers early bundles" `Quick test_first_fit_prefers_early_bundles;
          Alcotest.test_case "rejects flexible" `Quick test_first_fit_rejects_flexible ] );
      ( "greedy tracking",
        [ Alcotest.test_case "basic" `Quick test_greedy_tracking_basic;
          Alcotest.test_case "max track" `Quick test_max_track_exposed;
          Alcotest.test_case "witness" `Quick test_greedy_tracking_witness ] );
      ( "two approx",
        [ Alcotest.test_case "basic" `Quick test_two_approx_basic;
          Alcotest.test_case "identical jobs" `Quick test_two_approx_identical_jobs;
          Alcotest.test_case "single job" `Quick test_two_approx_single_job;
          Alcotest.test_case "fig8 gadget" `Quick test_two_approx_fig8_gadget ] );
      ( "kumar rudra",
        [ Alcotest.test_case "basic" `Quick test_kumar_rudra_basic;
          Alcotest.test_case "parity regression" `Quick test_kumar_rudra_parity_regression;
          Alcotest.test_case "fig8 gadget" `Quick test_kumar_rudra_fig8 ] );
      ( "placement",
        [ Alcotest.test_case "exact simple" `Quick test_placement_exact_simple;
          Alcotest.test_case "exact forced split" `Quick test_placement_exact_forced_split;
          Alcotest.test_case "greedy sanity" `Quick test_placement_greedy_not_worse_than_double;
          Alcotest.test_case "duplicate ids" `Quick test_placement_duplicate_ids ] );
      ( "pipeline",
        [ Alcotest.test_case "pinned validation" `Quick test_pipeline_pinned_validation;
          Alcotest.test_case "greedy tracking pipeline" `Quick test_pipeline_greedy_tracking ] );
      ( "preemptive",
        [ Alcotest.test_case "unbounded simple" `Quick test_preemptive_unbounded_simple;
          Alcotest.test_case "multi round" `Quick test_preemptive_multi_round;
          Alcotest.test_case "beats non-preemptive" `Quick test_preemptive_beats_nonpreemptive;
          Alcotest.test_case "bounded" `Quick test_preemptive_bounded ] );
      ("exact",
        [ Alcotest.test_case "bundling" `Quick test_exact_bundling;
          Alcotest.test_case "parallel rejects budget" `Quick test_exact_parallel_rejects_budget ]);
      ("properties", props) ]
