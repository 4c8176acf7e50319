(* Tests for instance types, random generators and the paper gadgets:
   structural sanity (counts, windows, rigidity), generator invariants under
   many seeds, and the analytically known quantities of each gadget. *)

module Q = Rational
module S = Workload.Slotted
module B = Workload.Bjob
module Gen = Workload.Generate
module Gad = Workload.Gadgets

let q = Q.of_ints

let test_slotted_job_validation () =
  Alcotest.check_raises "zero length" (Invalid_argument "Slotted.job: length < 1") (fun () ->
      ignore (S.job ~id:0 ~release:0 ~deadline:3 ~length:0));
  Alcotest.check_raises "tight window" (Invalid_argument "Slotted.job: window shorter than length") (fun () ->
      ignore (S.job ~id:0 ~release:0 ~deadline:2 ~length:3));
  Alcotest.check_raises "negative release" (Invalid_argument "Slotted.job: negative release") (fun () ->
      ignore (S.job ~id:0 ~release:(-1) ~deadline:2 ~length:1));
  let j = S.job ~id:7 ~release:2 ~deadline:5 ~length:3 in
  Alcotest.(check (list int)) "window slots" [ 3; 4; 5 ] (S.window_slots j);
  Alcotest.(check bool) "rigid" true (S.is_rigid j);
  Alcotest.(check bool) "live" true (S.is_live j ~slot:3);
  Alcotest.(check bool) "not live" false (S.is_live j ~slot:2)

let test_slotted_instance () =
  let jobs = [ S.job ~id:0 ~release:0 ~deadline:4 ~length:2; S.job ~id:1 ~release:1 ~deadline:6 ~length:3 ] in
  let t = S.make ~g:2 jobs in
  Alcotest.(check int) "n" 2 (S.num_jobs t);
  Alcotest.(check int) "P" 5 (S.total_length t);
  Alcotest.(check int) "T" 6 (S.horizon t);
  Alcotest.(check int) "mass bound" 3 (S.mass_lower_bound t);
  Alcotest.(check (list int)) "relevant slots" [ 1; 2; 3; 4; 5; 6 ] (S.relevant_slots t);
  Alcotest.check_raises "bad g" (Invalid_argument "Slotted.make: g < 1") (fun () -> ignore (S.make ~g:0 jobs))

let test_schedule_check () =
  let jobs = [ S.job ~id:0 ~release:0 ~deadline:4 ~length:2; S.job ~id:1 ~release:0 ~deadline:4 ~length:1 ] in
  let t = S.make ~g:1 jobs in
  Alcotest.(check (option string)) "valid" None (S.check_schedule t [ (0, [ 1; 2 ]); (1, [ 3 ]) ]);
  Alcotest.(check bool) "over capacity detected" true
    (S.check_schedule t [ (0, [ 1; 2 ]); (1, [ 2 ]) ] <> None);
  Alcotest.(check bool) "short job detected" true (S.check_schedule t [ (0, [ 1 ]); (1, [ 3 ]) ] <> None);
  Alcotest.(check bool) "outside window detected" true
    (S.check_schedule t [ (0, [ 1; 5 ]); (1, [ 3 ]) ] <> None);
  Alcotest.(check bool) "missing job detected" true (S.check_schedule t [ (0, [ 1; 2 ]) ] <> None);
  Alcotest.(check (list int)) "active slots" [ 1; 2; 3 ] (S.active_slots [ (0, [ 1; 2 ]); (1, [ 3 ]) ])

let test_bjob () =
  let j = B.make ~id:0 ~release:Q.zero ~deadline:(Q.of_int 5) ~length:Q.two in
  Alcotest.(check bool) "flexible" false (B.is_interval j);
  let p = B.place j (Q.of_int 3) in
  Alcotest.(check bool) "placed is interval" true (B.is_interval p);
  Alcotest.(check string) "placed window" "[3, 5)" (Intervals.Interval.to_string (B.interval_of p));
  Alcotest.check_raises "place too late" (Invalid_argument "Bjob.place: start outside window") (fun () ->
      ignore (B.place j (Q.of_int 4)));
  Alcotest.check_raises "flexible has no interval" (Invalid_argument "Bjob.interval_of: flexible job")
    (fun () -> ignore (B.interval_of j));
  Alcotest.check_raises "zero length" (Invalid_argument "Bjob.make: length <= 0") (fun () ->
      ignore (B.make ~id:0 ~release:Q.zero ~deadline:Q.one ~length:Q.zero))

let test_generators_deterministic () =
  let a = Gen.slotted ~seed:42 () and b = Gen.slotted ~seed:42 () in
  Alcotest.(check bool) "same seed same instance" true (a = b);
  let c = Gen.slotted ~seed:43 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_generator_families () =
  for seed = 0 to 20 do
    let interval = Gen.interval_jobs ~n:10 ~seed () in
    Alcotest.(check bool) "interval jobs are interval" true (List.for_all B.is_interval interval);
    let clique = Gen.clique_interval_jobs ~n:8 ~seed () in
    (* all windows share a common point: max release < min deadline *)
    let max_r = List.fold_left (fun acc j -> Q.max acc j.B.release) (Q.of_int min_int) clique in
    let min_d = List.fold_left (fun acc j -> Q.min acc j.B.deadline) (Q.of_int max_int) clique in
    Alcotest.(check bool) "clique has common point" true (Q.compare max_r min_d < 0);
    let proper = Gen.proper_interval_jobs ~n:8 ~seed () in
    List.iteri
      (fun i ji ->
        List.iteri
          (fun k jk ->
            if i <> k then
              Alcotest.(check bool) "proper: no containment" false
                (Q.compare ji.B.release jk.B.release < 0 && Q.compare jk.B.deadline ji.B.deadline < 0))
          proper)
      proper;
    let laminar = Gen.laminar_interval_jobs ~seed () in
    List.iteri
      (fun i ji ->
        List.iteri
          (fun k jk ->
            if i <> k then begin
              let wi = B.window ji and wk = B.window jk in
              let nested_or_disjoint =
                Intervals.Interval.subset wi wk || Intervals.Interval.subset wk wi
                || not (Intervals.Interval.overlaps wi wk)
              in
              Alcotest.(check bool) "laminar structure" true nested_or_disjoint
            end)
          laminar)
      laminar
  done

let test_gadget_fig3 () =
  let g = 5 in
  let t = Gad.minimal_feasible_tight g in
  Alcotest.(check int) "job count" (2 + (3 * (g - 2))) (S.num_jobs t);
  (* the optimal slot set can carry all units: capacity vs mass *)
  Alcotest.(check int) "opt slots count" g (List.length (Gad.minimal_feasible_tight_opt_slots g));
  Alcotest.(check int) "bad slots count" ((3 * g) - 2) (List.length (Gad.minimal_feasible_tight_bad_slots g));
  Alcotest.(check int) "total work fits g slots" (g * g) (S.total_length t);
  Alcotest.check_raises "g too small" (Invalid_argument "Gadgets.minimal_feasible_tight: needs g >= 3")
    (fun () -> ignore (Gad.minimal_feasible_tight 2))

let test_gadget_figure_one () =
  let jobs = Gad.figure_one () in
  Alcotest.(check int) "seven jobs" 7 (List.length jobs);
  let packing = Gad.figure_one_packing jobs in
  Alcotest.(check int) "two machines" 2 (List.length packing);
  Alcotest.(check (option string)) "valid at g=3" None (Busy.Bundle.check ~g:3 jobs packing);
  (* the displayed packing is in fact optimal *)
  Alcotest.(check bool) "optimal" true
    (Q.equal (Busy.Bundle.total_busy packing) (Busy.Exact.optimum ~g:3 jobs))

let test_gadget_integrality () =
  let g = 4 in
  let t = Gad.integrality_gap g in
  Alcotest.(check int) "jobs" (g * (g + 1)) (S.num_jobs t);
  Alcotest.(check int) "horizon" (2 * g) (S.horizon t);
  (* every job has a 2-slot window *)
  Array.iter (fun j -> Alcotest.(check int) "window" 2 (S.window_size j)) t.S.jobs

let test_gadget_greedy_tracking () =
  let g = 3 in
  let gt = Gad.greedy_tracking_tight ~g ~eps:(q 1 4) in
  Alcotest.(check int) "instance size" ((2 * g * g) + (2 * g)) (List.length gt.Gad.gt_instance);
  Alcotest.(check int) "adversarial size" ((2 * g * g) + (2 * g)) (List.length gt.Gad.gt_adversarial);
  Alcotest.(check bool) "adversarial all placed" true (List.for_all B.is_interval gt.Gad.gt_adversarial);
  (* opt cost = 2g + 2 - eps + O(delta) with delta << eps *)
  let base = Q.sub (Q.of_int ((2 * g) + 2)) (q 1 4) in
  Alcotest.(check bool) "opt cost ~ 2g+2-eps" true
    (Q.compare gt.Gad.gt_opt_cost base >= 0 && Q.compare gt.Gad.gt_opt_cost (Q.add base (q 1 8)) <= 0);
  (* the optimal packing is a valid packing of its own job set *)
  Alcotest.(check (option string)) "opt packing valid" None
    (Busy.Bundle.check ~g (List.concat gt.Gad.gt_opt_packing) gt.Gad.gt_opt_packing);
  (* adversarial placement must still respect each job's window *)
  let windows = List.map (fun j -> (j.B.id, j)) gt.Gad.gt_instance in
  List.iter
    (fun placed ->
      let original = List.assoc placed.B.id windows in
      Alcotest.(check bool) "placement within window" true
        (Q.compare original.B.release placed.B.release <= 0
        && Q.compare placed.B.deadline original.B.deadline <= 0
        && Q.equal placed.B.length original.B.length))
    gt.Gad.gt_adversarial

let test_gadget_two_approx () =
  let ta = Gad.two_approx_tight ~eps:(q 1 10) ~eps':(q 1 20) in
  Alcotest.(check int) "five jobs" 5 (List.length ta.Gad.ta_jobs);
  Alcotest.(check int) "g=2" 2 ta.Gad.ta_g;
  Alcotest.(check string) "opt" "11/10" (Q.to_string ta.Gad.ta_opt_cost);
  (* demand is everywhere 0 or 2 = g, as the appendix requires *)
  let ivs = List.map B.interval_of ta.Gad.ta_jobs in
  List.iter
    (fun c ->
      Alcotest.(check bool) "demand multiple of 2" true
        (c.Intervals.Demand.raw = 0 || c.Intervals.Demand.raw = 2))
    (Intervals.Demand.cells ivs);
  Alcotest.check_raises "bad eps" (Invalid_argument "Gadgets.two_approx_tight: need 0 < eps' < eps < 1")
    (fun () -> ignore (Gad.two_approx_tight ~eps:(q 1 20) ~eps':(q 1 10)))

let test_gadget_dp_profile () =
  let g = 4 in
  let dp = Gad.dp_profile_tight ~g ~eps:(q 1 100) in
  Alcotest.(check int) "instance size" (1 + ((g - 1) * g) + (g - 1)) (List.length dp.Gad.dp_instance);
  Alcotest.(check bool) "adversarial placed" true (List.for_all B.is_interval dp.Gad.dp_adversarial);
  Alcotest.(check bool) "optimal placed" true (List.for_all B.is_interval dp.Gad.dp_optimal);
  (* paper: profile(adversarial) = 2g - 1 + g(g-1)eps; profile(optimal
     structure) ~ g. With eps = 1/100, g = 4: adversarial = 7 + 12/100. *)
  let profile jobs = Intervals.Demand.profile_cost ~g (List.map B.interval_of jobs) in
  Alcotest.(check string) "adversarial profile" "178/25" (Q.to_string (profile dp.Gad.dp_adversarial));
  let ratio = Q.div (profile dp.Gad.dp_adversarial) (profile dp.Gad.dp_optimal) in
  (* ratio -> (2g-1)/g as eps -> 0 (and -> 2 as g grows); g = 4: ~7/4 *)
  Alcotest.(check bool) "ratio approaches (2g-1)/g" true
    (Q.compare ratio (q 8 5) > 0 && Q.compare ratio Q.two < 0)

let test_gadget_four_approx () =
  let g = 3 in
  let fa = Gad.four_approx_tight ~g ~eps:(q 1 10) ~eps':(q 1 30) in
  (* 1 + (g-1)*(g + 2g-2 + 2 + 2) + (g-1) flexible *)
  Alcotest.(check int) "instance size" (1 + ((g - 1) * (g + (2 * g) - 2 + 4)) + (g - 1))
    (List.length fa.Gad.fa_instance);
  Alcotest.(check bool) "adversarial placed" true (List.for_all B.is_interval fa.Gad.fa_adversarial);
  (* gadget small-job cluster must have raw demand 2g at its peak *)
  let ivs = List.map B.interval_of fa.Gad.fa_adversarial in
  Alcotest.(check bool) "peak demand >= 2g" true (Intervals.Demand.max_raw ivs >= 2 * g);
  (* the Fig. 12 certificate is a valid packing of cost ~ 1 + 4(g-1) *)
  Alcotest.(check (option string)) "certificate valid" None
    (Busy.Bundle.check ~g fa.Gad.fa_adversarial fa.Gad.fa_bad_packing);
  let cert = Busy.Bundle.total_busy fa.Gad.fa_bad_packing in
  let base = Q.of_int (1 + (4 * (g - 1))) in
  Alcotest.(check bool) "certificate cost ~ 1+4(g-1)" true
    (Q.compare cert base >= 0 && Q.compare cert (Q.add base Q.one) <= 0)

let test_io_roundtrip () =
  let slotted = Workload.Io.Slotted_instance (Gen.slotted ~seed:5 ()) in
  Alcotest.(check bool) "slotted roundtrip" true
    (Workload.Io.parse_string (Workload.Io.to_string slotted) = slotted);
  let busy = Workload.Io.Busy_instance (Gen.flexible_jobs ~n:6 ~seed:5 ()) in
  Alcotest.(check bool) "busy roundtrip" true
    (Workload.Io.parse_string (Workload.Io.to_string busy) = busy);
  (* rational coordinates survive *)
  let jobs = [ B.make ~id:0 ~release:(q 1 2) ~deadline:(q 7 2) ~length:(q 5 4) ] in
  Alcotest.(check bool) "rational roundtrip" true
    (Workload.Io.parse_string (Workload.Io.to_string (Workload.Io.Busy_instance jobs))
    = Workload.Io.Busy_instance jobs)

let test_io_arrivals () =
  (* the optional trailing [arrival <t>] pair parses on both kinds,
     defaults to 0, and roundtrips through to_string ~arrivals *)
  let text = "slotted\ng 2\njob 0 0 4 2 arrival 3\njob 1 1 5 3\n" in
  (match Workload.Io.parse_string_timed text with
  | Workload.Io.Slotted_instance t, arrivals ->
      Alcotest.(check int) "both jobs parsed" 2 (Array.length t.S.jobs);
      Alcotest.(check int) "explicit arrival" 3 (Workload.Io.arrival arrivals 0);
      Alcotest.(check int) "default arrival" 0 (Workload.Io.arrival arrivals 1);
      Alcotest.(check string) "timed roundtrip" text
        (Workload.Io.to_string ~arrivals (Workload.Io.Slotted_instance t))
  | _ -> Alcotest.fail "expected a slotted instance");
  (match Workload.Io.parse_string_timed "busy\njob 0 0 5/2 1 arrival 2\n" with
  | Workload.Io.Busy_instance [ _ ], arrivals ->
      Alcotest.(check int) "busy arrival" 2 (Workload.Io.arrival arrivals 0)
  | _ -> Alcotest.fail "expected one busy job");
  (* the untimed parse accepts and ignores the directive *)
  (match Workload.Io.parse_string text with
  | Workload.Io.Slotted_instance t -> Alcotest.(check int) "untimed accepts" 2 (Array.length t.S.jobs)
  | _ -> Alcotest.fail "expected a slotted instance");
  (* the timed generator's arrivals never exceed the release *)
  let t, arrivals = Gen.timed_slotted ~seed:11 () in
  Array.iter
    (fun j ->
      let a = Workload.Io.arrival arrivals j.S.id in
      if a < 0 || a > j.S.release then Alcotest.fail "arrival outside [0, release]")
    t.S.jobs

let test_io_errors () =
  let expect_error input =
    match Workload.Io.parse_string input with
    | exception Workload.Io.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted bad input: " ^ input)
  in
  expect_error "job 0 0 3 1"; (* missing header *)
  expect_error "slotted\njob 0 0 3 1"; (* missing g *)
  expect_error "slotted\ng 2\njob 0 0 1 5"; (* window < length *)
  expect_error "slotted\ng 0\n"; (* bad capacity *)
  expect_error "busy\njob 0 zero 3 1"; (* bad rational *)
  expect_error "busy\nfrob 1 2 3"; (* unknown directive *)
  expect_error "slotted\ng 2\njob 0 0 4 2 arrival x"; (* non-integer arrival *)
  expect_error "slotted\ng 2\njob 0 0 4 2 arrival -1"; (* negative arrival *)
  expect_error "slotted\ng 2\njob 0 0 4 2 arrival"; (* missing arrival value *)
  (* comments and blank lines are fine *)
  match Workload.Io.parse_string "# hi\n\nbusy\njob 0 0 3 1 # trailing\n" with
  | Workload.Io.Busy_instance [ _ ] -> ()
  | _ -> Alcotest.fail "comment handling"

(* Solvers key jobs by id, so a repeated id is an error on its line, for
   both instance kinds; the lenient parse skips that line with a
   warning and keeps the first job. *)
let test_io_duplicate_ids () =
  let expect_dup input line =
    match Workload.Io.parse_string input with
    | exception Workload.Io.Parse_error (l, msg) ->
        Alcotest.(check (pair int string)) "strict error" (line, "duplicate job id 0") (l, msg)
    | _ -> Alcotest.fail ("accepted a repeated id: " ^ input)
  in
  expect_dup "slotted\ng 1\njob 0 0 2 2\njob 0 0 2 2\n" 4;
  expect_dup "busy\njob 0 0 5 1\njob 1 0 5 1\njob 0 1 3 2\n" 4;
  (match Workload.Io.parse_string_lenient "slotted\ng 2\njob 0 0 4 2\njob 0 1 3 1\njob 1 0 4 2\n" with
  | Ok (Workload.Io.Slotted_instance t, warnings) ->
      Alcotest.(check (list (pair int string))) "warning" [ (4, "duplicate job id 0") ] warnings;
      Alcotest.(check (list int)) "ids kept" [ 0; 1 ] (Array.to_list (Array.map (fun j -> j.S.id) t.S.jobs));
      Alcotest.(check int) "first job 0 kept" 2 t.S.jobs.(0).S.length
  | _ -> Alcotest.fail "lenient parse of a slotted instance");
  (match Workload.Io.parse_string_lenient "busy\njob 7 0 5 1\njob 7 0 5 2\n" with
  | Ok (Workload.Io.Busy_instance [ j ], [ (3, "duplicate job id 7") ]) ->
      Alcotest.(check string) "first job 7 kept" "1" (Q.to_string j.B.length)
  | _ -> Alcotest.fail "lenient parse of a busy instance");
  (* a line rejected for another reason does not claim its id *)
  match Workload.Io.parse_string_lenient "slotted\ng 2\njob 0 0 1 5\njob 0 0 4 2\n" with
  | Ok (Workload.Io.Slotted_instance t, [ (3, _) ]) ->
      Alcotest.(check int) "later job 0 accepted" 1 (Array.length t.S.jobs)
  | _ -> Alcotest.fail "only the invalid window should warn"

let test_io_whitespace () =
  (* fields may be separated by tabs or any whitespace run, not just
     single spaces *)
  (match Workload.Io.parse_string "slotted\ng\t2\njob\t0\t0\t3\t1\njob 1\t 2  5\t3\n" with
  | Workload.Io.Slotted_instance t ->
      Alcotest.(check int) "g parsed" 2 t.S.g;
      Alcotest.(check int) "both jobs parsed" 2 (Array.length t.S.jobs)
  | _ -> Alcotest.fail "expected a slotted instance");
  (* a tab-separated busy line with a trailing comment *)
  match Workload.Io.parse_string "busy\njob\t0\t0\t3\t3\t# comment\n" with
  | Workload.Io.Busy_instance [ j ] ->
      Alcotest.(check bool) "interval job" true (B.is_interval j)
  | _ -> Alcotest.fail "expected one busy job"

(* properties: random slotted instances are well-formed *)
let prop_slotted_wellformed =
  QCheck.Test.make ~name:"random slotted instances well-formed" ~count:100 (QCheck.int_range 0 10_000)
    (fun seed ->
      let t = Gen.slotted ~seed () in
      Array.for_all
        (fun j ->
          j.S.length >= 1 && j.S.release >= 0 && j.S.deadline - j.S.release >= j.S.length
          && j.S.deadline <= 20)
        t.S.jobs)

let prop_flexible_windows =
  QCheck.Test.make ~name:"flexible generator: window ~ slack_factor * length" ~count:100
    (QCheck.int_range 0 10_000) (fun seed ->
      let jobs = Gen.flexible_jobs ~slack_factor:3 ~seed () in
      List.for_all
        (fun j ->
          let window = Q.sub j.B.deadline j.B.release in
          Q.compare window j.B.length >= 0 && Q.compare window (Q.mul (Q.of_int 3) j.B.length) <= 0)
        jobs)

let props = List.map QCheck_alcotest.to_alcotest [ prop_slotted_wellformed; prop_flexible_windows ]

let () =
  Alcotest.run "workload"
    [ ( "slotted",
        [ Alcotest.test_case "job validation" `Quick test_slotted_job_validation;
          Alcotest.test_case "instance accessors" `Quick test_slotted_instance;
          Alcotest.test_case "schedule check" `Quick test_schedule_check ] );
      ("bjob", [ Alcotest.test_case "busy-time jobs" `Quick test_bjob ]);
      ( "io",
        [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "arrivals" `Quick test_io_arrivals;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "duplicate ids" `Quick test_io_duplicate_ids;
          Alcotest.test_case "tabs and whitespace" `Quick test_io_whitespace ] );
      ( "generators",
        [ Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "families" `Quick test_generator_families ] );
      ( "gadgets",
        [ Alcotest.test_case "fig1 worked example" `Quick test_gadget_figure_one;
          Alcotest.test_case "fig3 minimal feasible" `Quick test_gadget_fig3;
          Alcotest.test_case "integrality gap" `Quick test_gadget_integrality;
          Alcotest.test_case "fig6/7 greedy tracking" `Quick test_gadget_greedy_tracking;
          Alcotest.test_case "fig8 two approx" `Quick test_gadget_two_approx;
          Alcotest.test_case "fig9 dp profile" `Quick test_gadget_dp_profile;
          Alcotest.test_case "fig10 four approx" `Quick test_gadget_four_approx ] );
      ("properties", props) ]
