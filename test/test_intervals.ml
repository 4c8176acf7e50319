(* Tests for interval geometry: union measure, gaps, demand profiles and
   the weighted-interval-scheduling track DP (checked against brute force on
   random inputs). *)

module Q = Rational
module I = Intervals.Interval
module U = Intervals.Union
module D = Intervals.Demand

let q = Q.of_ints
let iv a b = I.of_ints a b
let qiv a b = I.make a b
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_interval_basics () =
  let a = iv 0 5 in
  check_q "length" "5" (I.length a);
  Alcotest.(check bool) "contains lo" true (I.contains a Q.zero);
  Alcotest.(check bool) "not contains hi" false (I.contains a (Q.of_int 5));
  Alcotest.(check bool) "empty" true (I.is_empty (iv 3 3));
  Alcotest.(check bool) "adjacent do not overlap" false (I.overlaps (iv 0 1) (iv 1 2));
  Alcotest.(check bool) "overlap" true (I.overlaps (iv 0 2) (iv 1 3));
  Alcotest.(check bool) "subset" true (I.subset (iv 1 2) (iv 0 3));
  Alcotest.(check bool) "empty subset of all" true (I.subset (iv 5 5) (iv 0 1));
  (match I.intersect (iv 0 2) (iv 1 3) with
  | Some x -> Alcotest.(check bool) "intersection" true (I.equal x (iv 1 2))
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check (option reject)) "disjoint intersect" None
    (Option.map ignore (I.intersect (iv 0 1) (iv 2 3)));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Intervals.Interval.make: hi < lo") (fun () ->
      ignore (iv 2 1))

let test_union_merge () =
  let u = U.of_list [ iv 0 2; iv 1 3; iv 5 6; iv 6 7; iv 9 9 ] in
  Alcotest.(check int) "components" 2 (List.length (U.components u));
  check_q "measure" "5" (U.measure u);
  Alcotest.(check bool) "point in" true (U.contains_point u (Q.of_int 1));
  Alcotest.(check bool) "point out" false (U.contains_point u (Q.of_int 4));
  Alcotest.(check bool) "adjacent merged" true (U.contains_point u (Q.of_int 6))

let test_union_gaps () =
  let u = U.of_list [ iv 1 2; iv 4 5 ] in
  let gaps = U.gaps u (iv 0 7) in
  Alcotest.(check (list string)) "gaps" [ "[0, 1)"; "[2, 4)"; "[5, 7)" ] (List.map I.to_string gaps);
  Alcotest.(check (list string)) "gaps inside component" [] (List.map I.to_string (U.gaps u (qiv (q 3 2) (q 7 4))));
  check_q "marginal disjoint" "3" (U.marginal u (iv 10 13));
  check_q "marginal overlapping" "2" (U.marginal u (iv 0 3));
  check_q "marginal contained" "0" (U.marginal u (qiv (q 3 2) (q 7 4)))

let test_span () =
  check_q "span empty" "0" (Intervals.span []);
  check_q "span overlap" "3" (Intervals.span [ iv 0 2; iv 1 3 ]);
  check_q "span disjoint" "2" (Intervals.span [ iv 0 1; iv 5 6 ])

let test_demand_cells () =
  (* two overlapping intervals and a hole before a third *)
  let ivs = [ iv 0 2; iv 1 3; iv 5 6 ] in
  let cs = D.cells ivs in
  let render c = Printf.sprintf "%s:%d" (I.to_string c.D.cell) c.D.raw in
  Alcotest.(check (list string)) "cells"
    [ "[0, 1):1"; "[1, 2):2"; "[2, 3):1"; "[3, 5):0"; "[5, 6):1" ]
    (List.map render cs);
  Alcotest.(check int) "support drops holes" 4 (List.length (D.support ivs));
  Alcotest.(check int) "raw_at" 2 (D.raw_at ivs (Q.of_ints 3 2));
  Alcotest.(check int) "max_raw" 2 (D.max_raw ivs)

let test_demand_profile_cost () =
  (* g=2: demands 1,2,1,0,1 -> levels 1,1,1,0,1, lengths 1,1,1,2,1 -> 4 *)
  let ivs = [ iv 0 2; iv 1 3; iv 5 6 ] in
  check_q "profile g=2" "4" (D.profile_cost ~g:2 ivs);
  check_q "profile g=1" "5" (D.profile_cost ~g:1 ivs);
  check_q "mass bound" "5/2" (D.mass_bound ~g:2 ivs);
  Alcotest.check_raises "bad g" (Invalid_argument "Intervals.Demand.profile_cost: g <= 0") (fun () ->
      ignore (D.profile_cost ~g:0 ivs))

let test_track_known () =
  (* classic: [0,3) w3, [2,5) w4, [4,7) w3 -> take first+last = 6 *)
  let items = [ (iv 0 3, q 3 1); (iv 2 5, q 4 1); (iv 4 7, q 3 1) ] in
  let chosen, w = Intervals.Track.max_weight_disjoint ~interval:fst ~weight:snd items in
  check_q "weight" "6" w;
  Alcotest.(check int) "count" 2 (List.length chosen);
  Alcotest.(check bool) "disjoint" true (Intervals.Track.is_track ~interval:fst chosen)

let test_track_adjacent_allowed () =
  let items = [ (iv 0 1, Q.one); (iv 1 2, Q.one); (iv 2 3, Q.one) ] in
  let chosen, w = Intervals.Track.max_weight_disjoint ~interval:fst ~weight:snd items in
  check_q "all three" "3" w;
  Alcotest.(check int) "count" 3 (List.length chosen)

let test_track_empty () =
  let chosen, w = Intervals.Track.max_weight_disjoint ~interval:fst ~weight:snd [] in
  check_q "zero" "0" w;
  Alcotest.(check int) "none" 0 (List.length chosen)

(* GreedyTracking's [interval] allocates and validates on every call, so
   the DP computes each item's interval once, not per comparison and
   binary-search probe. *)
let test_track_interval_once () =
  let items = List.init 12 (fun k -> (iv (k mod 5) ((k mod 5) + 1 + (k mod 3)), q (k + 1) 1)) in
  let calls = ref 0 in
  let interval x =
    incr calls;
    fst x
  in
  ignore (Intervals.Track.max_weight_disjoint ~interval ~weight:snd items);
  Alcotest.(check int) "one call per item" (List.length items) !calls

(* -- properties ---------------------------------------------------------- *)

let ivs_gen =
  let open QCheck.Gen in
  let one = map2 (fun a len -> iv a (a + len)) (int_range 0 20) (int_range 0 6) in
  list_size (int_range 0 10) one

let ivs_arb = QCheck.make ivs_gen ~print:(fun l -> String.concat ";" (List.map I.to_string l))

let prop_union_measure_bounds =
  QCheck.Test.make ~name:"0 <= measure(union) <= sum of lengths" ~count:1000 ivs_arb (fun l ->
      let m = U.measure (U.of_list l) in
      let total = List.fold_left (fun acc i -> Q.add acc (I.length i)) Q.zero l in
      Q.compare m Q.zero >= 0 && Q.compare m total <= 0)

let prop_union_idempotent =
  QCheck.Test.make ~name:"union idempotent and commutative" ~count:1000 (QCheck.pair ivs_arb ivs_arb)
    (fun (a, bq) ->
      let ua = U.of_list a and ub = U.of_list bq in
      U.equal (U.union ua ub) (U.union ub ua) && U.equal (U.union ua ua) ua)

let prop_profile_vs_span_mass =
  QCheck.Test.make ~name:"profile cost between span and span+mass bounds" ~count:1000
    (QCheck.pair ivs_arb (QCheck.int_range 1 4))
    (fun (l, g) ->
      QCheck.assume (l <> []);
      let profile = D.profile_cost ~g l in
      let sp = Intervals.span l in
      let mass = D.mass_bound ~g l in
      (* profile >= span (every support cell counts >= 1 level) and
         profile >= mass (ceil >= exact), profile <= span + mass *)
      Q.compare profile sp >= 0 && Q.compare profile mass >= 0
      && Q.compare profile (Q.add sp mass) <= 0)

let prop_cells_partition =
  QCheck.Test.make ~name:"cells partition the hull; raw matches point samples" ~count:1000 ivs_arb
    (fun l ->
      let l = List.filter (fun i -> not (I.is_empty i)) l in
      QCheck.assume (l <> []);
      let cs = D.cells l in
      (* contiguous, and each cell's raw equals raw_at its midpoint *)
      let contiguous =
        let rec go = function
          | a :: (b :: _ as rest) -> Q.equal a.D.cell.I.hi b.D.cell.I.lo && go rest
          | _ -> true
        in
        go cs
      in
      contiguous
      && List.for_all
           (fun c ->
             let mid = Q.div (Q.add c.D.cell.I.lo c.D.cell.I.hi) Q.two in
             c.D.raw = D.raw_at l mid)
           cs)

let prop_track_optimal_vs_bruteforce =
  QCheck.Test.make ~name:"track DP matches brute force" ~count:600
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 8)
           (map3 (fun a len w -> (iv a (a + len), Q.of_int w)) (int_range 0 15) (int_range 1 5) (int_range 0 9)))
       ~print:(fun l -> String.concat ";" (List.map (fun (i, w) -> I.to_string i ^ "w" ^ Q.to_string w) l)))
    (fun items ->
      let _, w = Intervals.Track.max_weight_disjoint ~interval:fst ~weight:snd items in
      (* brute force over all subsets *)
      let arr = Array.of_list items in
      let n = Array.length arr in
      let best = ref Q.zero in
      for msk = 0 to (1 lsl n) - 1 do
        let subset = List.filteri (fun i _ -> msk land (1 lsl i) <> 0) (Array.to_list arr) in
        if Intervals.Track.is_track ~interval:fst subset then begin
          let wt = List.fold_left (fun acc (_, w) -> Q.add acc w) Q.zero subset in
          if Q.compare wt !best > 0 then best := wt
        end
      done;
      Q.equal w !best)

let prop_track_result_is_track =
  QCheck.Test.make ~name:"track DP returns a track with matching weight" ~count:1000 ivs_arb (fun l ->
      let items = List.map (fun i -> (i, I.length i)) l in
      let chosen, w = Intervals.Track.max_weight_disjoint ~interval:fst ~weight:snd items in
      Intervals.Track.is_track ~interval:fst chosen
      && Q.equal w (List.fold_left (fun acc (_, wt) -> Q.add acc wt) Q.zero chosen))

let prop_gaps_complement =
  QCheck.Test.make ~name:"gaps complement the union inside a window" ~count:1000
    (QCheck.pair ivs_arb (QCheck.pair (QCheck.int_range 0 10) (QCheck.int_range 11 30)))
    (fun (l, (a, b)) ->
      let u = U.of_list l in
      let within = iv a b in
      let gaps = U.gaps u within in
      (* gaps are inside the window, disjoint from the union, and their
         measure plus the union's measure inside the window is |window| *)
      let inside_measure =
        List.fold_left
          (fun acc c ->
            match I.intersect c within with Some x -> Q.add acc (I.length x) | None -> acc)
          Q.zero (U.components u)
      in
      List.for_all (fun gp -> I.subset gp within) gaps
      && List.for_all (fun gp -> not (U.contains_point u gp.I.lo)) gaps
      && Q.equal
           (Q.add inside_measure (List.fold_left (fun acc gp -> Q.add acc (I.length gp)) Q.zero gaps))
           (I.length within))

let prop_marginal_submodular =
  QCheck.Test.make ~name:"marginal is submodular (larger union, smaller marginal)" ~count:1000
    (QCheck.triple ivs_arb ivs_arb (QCheck.pair (QCheck.int_range 0 15) (QCheck.int_range 1 6)))
    (fun (l1, l2, (a, len)) ->
      let u1 = U.of_list l1 in
      let u12 = U.union u1 (U.of_list l2) in
      let piece = iv a (a + len) in
      Q.compare (U.marginal u12 piece) (U.marginal u1 piece) <= 0)

let prop_marginal_consistent =
  QCheck.Test.make ~name:"measure(add u iv) = measure u + marginal u iv" ~count:1000
    (QCheck.pair ivs_arb (QCheck.pair (QCheck.int_range 0 15) (QCheck.int_range 0 6)))
    (fun (l, (a, len)) ->
      let u = U.of_list l in
      let piece = iv a (a + len) in
      Q.equal (U.measure (U.add u piece)) (Q.add (U.measure u) (U.marginal u piece)))

let prop_support_cells =
  QCheck.Test.make ~name:"support = positive cells; hole measure = hull - span" ~count:1000 ivs_arb
    (fun l ->
      let l = List.filter (fun i -> not (I.is_empty i)) l in
      QCheck.assume (l <> []);
      let cells = D.cells l in
      let support = D.support l in
      let cell_measure sel =
        List.fold_left (fun acc c -> Q.add acc (I.length c.D.cell)) Q.zero sel
      in
      List.length support = List.length (List.filter (fun c -> c.D.raw > 0) cells)
      && Q.equal (cell_measure support) (Intervals.span l)
      &&
      let hull = Q.sub (List.fold_left (fun acc i -> Q.max acc i.I.hi) (List.hd l).I.hi l)
                   (List.fold_left (fun acc i -> Q.min acc i.I.lo) (List.hd l).I.lo l) in
      Q.equal (cell_measure cells) hull)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_union_measure_bounds; prop_union_idempotent; prop_profile_vs_span_mass; prop_cells_partition;
      prop_track_optimal_vs_bruteforce; prop_track_result_is_track; prop_gaps_complement;
      prop_marginal_submodular; prop_marginal_consistent; prop_support_cells ]

let () =
  Alcotest.run "intervals"
    [ ( "unit",
        [ Alcotest.test_case "interval basics" `Quick test_interval_basics;
          Alcotest.test_case "union merge" `Quick test_union_merge;
          Alcotest.test_case "union gaps" `Quick test_union_gaps;
          Alcotest.test_case "span" `Quick test_span;
          Alcotest.test_case "demand cells" `Quick test_demand_cells;
          Alcotest.test_case "demand profile cost" `Quick test_demand_profile_cost;
          Alcotest.test_case "track known" `Quick test_track_known;
          Alcotest.test_case "track adjacent allowed" `Quick test_track_adjacent_allowed;
          Alcotest.test_case "track empty" `Quick test_track_empty;
          Alcotest.test_case "track interval once" `Quick test_track_interval_once ] );
      ("properties", props) ]
