(* Tests for the observability layer: counter and span semantics of the
   recorder, the deterministic JSON serializer, the FNV-1a instance
   digest — and the two properties the layer exists for: telemetry
   replay (running the same seeded instance twice yields byte-identical
   counter documents) and golden counter snapshots for the bb_hard
   branch-and-bound gadget (counters count solver events, never
   wall-clock, so a diff means the search itself changed). *)

module J = Obs.Json
module Gen = Workload.Generate
module Gad = Workload.Gadgets

(* ------------------------------------------------------------ counters -- *)

let test_counters () =
  let obs = Obs.create () in
  Alcotest.(check (list (pair string int))) "fresh" [] (Obs.counters obs);
  Obs.incr obs "b";
  Obs.add obs "a" 3;
  Obs.incr obs "b";
  Obs.add obs "a" 0;
  Alcotest.(check (list (pair string int)))
    "sorted totals"
    [ ("a", 3); ("b", 2) ]
    (Obs.counters obs);
  Alcotest.(check int) "total ticks" 5 (Obs.total_ticks obs)

let test_negative_add () =
  let obs = Obs.create () in
  Alcotest.check_raises "monotonic" (Invalid_argument "Obs.add: counters are monotonic")
    (fun () -> Obs.add obs "a" (-1))

let test_null_noop () =
  (* the null recorder swallows everything, including span bookkeeping *)
  Obs.add Obs.null "a" 5;
  Alcotest.(check bool) "is_null" true (Obs.is_null Obs.null);
  Alcotest.(check bool) "create not null" false (Obs.is_null (Obs.create ()));
  Alcotest.(check int) "span runs f" 7 (Obs.span Obs.null "s" (fun () -> 7))

(* -------------------------------------------------------------- spans -- *)

let test_span_tree () =
  let obs = Obs.create () in
  Obs.span obs "outer" (fun () ->
      Obs.incr obs "x";
      Obs.span obs "inner" (fun () -> Obs.add obs "x" 2));
  Obs.incr obs "x";
  (* the trailing incr is outside every span *)
  match Obs.span_tree obs with
  | [ { Obs.name = "outer"; ticks = 3; children = [ { Obs.name = "inner"; ticks = 2; children = [] } ] } ] ->
      ()
  | other ->
      Alcotest.failf "unexpected span tree: %s"
        (J.to_string (Obs.spans_to_json obs) ^ Printf.sprintf " (%d roots)" (List.length other))

let test_span_exception () =
  let obs = Obs.create () in
  (try Obs.span obs "boom" (fun () -> failwith "payload") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 1 (List.length (Obs.span_tree obs));
  (* recorder still usable: no dangling open frame *)
  Obs.span obs "after" (fun () -> ());
  Alcotest.(check int) "two roots" 2 (List.length (Obs.span_tree obs))

(* --------------------------------------------------------------- json -- *)

let test_json_rendering () =
  let doc =
    J.Obj
      [ ("b", J.Bool true); ("n", J.Null); ("i", J.Int (-3)); ("s", J.String "a\"b\\c\n\t\x01é");
        ("l", J.List [ J.Int 1; J.Float 0.5 ]) ]
  in
  Alcotest.(check string) "compact deterministic"
    "{\"b\":true,\"n\":null,\"i\":-3,\"s\":\"a\\\"b\\\\c\\n\\t\\u0001é\",\"l\":[1,0.5]}"
    (J.to_string doc)

let test_digest () =
  Alcotest.(check string) "empty" "fnv1a64:cbf29ce484222325" (Obs.digest "");
  Alcotest.(check string) "abc" "fnv1a64:e71fa2190541574b" (Obs.digest "abc");
  Alcotest.(check string) "phrase" "fnv1a64:2476b891391cd2b1" (Obs.digest "active busy time")

(* ----------------------------------------------------------- replay -- *)

(* Two runs of the same seeded instance must produce byte-identical
   telemetry documents: every counter counts solver events, never time. *)
let telemetry_document () =
  let params : Gen.slotted_params = { n = 10; horizon = 16; max_length = 4; slack = 4; g = 2 } in
  let inst = Gen.slotted ~params ~seed:42 () in
  let obs = Obs.create () in
  let _sol, _prov = Active.Cascade.solve ~obs ~limit:2_000 inst in
  J.to_string (J.Obj [ ("counters", Obs.counters_to_json obs); ("spans", Obs.spans_to_json obs) ])

let test_replay_active () =
  Alcotest.(check string) "byte-identical telemetry" (telemetry_document ()) (telemetry_document ())

let busy_telemetry_document () =
  let jobs = Gen.interval_jobs ~n:14 ~horizon:20 ~max_length:5 ~seed:11 () in
  let obs = Obs.create () in
  let _packing, _prov = Busy.Cascade.solve ~obs ~limit:500 ~g:3 jobs in
  J.to_string (J.Obj [ ("counters", Obs.counters_to_json obs); ("spans", Obs.spans_to_json obs) ])

let test_replay_busy () =
  Alcotest.(check string) "byte-identical telemetry" (busy_telemetry_document ())
    (busy_telemetry_document ())

(* ------------------------------------------------------------- golden -- *)

(* Golden counter snapshot for the bb_hard acceptance gadget (also
   printed by bench experiment E19). These numbers are part of the
   observable contract: a change means the branch-and-bound search or
   the flow feasibility oracle explores differently, which must be a
   conscious decision, not an accident. *)
let bb_hard_run ~groups oracle =
  let inst = Gad.bb_hard ~g:2 ~groups ~width:6 in
  let obs = Obs.create () in
  match Active.Exact.solve ~budget:(Budget.limited 1_000_000) ~oracle ~obs inst with
  | Budget.Complete (Some sol) -> (sol, Obs.counters obs)
  | Budget.Complete None -> Alcotest.fail "bb_hard is feasible"
  | Budget.Exhausted _ -> Alcotest.failf "1M ticks suffice for groups=%d" groups

let golden_bb_hard_run oracle =
  let sol, counters = bb_hard_run ~groups:3 oracle in
  Alcotest.(check int) "cost" 6 (Active.Solution.cost sol);
  counters

(* The search-level counters (nodes / flow checks / minimal closures) are
   pinned IDENTICAL across probe modes: both compute exact max flows, so
   the branch-and-bound takes the same decisions either way. Only the
   flow-level telemetry differs — the warm oracle runs ~10x fewer
   augmentations than the per-probe rebuilds. *)
let test_golden_bb_hard () =
  Alcotest.(check (list (pair string int)))
    "golden counters (incremental oracle)"
    [ ("active.exact.flow_checks", 9518);
      ("active.exact.nodes", 16773);
      ("active.minimal.closures", 12);
      ("active.minimal.feasibility_checks", 19);
      ("active.oracle.builds", 2);
      ("active.oracle.checks", 9537);
      ("active.oracle.slot_toggles", 19058);
      ("flow.augment_calls", 9537);
      ("flow.augmentations", 7963);
      ("flow.bfs_rounds", 4618);
      ("flow.drained_units", 7947);
      ("flow.drains", 5170) ]
    (golden_bb_hard_run Active.Feasibility.Incremental)

let test_golden_bb_hard_rebuild () =
  Alcotest.(check (list (pair string int)))
    "golden counters (rebuild baseline)"
    [ ("active.exact.flow_checks", 9518);
      ("active.exact.nodes", 16773);
      ("active.minimal.closures", 12);
      ("active.minimal.feasibility_checks", 19);
      ("flow.augmentations", 83565);
      ("flow.bfs_rounds", 9537);
      ("flow.max_flow_calls", 9537) ]
    (golden_bb_hard_run Active.Feasibility.Rebuild)

(* The incremental oracle keeps one warm flow network per solve; the
   rebuild oracle recomputes every probe's max flow from scratch. Both
   are exact, so at every bb_hard size the searches are identical: same
   optimum and open set, same nodes and flow checks, pinned here as
   (cost, nodes, flow_checks). Groups 4 under Rebuild takes ~1.5 s. *)
let test_oracles_agree () =
  List.iter
    (fun (groups, golden) ->
      let run oracle =
        let sol, counters = bb_hard_run ~groups oracle in
        let counter name = Option.value (List.assoc_opt name counters) ~default:0 in
        ( (Active.Solution.cost sol, counter "active.exact.nodes", counter "active.exact.flow_checks"),
          sol.Active.Solution.open_slots )
      in
      let inc, inc_open = run Active.Feasibility.Incremental in
      let reb, reb_open = run Active.Feasibility.Rebuild in
      let name = Printf.sprintf "groups=%d" groups in
      Alcotest.(check (triple int int int)) (name ^ " incremental") golden inc;
      Alcotest.(check (triple int int int)) (name ^ " rebuild") golden reb;
      Alcotest.(check (list int)) (name ^ " open slots agree") inc_open reb_open)
    [ (2, (4, 795, 456)); (3, (6, 16773, 9518)); (4, (8, 346217, 195573)) ]

(* Golden LP counters for the warm-started ILP branch-and-bound on the
   Section 3.5 integrality-gap gadget (LP1 is fractional there, so the
   search must branch). Pins the simplex work profile of the revised
   engine: total/phase-1/degenerate pivot counts, bound flips (upper
   bounds handled without pivoting) and warm starts (solves that re-entered
   phase 2 from the parent basis; the remainder fell back to a cold
   start). A diff means the LP engine's pivot sequence changed, which
   must be a conscious decision, not an accident.

   Refreshed for 1.9.0, when the revised engine retired its private dense
   tableau onto the sparse LU driver: the pivot sequence is untouched
   (pivots / phase-1 / degenerate / bound flips / warm starts all
   unchanged) but the work counters now reflect sparse algebra —
   exact_cells fell 13825 -> 3952 and the LU telemetry
   (refactorizations / eta_updates / fill_nonzeros) appears.

   Refreshed again when LP1 became the cut loop over y: every node
   solves the y-only model from its parent's basis, with the rows found
   anywhere in the tree, so phase 1 never runs (39 -> 0 phase-1 pivots,
   47 -> 13 pivots, 3952 -> 804 exact cells); warm starts count the
   nodes whose model gained no row since their parent. The loop's own
   counters are pinned next to them.

   Refreshed again when the dual simplex began to keep its reduced
   costs: a warm start prices once and the dual repair updates that
   row from one BTRAN per pivot instead of re-pricing every column, so
   every pivot is the same and only the work moved. Exact cells fell
   804 -> 693. Priced columns rose 42 -> 86: the warm start's full
   pricing is counted also when the dual check or the repair ends the
   solve (+24), and each dual pivot counts the columns its row update
   reaches, as a primal pivot does (+20).

   Refreshed again when a warm or [?start] solve began to resume from
   its model's last optimum: it still factors its basis, but keeps that
   optimum's reduced costs and basic values instead of pricing every
   column and solving x_B (the rows appended since have zero duals and
   reach no old row). A node's branching bounds drop that optimum, so
   only the cut rounds after a node's first solve resume. Every pivot,
   flip, warm start, round, refactorization and fill nonzero is the
   same; priced columns 86 -> 80, exact cells 693 -> 672.

   Refreshed again when a bound move stopped dropping that optimum: a
   node's first solve resumes too, moving x_B by one FTRAN of the moved
   columns' change and keeping the reduced costs, and a solve whose
   model gained no row since keeps the optimum's LU factors, eta file
   included. Every pivot, flip, eta update, solve, warm start and round
   is the same; refactorizations 10 -> 6, fill nonzeros 239 -> 139,
   priced columns 80 -> 56, exact cells 672 -> 490. *)
let test_golden_lp_counters () =
  let inst = Gad.integrality_gap 3 in
  let obs = Obs.create () in
  (match Active.Ilp.solve ~budget:(Budget.limited 2_000_000) ~obs inst with
  | Budget.Complete (Some sol) -> Alcotest.(check int) "cost" 6 (Active.Solution.cost sol)
  | Budget.Complete None -> Alcotest.fail "integrality_gap 3 is feasible"
  | Budget.Exhausted _ -> Alcotest.fail "2M ticks suffice for g=3");
  let lp_only = List.filter (fun (k, _) -> String.length k > 3 && String.sub k 0 3 = "lp.") (Obs.counters obs) in
  Alcotest.(check (list (pair string int)))
    "golden LP counters"
    [ ("lp.bound_flips", 3);
      ("lp.degenerate_pivots", 3);
      ("lp.eta_updates", 13);
      ("lp.exact_cells", 490);
      ("lp.fill_nonzeros", 139);
      ("lp.pivots", 13);
      (* after each pivot, primal or dual, the reduced-cost row is
         updated row-wise: only the nonbasic columns that the nonzero
         rows of rho = B^-T e_r reach are counted, plus every nonbasic
         column once per phase when the row is priced in full *)
      ("lp.priced_columns", 56);
      ("lp.refactorizations", 6);
      ("lp.solves", 10);
      ("lp.warm_starts", 4) ]
    lp_only;
  let counter name = Option.value (List.assoc_opt name (Obs.counters obs)) ~default:0 in
  Alcotest.(check (pair int int))
    "golden cut-loop counters (rounds, cuts)" (10, 3)
    (counter "active.lp1.rounds", counter "active.lp1.cuts");
  (* the ILP counts every LP solve of its nodes' cut loops *)
  Alcotest.(check int) "active.ilp.lp_solves = lp.solves" (counter "lp.solves")
    (counter "active.ilp.lp_solves")

(* -------------------------------------------------------------- suite -- *)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "totals and order" `Quick test_counters;
          Alcotest.test_case "negative add rejected" `Quick test_negative_add;
          Alcotest.test_case "null recorder" `Quick test_null_noop;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and ticks" `Quick test_span_tree;
          Alcotest.test_case "closed on exception" `Quick test_span_exception;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "digest" `Quick test_digest;
        ] );
      ( "replay",
        [
          Alcotest.test_case "active cascade" `Quick test_replay_active;
          Alcotest.test_case "busy cascade" `Quick test_replay_busy;
        ] );
      ( "golden",
        [ Alcotest.test_case "bb_hard counters" `Slow test_golden_bb_hard;
          Alcotest.test_case "bb_hard counters (rebuild)" `Slow test_golden_bb_hard_rebuild;
          Alcotest.test_case "bb_hard oracles agree (groups 2-4)" `Slow test_oracles_agree;
          Alcotest.test_case "lp counters (warm-started ilp)" `Quick test_golden_lp_counters ] );
    ]
