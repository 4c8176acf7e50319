(* Tests for the Dinic max-flow substrate: textbook instances, bipartite
   matching, min-cut certification and path decomposition, plus properties
   (max-flow = min-cut capacity, conservation) on random graphs. *)

let test_single_edge () =
  let g = Flow.create 2 in
  let e = Flow.add_edge g ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "value" 5 (Flow.max_flow g ~source:0 ~sink:1);
  Alcotest.(check int) "edge flow" 5 (Flow.flow g e)

let test_series_parallel () =
  let g = Flow.create 4 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:3 in
  let _ = Flow.add_edge g ~src:0 ~dst:2 ~cap:2 in
  let _ = Flow.add_edge g ~src:1 ~dst:3 ~cap:2 in
  let _ = Flow.add_edge g ~src:2 ~dst:3 ~cap:3 in
  let _ = Flow.add_edge g ~src:1 ~dst:2 ~cap:5 in
  (* 3 units via vertex 1 (one rerouted 1->2->3), 2 via vertex 2: value 5 *)
  Alcotest.(check int) "value" 5 (Flow.max_flow g ~source:0 ~sink:3)

let test_needs_residual () =
  (* Classic instance where a greedy augmenting path must be undone via the
     residual edge. *)
  let g = Flow.create 4 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:1 in
  let _ = Flow.add_edge g ~src:0 ~dst:2 ~cap:1 in
  let _ = Flow.add_edge g ~src:1 ~dst:2 ~cap:1 in
  let _ = Flow.add_edge g ~src:1 ~dst:3 ~cap:1 in
  let _ = Flow.add_edge g ~src:2 ~dst:3 ~cap:1 in
  Alcotest.(check int) "value" 2 (Flow.max_flow g ~source:0 ~sink:3)

let test_disconnected () =
  let g = Flow.create 3 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:7 in
  Alcotest.(check int) "no path" 0 (Flow.max_flow g ~source:0 ~sink:2)

let test_zero_capacity () =
  let g = Flow.create 2 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:0 in
  Alcotest.(check int) "zero cap" 0 (Flow.max_flow g ~source:0 ~sink:1)

let test_bipartite_matching () =
  (* 3x3 bipartite: perfect matching exists *)
  let g = Flow.create 8 in
  let s = 6 and t = 7 in
  for i = 0 to 2 do
    ignore (Flow.add_edge g ~src:s ~dst:i ~cap:1);
    ignore (Flow.add_edge g ~src:(3 + i) ~dst:t ~cap:1)
  done;
  List.iter
    (fun (a, bb) -> ignore (Flow.add_edge g ~src:a ~dst:(3 + bb) ~cap:1))
    [ (0, 0); (0, 1); (1, 1); (1, 2); (2, 0) ];
  Alcotest.(check int) "perfect matching" 3 (Flow.max_flow g ~source:s ~sink:t)

let test_min_cut () =
  let g = Flow.create 4 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:10 in
  let _ = Flow.add_edge g ~src:1 ~dst:2 ~cap:1 in
  let _ = Flow.add_edge g ~src:2 ~dst:3 ~cap:10 in
  let v = Flow.max_flow g ~source:0 ~sink:3 in
  Alcotest.(check int) "bottleneck" 1 v;
  let side = Flow.min_cut g ~source:0 in
  Alcotest.(check (list bool)) "cut side" [ true; true; false; false ] (Array.to_list side)

let test_reset_and_set_cap () =
  let g = Flow.create 2 in
  let e = Flow.add_edge g ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "first" 5 (Flow.max_flow g ~source:0 ~sink:1);
  (* reset-free: raising the cap keeps the 5 routed units in place *)
  Flow.set_cap g e 8;
  Alcotest.(check int) "flow preserved" 5 (Flow.flow g e);
  Alcotest.(check int) "headroom augments" 3 (Flow.augment g ~source:0 ~sink:1);
  Alcotest.check_raises "cap below flow" (Invalid_argument "Flow.set_cap: capacity below current flow; drain_edge first")
    (fun () -> Flow.set_cap g e 3);
  Flow.reset g;
  Alcotest.(check int) "flow zeroed" 0 (Flow.flow g e);
  Flow.set_cap g e 3;
  Alcotest.(check int) "after set_cap" 3 (Flow.max_flow g ~source:0 ~sink:1)

let test_drain_edge () =
  (* diamond: 0 -> {1,2} -> 3, middle edge carries half the flow *)
  let g = Flow.create 4 in
  let a = Flow.add_edge g ~src:0 ~dst:1 ~cap:2 in
  let b = Flow.add_edge g ~src:0 ~dst:2 ~cap:1 in
  let c = Flow.add_edge g ~src:1 ~dst:3 ~cap:2 in
  let d = Flow.add_edge g ~src:2 ~dst:3 ~cap:1 in
  Alcotest.(check int) "max flow" 3 (Flow.max_flow g ~source:0 ~sink:3);
  Alcotest.(check int) "drained" 2 (Flow.drain_edge g c ~source:0 ~sink:3);
  Alcotest.(check int) "edge emptied" 0 (Flow.flow g c);
  Alcotest.(check int) "tail side cancelled" 0 (Flow.flow g a);
  Alcotest.(check int) "untouched branch" 1 (Flow.flow g b);
  Alcotest.(check int) "untouched branch out" 1 (Flow.flow g d);
  (* close the edge, reopen with a smaller cap, re-augment to the new max *)
  Flow.set_cap g c 0;
  Alcotest.(check int) "closed: nothing to push" 0 (Flow.augment g ~source:0 ~sink:3);
  Flow.set_cap g c 1;
  Alcotest.(check int) "reopened: one unit back" 1 (Flow.augment g ~source:0 ~sink:3);
  (* draining an edge with no routed flow is a free no-op *)
  let g2 = Flow.create 2 in
  let e2 = Flow.add_edge g2 ~src:0 ~dst:1 ~cap:4 in
  Alcotest.(check int) "drain flowless edge" 0 (Flow.drain_edge g2 e2 ~source:0 ~sink:1)

let test_incremental_max_flow () =
  let g = Flow.create 2 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:5 in
  Alcotest.(check int) "first call" 5 (Flow.max_flow g ~source:0 ~sink:1);
  Alcotest.(check int) "second call adds nothing" 0 (Flow.max_flow g ~source:0 ~sink:1)

let test_decompose_paths () =
  let g = Flow.create 4 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:2 in
  let _ = Flow.add_edge g ~src:0 ~dst:2 ~cap:1 in
  let _ = Flow.add_edge g ~src:1 ~dst:3 ~cap:2 in
  let _ = Flow.add_edge g ~src:2 ~dst:3 ~cap:1 in
  let v = Flow.max_flow g ~source:0 ~sink:3 in
  let paths = Flow.decompose_paths g ~source:0 ~sink:3 in
  let total = List.fold_left (fun acc (_, a) -> acc + a) 0 paths in
  Alcotest.(check int) "decomposition covers flow" v total;
  List.iter
    (fun (vs, a) ->
      Alcotest.(check bool) "positive amount" true (a > 0);
      Alcotest.(check int) "starts at source" 0 (List.hd vs);
      Alcotest.(check int) "ends at sink" 3 (List.nth vs (List.length vs - 1)))
    paths

(* Edges may be added after a flow run: the next augment, min cut, drain
   and path decomposition all walk them. *)
let test_edges_after_flow () =
  let g = Flow.create 4 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:2 in
  let _ = Flow.add_edge g ~src:1 ~dst:3 ~cap:1 in
  Alcotest.(check int) "first run" 1 (Flow.max_flow g ~source:0 ~sink:3);
  let c = Flow.add_edge g ~src:1 ~dst:2 ~cap:1 in
  let d = Flow.add_edge g ~src:2 ~dst:3 ~cap:1 in
  Alcotest.(check int) "augment takes the new route" 1 (Flow.augment g ~source:0 ~sink:3);
  Alcotest.(check (pair int int)) "new arcs carry it" (1, 1) (Flow.flow g c, Flow.flow g d);
  (* 0->1 is saturated; only the new arc 0->2 leads on, and back over 2->1 *)
  let e = Flow.add_edge g ~src:0 ~dst:2 ~cap:3 in
  Alcotest.(check (list bool)) "min cut sees the new arc" [ true; true; true; false ]
    (Array.to_list (Flow.min_cut g ~source:0));
  let f = Flow.add_edge g ~src:2 ~dst:3 ~cap:2 in
  Alcotest.(check int) "augment over both new arcs" 2 (Flow.augment g ~source:0 ~sink:3);
  let _ = Flow.add_edge g ~src:0 ~dst:3 ~cap:1 in
  let paths = Flow.decompose_paths g ~source:0 ~sink:3 in
  Alcotest.(check int) "decomposition covers the flow" 4 (List.fold_left (fun acc (_, a) -> acc + a) 0 paths);
  Alcotest.(check bool) "a path uses the added arcs" true (List.mem ([ 0; 2; 3 ], 2) paths);
  Alcotest.(check int) "drain walks back over the new arc" 2 (Flow.drain_edge g f ~source:0 ~sink:3);
  Alcotest.(check int) "its tail side cancelled" 0 (Flow.flow g e);
  Alcotest.(check int) "the new edge is seen by the next run" 3 (Flow.augment g ~source:0 ~sink:3)

(* Every walk takes a vertex's arcs newest first, so of two equal routes
   the one added last carries the flow. Schedules read the flow off
   G_feas arc by arc, so this order is pinned. *)
let test_newest_first () =
  let g = Flow.create 5 in
  let _ = Flow.add_edge g ~src:0 ~dst:1 ~cap:1 in
  let old_arc = Flow.add_edge g ~src:1 ~dst:2 ~cap:1 in
  let new_arc = Flow.add_edge g ~src:1 ~dst:3 ~cap:1 in
  let _ = Flow.add_edge g ~src:2 ~dst:4 ~cap:1 in
  let _ = Flow.add_edge g ~src:3 ~dst:4 ~cap:1 in
  Alcotest.(check int) "value" 1 (Flow.max_flow g ~source:0 ~sink:4);
  Alcotest.(check (pair int int)) "newest arc routes" (0, 1) (Flow.flow g old_arc, Flow.flow g new_arc)

let test_invalid_args () =
  let g = Flow.create 2 in
  Alcotest.check_raises "negative cap" (Invalid_argument "Flow.add_edge: negative capacity") (fun () ->
      ignore (Flow.add_edge g ~src:0 ~dst:1 ~cap:(-1)));
  Alcotest.check_raises "bad vertex" (Invalid_argument "Flow.add_edge: vertex out of range") (fun () ->
      ignore (Flow.add_edge g ~src:0 ~dst:5 ~cap:1));
  Alcotest.check_raises "source=sink" (Invalid_argument "Flow.max_flow: source = sink") (fun () ->
      ignore (Flow.max_flow g ~source:0 ~sink:0))

(* -- warm sequences -------------------------------------------------------- *)

(* One step of a warm sequence. Edge indices are taken modulo the number
   of edges added so far; [Set_cap] drains first when the new capacity
   sits below the routed flow, as [Feasibility.Oracle] does. *)
type op = Max_flow | Augment | Set_cap of int * int | Drain of int | Min_cut | Add of int * int * int | Decompose

(* A graph under test and its edges, (tail, head, handle) in the order
   they were added. *)
type warm = { g : Flow.t; mutable edges : (int * int * Flow.edge) array }

let add_edge w a b c = if a <> b then w.edges <- Array.append w.edges [| (a, b, Flow.add_edge w.g ~src:a ~dst:b ~cap:c) |]

(* [n] vertices and [m] random edges, self-loops dropped *)
let random_warm rng ~n ~m =
  let w = { g = Flow.create n; edges = [||] } in
  for _ = 1 to m do
    let a = Random.State.int rng n and b = Random.State.int rng n in
    add_edge w a b (Random.State.int rng 9)
  done;
  w

(* The same edges and current capacities, no flow, no walk run yet. *)
let fresh_copy w ~n =
  let c = { g = Flow.create n; edges = [||] } in
  Array.iter (fun (a, b, e) -> add_edge c a b (Flow.cap w.g e)) w.edges;
  c

(* Apply [op] with source 0 and sink n-1; the string is its answer. *)
let apply ?obs w ~n op =
  let source = 0 and sink = n - 1 in
  let edge k =
    let _, _, e = w.edges.(k mod Array.length w.edges) in
    e
  in
  match op with
  | Max_flow -> string_of_int (Flow.max_flow ?obs w.g ~source ~sink)
  | Augment -> string_of_int (Flow.augment ?obs w.g ~source ~sink)
  | Set_cap (k, c) when w.edges <> [||] ->
      let e = edge k in
      let drained = if c < Flow.flow w.g e then Flow.drain_edge ?obs w.g e ~source ~sink else 0 in
      Flow.set_cap w.g e c;
      string_of_int drained
  | Drain k when w.edges <> [||] -> string_of_int (Flow.drain_edge ?obs w.g (edge k) ~source ~sink)
  | Set_cap _ | Drain _ -> "-"
  | Min_cut ->
      String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list (Flow.min_cut w.g ~source)))
  | Add (a, b, c) ->
      add_edge w a b c;
      "+"
  | Decompose ->
      String.concat ";"
        (List.map
           (fun (vs, amount) -> Printf.sprintf "%s:%d" (String.concat "," (List.map string_of_int vs)) amount)
           (Flow.decompose_paths w.g ~source ~sink))

let flows w = List.map (fun (_, _, e) -> Flow.flow w.g e) (Array.to_list w.edges)

let random_op rng ~n =
  let int = Random.State.int rng in
  match int 7 with
  | 0 -> Max_flow
  | 1 -> Augment
  | 2 -> Set_cap (int 1000, int 9)
  | 3 | 4 -> Drain (int 1000)
  | 5 -> Min_cut
  | _ -> Add (int n, int n, int 9)

(* Flow's warm behaviour, pinned: 200 seeded sequences of 40 steps
   (max_flow, augment, set_cap, drain_edge, min_cut, and edges added
   between runs) on graphs of 4-12 vertices; per step, the answer and
   every edge's flow, and per sequence the flow.* counters. Which max
   flow comes back, and how many phases and paths it takes, is part of
   the contract (arc order, see flow.mli), so a change to the walks
   that moves any of them moves this digest. *)
let test_warm_sequences_pinned () =
  let buf = Buffer.create 65536 in
  for seed = 1 to 200 do
    let rng = Random.State.make [| seed |] in
    let n = 4 + Random.State.int rng 9 in
    let w = random_warm rng ~n ~m:(3 * n) in
    let obs = Obs.create () in
    for _ = 1 to 40 do
      let answer = apply ~obs w ~n (random_op rng ~n) in
      Printf.bprintf buf "%s|%s\n" answer (String.concat " " (List.map string_of_int (flows w)))
    done;
    List.iter (fun (k, v) -> Printf.bprintf buf "%s=%d\n" k v) (Obs.counters obs)
  done;
  Alcotest.(check string) "digest" "fnv1a64:9a27f3322e15e47d" (Obs.digest (Buffer.contents buf))

(* Many drains on one graph leave its walk scratch clean. Each trial
   zeroes the flow, pushes a max flow and runs a random mix of drains,
   capacity changes, augmentations, min cuts and path decompositions
   (which walk the same scratch), in lockstep with a fresh graph of the
   same edges and capacities; after every step the two give the same
   answer and carry the same flow on every edge. The reused graph keeps
   whatever scratch every earlier trial left; the fresh one has none. *)
let test_drains_leave_scratch_clean () =
  for seed = 1 to 100 do
    let rng = Random.State.make [| seed |] in
    let n = 4 + Random.State.int rng 9 in
    let w = random_warm rng ~n ~m:(4 * n) in
    for trial = 1 to 20 do
      Flow.reset w.g;
      let c = fresh_copy w ~n in
      let step op =
        let a = apply w ~n op and b = apply c ~n op in
        if a <> b || flows w <> flows c then
          Alcotest.failf "seed %d, trial %d: reused graph answered %s, fresh graph %s" seed trial a b
      in
      step Max_flow;
      for _ = 1 to 15 do
        let int = Random.State.int rng in
        step
          (match int 7 with
          | 0 -> Augment
          | 1 -> Set_cap (int 1000, int 9)
          | 2 -> Min_cut
          | 3 -> Decompose
          | _ -> Drain (int 1000))
      done
    done
  done

(* A drain whose walk meets a cycle of flow cancels the cycle and walks
   again. Augmenting s->v->u->t over the edge v->u, added after u->v,
   leaves one unit circling u->v->u (newest arc first); draining s->u
   walks forward from u over u->v and v->u back to u. Each walk resets
   its scratch, also the one cut short by the cycle: run from zero flow
   again, the graph drains s->u->v->t as a fresh graph does. *)
let test_drain_cancels_a_cycle () =
  let s = 0 and u = 1 and v = 2 and t = 3 in
  let edges = [| (s, u, 1); (u, t, 0); (u, v, 1); (v, t, 1); (s, v, 0); (v, u, 0) |] in
  let build () =
    let g = Flow.create 4 in
    (g, Array.map (fun (a, b, c) -> Flow.add_edge g ~src:a ~dst:b ~cap:c) edges)
  in
  let g, e = build () in
  let flows g e = Array.to_list (Array.map (Flow.flow g) e) in
  Alcotest.(check int) "s->u->v->t" 1 (Flow.max_flow g ~source:s ~sink:t);
  List.iter (fun k -> Flow.set_cap g e.(k) 1) [ 1; 4; 5 ];
  Alcotest.(check int) "s->v->u->t" 1 (Flow.augment g ~source:s ~sink:t);
  Alcotest.(check (list int)) "one unit circles u->v->u" [ 1; 1; 1; 1; 1; 1 ] (flows g e);
  Alcotest.(check int) "drained" 1 (Flow.drain_edge g e.(0) ~source:s ~sink:t);
  Alcotest.(check (list int)) "cycle cancelled, then u->t drained" [ 0; 0; 0; 1; 1; 0 ] (flows g e);
  Flow.reset g;
  List.iter (fun k -> Flow.set_cap g e.(k) 0) [ 1; 4; 5 ];
  let fresh, fe = build () in
  List.iter
    (fun (g, e) ->
      ignore (Flow.max_flow g ~source:s ~sink:t);
      ignore (Flow.drain_edge g e.(0) ~source:s ~sink:t))
    [ (g, e); (fresh, fe) ];
  Alcotest.(check (list int)) "same as a fresh graph" (flows fresh fe) (flows g e)

(* -- properties on random layered graphs --------------------------------- *)

type rand_graph = { n : int; edges : (int * int * int) list }

let graph_gen =
  let open QCheck.Gen in
  let* n = int_range 4 12 in
  let* m = int_range 3 30 in
  let edge = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 8) in
  let* edges = list_size (return m) edge in
  let edges = List.filter (fun (a, b, _) -> a <> b) edges in
  return { n; edges }

let graph_arb =
  QCheck.make graph_gen ~print:(fun g ->
      Printf.sprintf "n=%d [%s]" g.n
        (String.concat "; " (List.map (fun (a, b, c) -> Printf.sprintf "%d->%d:%d" a b c) g.edges)))

let build g =
  let fg = Flow.create g.n in
  let handles = List.map (fun (a, b, c) -> ((a, b, c), Flow.add_edge fg ~src:a ~dst:b ~cap:c)) g.edges in
  (fg, handles)

let prop_maxflow_mincut =
  QCheck.Test.make ~name:"max-flow = min-cut" ~count:1000 graph_arb (fun g ->
      QCheck.assume (g.n >= 2);
      let fg, handles = build g in
      let v = Flow.max_flow fg ~source:0 ~sink:(g.n - 1) in
      let side = Flow.min_cut fg ~source:0 in
      (not side.(g.n - 1))
      &&
      let cut_cap =
        List.fold_left
          (fun acc ((a, b, c), _) -> if side.(a) && not side.(b) then acc + c else acc)
          0 handles
      in
      v = cut_cap)

let prop_conservation =
  QCheck.Test.make ~name:"flow conservation and capacity constraints" ~count:1000 graph_arb (fun g ->
      QCheck.assume (g.n >= 2);
      let fg, handles = build g in
      let v = Flow.max_flow fg ~source:0 ~sink:(g.n - 1) in
      let net = Array.make g.n 0 in
      List.for_all
        (fun ((a, b, c), e) ->
          let f = Flow.flow fg e in
          net.(a) <- net.(a) - f;
          net.(b) <- net.(b) + f;
          f >= 0 && f <= c)
        handles
      &&
      let ok = ref true in
      Array.iteri (fun i x -> if i <> 0 && i <> g.n - 1 && x <> 0 then ok := false) net;
      !ok && net.(g.n - 1) = v && net.(0) = -v)

let prop_decompose_total =
  QCheck.Test.make ~name:"path decomposition sums to flow value" ~count:1000 graph_arb (fun g ->
      QCheck.assume (g.n >= 2);
      let fg, _ = build g in
      let v = Flow.max_flow fg ~source:0 ~sink:(g.n - 1) in
      let paths = Flow.decompose_paths fg ~source:0 ~sink:(g.n - 1) in
      let total = List.fold_left (fun acc (_, a) -> acc + a) 0 paths in
      total = v
      && List.for_all
           (fun (vs, a) ->
             a > 0 && List.hd vs = 0
             && List.nth vs (List.length vs - 1) = g.n - 1
             && List.length (List.sort_uniq compare vs) = List.length vs)
           paths)

(* The incremental-oracle contract at the flow layer: after ANY sequence
   of capacity retargets on a warm graph (draining first when the new cap
   sits below the routed flow), re-augmenting reaches exactly the max
   flow of a freshly built graph with the same capacities. *)
let prop_warm_reuse =
  QCheck.Test.make ~name:"warm set_cap/drain/augment = fresh rebuild" ~count:500
    QCheck.(pair graph_arb (small_list (pair small_nat small_nat)))
    (fun (g, toggles) ->
      QCheck.assume (g.n >= 2 && g.edges <> []);
      let source = 0 and sink = g.n - 1 in
      let fg, handles = build g in
      let handles = Array.of_list handles in
      let caps = Array.map (fun ((_, _, c), _) -> c) handles in
      let value = ref (Flow.max_flow fg ~source ~sink) in
      List.for_all
        (fun (ei, c) ->
          let ei = ei mod Array.length handles in
          let c = c mod 9 in
          let e = snd handles.(ei) in
          if c < Flow.flow fg e then value := !value - Flow.drain_edge fg e ~source ~sink;
          Flow.set_cap fg e c;
          caps.(ei) <- c;
          value := !value + Flow.augment fg ~source ~sink;
          let fresh = Flow.create g.n in
          Array.iteri
            (fun i ((a, b, _), _) -> ignore (Flow.add_edge fresh ~src:a ~dst:b ~cap:caps.(i)))
            handles;
          !value = Flow.max_flow fresh ~source ~sink)
        toggles)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_maxflow_mincut; prop_conservation; prop_decompose_total; prop_warm_reuse ]

let () =
  Alcotest.run "flow"
    [ ( "unit",
        [ Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "series parallel" `Quick test_series_parallel;
          Alcotest.test_case "needs residual" `Quick test_needs_residual;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "bipartite matching" `Quick test_bipartite_matching;
          Alcotest.test_case "min cut" `Quick test_min_cut;
          Alcotest.test_case "reset and set_cap" `Quick test_reset_and_set_cap;
          Alcotest.test_case "drain edge" `Quick test_drain_edge;
          Alcotest.test_case "incremental max flow" `Quick test_incremental_max_flow;
          Alcotest.test_case "decompose paths" `Quick test_decompose_paths;
          Alcotest.test_case "edges added after a flow run" `Quick test_edges_after_flow;
          Alcotest.test_case "newest arc first" `Quick test_newest_first;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "warm sequences, pinned" `Quick test_warm_sequences_pinned;
          Alcotest.test_case "drains leave the scratch clean" `Quick test_drains_leave_scratch_clean;
          Alcotest.test_case "drain cancels a cycle" `Quick test_drain_cancels_a_cycle ] );
      ("properties", props) ]
