(* Invariants of the capability-typed solver registry (lib/core).

   Completeness is checked against the build tree, not a hand-kept list:
   a dune rule greps every .mli under lib/active and lib/busy for
   [val solve] and the test asserts each such module carries exactly one
   registration. The qcheck properties assert the semantic contract the
   capability flags advertise: all registered exact solvers that accept
   an instance agree on its optimum, and every registered approximation
   stays within its declared ratio of that optimum. *)

module Q = Rational
module Gen = Workload.Generate
module S = Workload.Slotted
module B = Workload.Bjob
module CI = Core.Instance
module CS = Core.Solver
module CR = Core.Result

let all = Core.Registry.all

(* ----------------------------------------------- build-tree completeness -- *)

(* solver_modules.txt is generated by a dune rule grepping
   lib/{active,busy}/*.mli for [val solve]; lines look like
   "../lib/busy/first_fit.mli" *)
let solve_modules () =
  let ic = open_in "solver_modules.txt" in
  let rec lines acc =
    match input_line ic with exception End_of_file -> List.rev acc | l -> lines (l :: acc)
  in
  let paths = lines [] in
  close_in ic;
  let module_of path =
    match List.rev (String.split_on_char '/' path) with
    | file :: lib :: _ ->
        String.capitalize_ascii lib ^ "." ^ String.capitalize_ascii (Filename.chop_extension file)
    | _ -> Alcotest.failf "unparseable path in solver_modules.txt: %s" path
  in
  paths |> List.map module_of
  |> List.filter (fun m ->
         (* Busy.Maximize solves the e13 *maximization* objective — a
            different problem, deliberately outside the minimization
            registry *)
         m <> "Busy.Maximize")

let test_completeness () =
  let modules = solve_modules () in
  Alcotest.(check bool) "the build-tree grep found solver modules" true (List.length modules > 10);
  List.iter
    (fun m ->
      let registered = List.filter (fun (s : CS.t) -> s.CS.impl = m) all in
      Alcotest.(check int) (m ^ " registered exactly once") 1 (List.length registered))
    modules

let test_no_duplicate_names () =
  let keys = List.map (fun (s : CS.t) -> (s.CS.kind, s.CS.name)) all in
  Alcotest.(check int) "no duplicate (kind, name)" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_lookup () =
  List.iter
    (fun (s : CS.t) ->
      match Core.Registry.find s.CS.kind s.CS.name with
      | Some s' -> Alcotest.(check string) "find returns the entry" s.CS.name s'.CS.name
      | None -> Alcotest.failf "find lost %s" s.CS.name)
    all;
  Alcotest.(check bool) "unknown name is absent" true
    (Core.Registry.find CI.Active_slotted "no-such-solver" = None);
  Alcotest.check_raises "find_exn reports the valid names"
    (CS.Unsupported
       "unknown algorithm no-such-solver for active-slotted instances (valid: \
        cascade|exact|ilp|lp-bound|minimal|rounding|unit)") (fun () ->
      ignore (Core.Registry.find_exn CI.Active_slotted "no-such-solver"))

(* The cascades call their tiers directly; the registry's [cascade_tier]
   entries are what --list-solvers prints as tier:N. Run through the
   registry with one tick per tier, so that every metered tier
   exhausts, a cascade must attempt the registry's tiers in tier order,
   and its winning tier must answer what the registry entry carrying
   that tier answers. The busy ladder is exactly exact ->
   greedy-tracking: greedy-tracking ignores its budget and always
   answers, so no tier after it could ever run. *)
let test_cascade_ladders () =
  let check kind inst ~attempted =
    let ladder =
      Core.Registry.of_kind kind
      |> List.filter_map (fun (s : CS.t) ->
             Option.map (fun (i, label) -> (i, label, s)) s.CS.cascade_tier)
      |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
    in
    let kind_name = CI.kind_name kind in
    if kind = CI.Busy_interval then
      Alcotest.(check (list string))
        "busy ladder" [ "exact"; "greedy-tracking" ]
        (List.map (fun (_, label, _) -> label) ladder);
    Alcotest.(check (list int))
      (kind_name ^ " tier positions")
      (List.init (List.length ladder) Fun.id)
      (List.map (fun (i, _, _) -> i) ladder);
    let cascade = Core.Registry.find_exn kind "cascade" in
    let r = cascade.CS.solve ~budget:(Budget.limited 1) inst in
    match r.CR.provenance with
    | None -> Alcotest.failf "%s cascade returned no provenance" kind_name
    | Some p ->
        let tiers = List.map (fun (a : Budget.Cascade.attempt) -> a.tier) p.attempts in
        let expected = List.filteri (fun i _ -> i < attempted) ladder in
        Alcotest.(check (list string))
          (kind_name ^ " attempted tiers")
          (List.map (fun (_, label, _) -> label) expected)
          tiers;
        let _, label, (winner : CS.t) = List.nth expected (attempted - 1) in
        Alcotest.(check (option string)) (kind_name ^ " winner") (Some label) p.winner;
        let objective (r : CR.t) = Option.map CR.objective_to_string r.CR.objective in
        Alcotest.(check (option string))
          (kind_name ^ " winner answers as " ^ winner.CS.name)
          (objective (winner.CS.solve inst))
          (objective r)
  in
  check CI.Active_slotted ~attempted:3
    (CI.Slotted
       (Gen.slotted ~params:{ n = 6; horizon = 12; max_length = 3; slack = 3; g = 2 } ~seed:1 ()));
  check CI.Busy_interval ~attempted:2
    (CI.Interval { g = 2; jobs = Gen.interval_jobs ~n:6 ~horizon:12 ~max_length:4 ~seed:1 () })

(* ------------------------------------------------ guards and checks -- *)

let kinds = CI.[ Active_slotted; Busy_interval; Busy_flexible; Busy_preemptive ]

let empty = function
  | CI.Active_slotted -> CI.Slotted (S.make ~g:2 [])
  | CI.Busy_interval -> CI.Interval { g = 2; jobs = [] }
  | CI.Busy_flexible -> CI.Flexible { g = 2; jobs = [] }
  | CI.Busy_preemptive -> CI.Preemptive { g = 2; jobs = [] }

(* interval jobs, each exactly filling its window *)
let intervals ~g spans =
  CI.Interval
    { g; jobs = List.mapi (fun id (r, d) -> B.of_ints ~id ~release:r ~deadline:d ~length:(d - r)) spans }

(* The CLI and serve pass an empty busy instance to the solver like any
   other, so every solver must answer its kind's empty instance, and
   answer 0. *)
let test_empty_instances () =
  List.iter
    (fun (s : CS.t) ->
      match Core.Registry.run s (empty s.CS.kind) with
      | { CR.status = CR.Solved; objective = Some o; _ } ->
          Alcotest.(check string) (s.CS.name ^ " objective") "0" (CR.objective_to_string o)
      | _ -> Alcotest.failf "%s %s: no objective on the empty instance"
               (CI.kind_name s.CS.kind) s.CS.name)
    all

(* [solve] raises [Unsupported (guard inst)] before the solver runs: on
   every instance of another kind, and for each restricted solver on an
   instance its restriction rejects. *)
let test_guards_enforced () =
  let rejects (s : CS.t) inst =
    match s.CS.guard inst with
    | None -> Alcotest.failf "%s: guard accepts a rejected instance" s.CS.name
    | Some why ->
        Alcotest.check_raises (s.CS.name ^ ": " ^ why) (CS.Unsupported why) (fun () ->
            ignore (s.CS.solve inst))
  in
  List.iter
    (fun (s : CS.t) ->
      List.iter (fun k -> if k <> s.CS.kind then rejects s (empty k)) kinds)
    all;
  let rejected = function
    | "unit" -> CI.Slotted (S.make ~g:2 [ S.job ~id:0 ~release:0 ~deadline:4 ~length:2 ])
    | "laminar" -> intervals ~g:2 [ (0, 4); (2, 6) ] (* crossing windows *)
    | "proper-clique" | "proper-greedy" -> intervals ~g:2 [ (0, 10); (2, 4) ] (* nested *)
    | "clique-greedy" -> intervals ~g:2 [ (0, 2); (5, 7) ] (* disjoint *)
    | name -> Alcotest.failf "restricted solver %s has no rejected instance here" name
  in
  let restricted = List.filter (fun (s : CS.t) -> s.CS.restriction <> None) all in
  Alcotest.(check (list string))
    "restricted solvers"
    [ "unit"; "clique-greedy"; "laminar"; "proper-clique"; "proper-greedy" ]
    (List.map (fun (s : CS.t) -> s.CS.name) restricted);
  List.iter (fun (s : CS.t) -> rejects s (rejected s.CS.name)) restricted

(* [Registry.run] checks a solved witness with the model's verifier and
   raises [Bad_result] with its message; a valid answer passes through
   unchanged. *)
let test_run_checks_witness () =
  let answering kind (r : CR.t) =
    CS.make ~name:"fixed" ~kind ~quality:CS.Exact ~paper:"-" ~impl:"-"
      ~solve:(fun ?budget:_ ?obs:_ ?params:_ _ -> r)
      ()
  in
  let inst = S.make ~g:1 [ S.job ~id:0 ~release:0 ~deadline:2 ~length:1 ] in
  let opened slot =
    CR.solved ~witness:(CR.Opened { open_slots = [ slot ]; schedule = [ (0, [ slot ]) ] }) (CR.Slots 1)
  in
  let problem =
    match Active.Solution.verify inst { open_slots = [ 5 ]; schedule = [ (0, [ 5 ]) ] } with
    | Some p -> p
    | None -> Alcotest.fail "the verifier accepts a job outside its window"
  in
  Alcotest.check_raises "job outside its window" (CS.Bad_result ("invalid solution: " ^ problem))
    (fun () -> ignore (Core.Registry.run (answering CI.Active_slotted (opened 5)) (CI.Slotted inst)));
  let valid = opened 1 in
  Alcotest.(check bool) "valid schedule unchanged" true
    (Core.Registry.run (answering CI.Active_slotted valid) (CI.Slotted inst) == valid);
  let busy = intervals ~g:1 [ (0, 4); (2, 6) ] in
  let jobs = match busy with CI.Interval { jobs; _ } -> jobs | _ -> assert false in
  let packing bundles = CR.solved ~witness:(CR.Packing bundles) (CR.Busy Q.zero) in
  let problem =
    match Busy.Bundle.check ~g:1 jobs [ jobs ] with
    | Some p -> p
    | None -> Alcotest.fail "the checker accepts a bundle over capacity"
  in
  Alcotest.check_raises "bundle over capacity" (CS.Bad_result ("invalid packing: " ^ problem))
    (fun () -> ignore (Core.Registry.run (answering CI.Busy_interval (packing [ jobs ])) busy));
  let valid = packing (List.map (fun j -> [ j ]) jobs) in
  Alcotest.(check bool) "valid packing unchanged" true
    (Core.Registry.run (answering CI.Busy_interval valid) busy == valid)

(* -------------------------------------------------------------- session -- *)

module Session = Core.Session

(* the FIFO memo: bounded, deterministic eviction, 0-capacity inert *)
let test_session_memo () =
  let m : int Session.Memo.t = Session.Memo.create ~capacity:2 in
  Session.Memo.store m "a" 1;
  Session.Memo.store m "b" 2;
  Session.Memo.store m "a" 99 (* duplicate store keeps the first value *);
  Alcotest.(check (option int)) "a" (Some 1) (Session.Memo.find m "a");
  Session.Memo.store m "c" 3 (* evicts the oldest, a *);
  Alcotest.(check (option int)) "a evicted" None (Session.Memo.find m "a");
  Alcotest.(check (option int)) "b kept" (Some 2) (Session.Memo.find m "b");
  Alcotest.(check int) "length" 2 (Session.Memo.length m);
  let z : int Session.Memo.t = Session.Memo.create ~capacity:0 in
  Session.Memo.store z "a" 1;
  Alcotest.(check (option int)) "0-capacity memo never hits" None (Session.Memo.find z "a")

(* ------------------------------------------------------------ properties -- *)

let seed_arb = QCheck.int_range 0 100_000
let fuel = 200_000

let applicable kind inst = List.filter (fun (s : CS.t) -> s.CS.guard inst = None) kind

(* `Cost (objective) when solved, `Infeasible, or skip on exhaustion *)
let outcome (s : CS.t) inst =
  match s.CS.solve ~budget:(Budget.limited fuel) inst with
  | { CR.status = CR.Exhausted _; _ } -> None
  | { CR.status = CR.Infeasible; _ } -> Some (s.CS.name, `Infeasible)
  | { CR.status = CR.Solved; CR.objective = Some o; _ } -> Some (s.CS.name, `Cost o)
  | { CR.status = CR.Solved; _ } -> Some (s.CS.name, `Cost (CR.Slots (-1)))

let agree = function
  | [] | [ _ ] -> true
  | (_, first) :: rest -> List.for_all (fun (_, o) -> o = first) rest

let prop_active_exacts_agree =
  QCheck.Test.make ~name:"registered exact solvers agree (active-slotted)" ~count:40 seed_arb
    (fun seed ->
      let inst =
        Gen.slotted ~params:{ n = 5; horizon = 12; max_length = 3; slack = 3; g = 2 } ~seed ()
      in
      let inst = CI.Slotted inst in
      agree
        (List.filter_map
           (fun s -> outcome s inst)
           (applicable (Core.Registry.exact CI.Active_slotted) inst)))

let prop_busy_exacts_agree =
  QCheck.Test.make ~name:"registered exact solvers agree (busy-interval)" ~count:40 seed_arb
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:6 ~horizon:12 ~max_length:4 ~seed () in
      let inst = CI.Interval { g = 2; jobs } in
      agree
        (List.filter_map
           (fun s -> outcome s inst)
           (applicable (Core.Registry.exact CI.Busy_interval) inst)))

let prop_busy_approx_within_ratio =
  QCheck.Test.make ~name:"registered approximations within declared ratio (busy-interval)"
    ~count:40 seed_arb (fun seed ->
      let jobs = Gen.interval_jobs ~n:6 ~horizon:12 ~max_length:4 ~seed () in
      let inst = CI.Interval { g = 2; jobs } in
      let exact = Core.Registry.find_exn CI.Busy_interval "exact" in
      match outcome exact inst with
      | Some (_, `Cost (CR.Busy opt)) ->
          List.for_all
            (fun (s : CS.t) ->
              match (outcome s inst, s.CS.quality) with
              | Some (_, `Cost (CR.Busy c)), CS.Approx r ->
                  Q.compare c opt >= 0 && Q.compare c (Q.mul r opt) <= 0
              | _ -> true)
            (applicable (Core.Registry.approx CI.Busy_interval) inst)
      | _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_active_exacts_agree; prop_busy_exacts_agree; prop_busy_approx_within_ratio ]

let () =
  Alcotest.run "registry"
    [
      ( "inventory",
        [ Alcotest.test_case "build-tree completeness" `Quick test_completeness;
          Alcotest.test_case "no duplicates" `Quick test_no_duplicate_names;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "cascade ladders" `Quick test_cascade_ladders ] );
      ( "guards",
        [ Alcotest.test_case "empty instances answer 0" `Quick test_empty_instances;
          Alcotest.test_case "guards raise before solving" `Quick test_guards_enforced;
          Alcotest.test_case "run checks witnesses" `Quick test_run_checks_witness ] );
      ("session", [ Alcotest.test_case "memo" `Quick test_session_memo ]);
      ("properties", props);
    ]
