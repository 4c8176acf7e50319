(* Tests for the fuel-budget machinery: tick accounting, the budgeted
   solver entry points (exhaustion must surface a valid incumbent, and an
   unlimited budget must reproduce the unbounded answer), the cascade
   runner's tier semantics, and the acceptance gadget - a bb_hard
   instance whose branch-and-bound tree dwarfs any reasonable budget but
   which the cascade answers via LP rounding. *)

module Q = Rational
module Gen = Workload.Generate
module Gad = Workload.Gadgets

(* ------------------------------------------------------------ counting -- *)

let test_tick_accounting () =
  let b = Budget.limited 3 in
  Alcotest.(check bool) "limited" true (Budget.is_limited b);
  Alcotest.(check int) "fresh spent" 0 (Budget.spent b);
  Alcotest.(check int) "fresh remaining" 3 (Budget.remaining b);
  Budget.tick b;
  Budget.tick b;
  Alcotest.(check int) "spent" 2 (Budget.spent b);
  Alcotest.(check int) "remaining" 1 (Budget.remaining b);
  Budget.tick b;
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.check_raises "out of fuel" Budget.Out_of_fuel (fun () -> Budget.tick b);
  (* spent never exceeds the limit, even after the raise *)
  Alcotest.(check int) "spent stays at limit" 3 (Budget.spent b)

let test_unlimited () =
  let b = Budget.unlimited () in
  Alcotest.(check bool) "not limited" false (Budget.is_limited b);
  for _ = 1 to 10_000 do
    Budget.tick b
  done;
  Alcotest.(check int) "still counts" 10_000 (Budget.spent b);
  Alcotest.(check bool) "never exhausts" false (Budget.exhausted b)

let test_invalid_limit () =
  Alcotest.check_raises "negative limit" (Invalid_argument "Budget.limited: negative limit")
    (fun () -> ignore (Budget.limited (-1)))

(* ----------------------------------------------------------- deadlines -- *)

let test_deadline_probe_interval () =
  (* the probe is polled on the first tick after arming and then once
     every [interval] ticks, never in between *)
  let calls = ref 0 in
  let b = Budget.limited 1000 in
  Budget.set_deadline ~interval:10 b (fun () -> incr calls; false);
  for _ = 1 to 35 do
    Budget.tick b
  done;
  (* polls at used = 1, 12, 23, 34 *)
  Alcotest.(check int) "amortized polls" 4 !calls

let test_deadline_raises () =
  let calls = ref 0 in
  let b = Budget.limited 1000 in
  Budget.set_deadline ~interval:1 b (fun () -> incr calls; !calls >= 2);
  Budget.tick b;
  (* second poll reports expiry and tick raises *)
  Alcotest.check_raises "deadline raises" Budget.Deadline_exceeded (fun () ->
      Budget.tick b;
      Budget.tick b);
  Alcotest.(check bool) "expired polls directly" true (Budget.expired b)

let test_deadline_unarmed () =
  let b = Budget.limited 10 in
  Alcotest.(check bool) "no probe" true (Budget.probe b = None);
  Alcotest.(check bool) "not expired" false (Budget.expired b)

let test_deadline_escapes_solver () =
  (* solvers do not catch Deadline_exceeded: an expired deadline unwinds
     the whole solve with no incumbent *)
  let params : Gen.slotted_params = { n = 6; horizon = 10; max_length = 3; slack = 2; g = 2 } in
  let inst = Gen.slotted ~params ~seed:0 () in
  let b = Budget.limited 100_000 in
  Budget.set_deadline ~interval:1 b (fun () -> true);
  Alcotest.check_raises "deadline escapes" Budget.Deadline_exceeded (fun () ->
      ignore (Active.Exact.solve ~budget:b inst))

let test_deadline_stops_cascade () =
  (* a mid-tier deadline records the aborted attempt and skips the rest *)
  let ticks = ref 0 in
  let deadline () = !ticks >= 256 in
  let tier name b =
    Some
      (let rec spin n = if n = 0 then name else (Budget.tick b; incr ticks; spin (n - 1)) in
       spin 10_000)
  in
  let r =
    Budget.Cascade.run ~deadline ~limit:100_000
      [ ("first", tier "first"); ("second", tier "second") ]
  in
  Alcotest.(check bool) "no value" true (r.Budget.Cascade.value = None);
  Alcotest.(check bool) "no winner" true (r.Budget.Cascade.winner = None);
  match r.Budget.Cascade.attempts with
  | [ a ] ->
      Alcotest.(check string) "aborted tier" "first" a.Budget.Cascade.tier;
      Alcotest.(check bool) "deadline status" true
        (a.Budget.Cascade.status = Budget.Cascade.Deadline)
  | l -> Alcotest.fail (Printf.sprintf "expected one attempt, got %d" (List.length l))

(* ------------------------------------------------- budgeted == unbounded -- *)

let slotted_instance seed =
  let params : Gen.slotted_params = { n = 6; horizon = 10; max_length = 3; slack = 2; g = 2 } in
  Gen.slotted ~params ~seed ()

let test_active_exact_unlimited_agrees () =
  List.iter
    (fun seed ->
      let inst = slotted_instance seed in
      let unbounded = Active.Exact.branch_and_bound inst in
      match (Active.Exact.solve ~budget:(Budget.unlimited ()) inst, unbounded) with
      | Budget.Complete (Some a), Some b ->
          Alcotest.(check int) "same cost" (Active.Solution.cost b) (Active.Solution.cost a)
      | Budget.Complete None, None -> ()
      | _ -> Alcotest.fail "budgeted/unbounded disagree")
    [ 0; 1; 2; 3; 4 ]

let test_busy_exact_unlimited_agrees () =
  List.iter
    (fun seed ->
      let jobs = Gen.interval_jobs ~n:8 ~horizon:12 ~max_length:4 ~seed () in
      let unbounded = Busy.Exact.exact ~g:2 jobs in
      match Busy.Exact.solve ~budget:(Budget.unlimited ()) ~g:2 jobs with
      | Budget.Complete packing ->
          Alcotest.(check string) "same busy time"
            (Q.to_string (Busy.Bundle.total_busy unbounded))
            (Q.to_string (Busy.Bundle.total_busy packing))
      | Budget.Exhausted _ -> Alcotest.fail "unlimited budget exhausted")
    [ 0; 1; 2 ]

(* --------------------------------------------- exhaustion with incumbent -- *)

let test_active_exact_exhausts_with_incumbent () =
  let inst = Gad.bb_hard ~g:2 ~groups:3 ~width:5 in
  match Active.Exact.solve ~budget:(Budget.limited 50) inst with
  | Budget.Complete _ -> Alcotest.fail "50 ticks should not complete bb_hard"
  | Budget.Exhausted { spent; incumbent } -> (
      Alcotest.(check int) "spent equals limit" 50 spent;
      match incumbent with
      | None -> Alcotest.fail "feasible instance must carry an incumbent"
      | Some sol ->
          Alcotest.(check (option string)) "incumbent verifies" None (Active.Solution.verify inst sol))

let test_busy_exact_exhausts_with_incumbent () =
  let jobs = Gen.interval_jobs ~n:16 ~horizon:20 ~max_length:5 ~seed:1 () in
  match Busy.Exact.solve ~budget:(Budget.limited 10) ~g:2 jobs with
  | Budget.Complete _ -> Alcotest.fail "10 ticks should not complete n=16"
  | Budget.Exhausted { spent; incumbent } ->
      Alcotest.(check int) "spent equals limit" 10 spent;
      Alcotest.(check (option string)) "incumbent packs all jobs" None
        (Busy.Bundle.check ~g:2 jobs incumbent)

let test_ilp_exhausts () =
  let inst = Gad.bb_hard ~g:2 ~groups:3 ~width:5 in
  match Active.Ilp.solve ~budget:(Budget.limited 30) inst with
  | Budget.Complete _ -> Alcotest.fail "30 ticks should not complete the ILP"
  | Budget.Exhausted { spent; _ } -> Alcotest.(check int) "spent equals limit" 30 spent

let test_maximize_exhausts () =
  let jobs = Gen.interval_jobs ~n:10 ~horizon:12 ~max_length:3 ~seed:0 () in
  match
    Busy.Maximize.solve ~fuel:(Budget.limited 40) ~g:2 ~budget:(Q.of_int 6) jobs
  with
  | Budget.Complete _ -> Alcotest.fail "40 of 1024 masks should not complete"
  | Budget.Exhausted { spent; incumbent = accepted, busy, packing } ->
      Alcotest.(check int) "spent equals limit" 40 spent;
      Alcotest.(check bool) "within allowance" true (Q.compare busy (Q.of_int 6) <= 0);
      Alcotest.(check (option string)) "incumbent packing valid" None
        (Busy.Bundle.check ~g:2 accepted packing)

let test_lp_budget_raises () =
  let inst = slotted_instance 0 in
  Alcotest.check_raises "simplex out of fuel" Budget.Out_of_fuel (fun () ->
      ignore (Active.Lp_model.solve ~budget:(Budget.limited 1) inst))

(* -------------------------------------------------------------- cascade -- *)

let test_cascade_first_tier_wins () =
  let r = Budget.Cascade.run ~limit:10 [ ("a", fun _ -> Some 1); ("b", fun _ -> Some 2) ] in
  Alcotest.(check bool) "value" true (r.Budget.Cascade.value = Some 1);
  Alcotest.(check (option string)) "winner" (Some "a") r.Budget.Cascade.winner;
  Alcotest.(check int) "only one attempt" 1 (List.length r.Budget.Cascade.attempts)

let test_cascade_exhaustion_passes_baton () =
  let burn b =
    while true do
      Budget.tick b
    done
  in
  let r =
    Budget.Cascade.run ~limit:7
      [ ("hard", fun b -> burn b; None); ("easy", fun _ -> Some "answer") ]
  in
  Alcotest.(check bool) "value" true (r.Budget.Cascade.value = Some "answer");
  Alcotest.(check (option string)) "winner" (Some "easy") r.Budget.Cascade.winner;
  match r.Budget.Cascade.attempts with
  | [ a1; a2 ] ->
      Alcotest.(check bool) "tier 1 exhausted" true (a1.Budget.Cascade.status = Budget.Cascade.Tier_exhausted);
      Alcotest.(check int) "tier 1 burned its fuel" 7 a1.Budget.Cascade.ticks;
      Alcotest.(check bool) "tier 2 answered" true (a2.Budget.Cascade.status = Budget.Cascade.Answered)
  | _ -> Alcotest.fail "expected two attempts"

let test_cascade_no_answer_is_definitive () =
  (* a tier that completes with None stops the cascade: there is nothing
     to find, later tiers must not run *)
  let ran = ref false in
  let r =
    Budget.Cascade.run ~limit:10
      [ ("decider", fun _ -> None); ("later", fun _ -> ran := true; Some 1) ]
  in
  Alcotest.(check bool) "no value" true (r.Budget.Cascade.value = None);
  Alcotest.(check (option string)) "decider is the winner" (Some "decider") r.Budget.Cascade.winner;
  Alcotest.(check bool) "later tier never ran" false !ran

let test_cascade_all_exhaust () =
  let burn b =
    while true do
      Budget.tick b
    done
  in
  let r = Budget.Cascade.run ~limit:3 [ ("only", fun b -> burn b; None) ] in
  Alcotest.(check bool) "no value" true (r.Budget.Cascade.value = None);
  Alcotest.(check (option string)) "no winner" None r.Budget.Cascade.winner

(* ------------------------------------------------- end-to-end cascades -- *)

let test_active_cascade_small_instance_exact () =
  let inst = slotted_instance 0 in
  let sol, prov = Active.Cascade.solve ~limit:1_000_000 inst in
  Alcotest.(check (option string)) "exact wins on small instances" (Some "exact")
    prov.Budget.Cascade.winner;
  match sol with
  | Some s -> Alcotest.(check (option string)) "verifies" None (Active.Solution.verify inst s)
  | None -> Alcotest.fail "feasible instance"

(* One LP1 per cascade run: when the exact tier has solved LP1 for its
   floor, or begun to, and then exhausts, the rounding tier resumes it.
   The rounding must answer what it answers from a cold LP1; since it
   no longer pays again for the pivots the floor spent, under a tight
   limit it can answer where a cold rounding would exhaust. *)
let test_active_cascade_resumes_lp1 () =
  let params : Gen.slotted_params = { n = 8; horizon = 24; max_length = 4; slack = 4; g = 2 } in
  let resumed = ref 0 in
  for seed = 1 to 40 do
    let inst = Gen.slotted ~params ~seed () in
    match Active.Rounding.solve inst with
    | None -> ()
    | Some (cold, _) ->
        List.iter
          (fun limit ->
            match Active.Cascade.solve ~limit inst with
            | Some sol, { Budget.Cascade.winner = Some "lp-rounding"; _ } -> (
                Alcotest.(check (list int))
                  "cold rounding's slots" cold.Active.Solution.open_slots sol.Active.Solution.open_slots;
                match Active.Rounding.solve ~budget:(Budget.limited limit) inst with
                | exception Budget.Out_of_fuel -> incr resumed
                | _ -> ())
            | _ -> ())
          [ 1; 2; 4; 7; 11; 16; 25; 40 ]
  done;
  Alcotest.(check bool) "some roundings answer only by resuming" true (!resumed > 0)

let test_busy_cascade_degrades () =
  let jobs = Gen.interval_jobs ~n:16 ~horizon:20 ~max_length:5 ~seed:1 () in
  let packing, prov = Busy.Cascade.solve ~limit:20 ~g:2 jobs in
  Alcotest.(check (option string)) "greedy-tracking after exact exhausts" (Some "greedy-tracking")
    prov.Budget.Cascade.winner;
  match packing with
  | Some p ->
      Alcotest.(check (option string)) "valid packing" None (Busy.Bundle.check ~g:2 jobs p);
      Alcotest.(check bool) "cost above lower bound" true
        (Q.compare (Busy.Bundle.total_busy p) prov.Budget.Cascade.bound >= 0)
  | None -> Alcotest.fail "cascade must produce a packing"

let test_busy_cascade_rejects_flexible () =
  let flexible = Gen.flexible_jobs ~n:4 ~seed:0 () in
  match Busy.Cascade.solve ~limit:10 ~g:2 flexible with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flexible jobs must be pinned first"

(* ----------------------------------------------------------- acceptance -- *)

(* The headline robustness claim: a gadget whose unbounded search tree
   exceeds 10^7 nodes (measured: 7,076,849 nodes already at groups = 5;
   the tree grows ~16x per group) returns Exhausted under a 10^5-tick
   budget, and the cascade still answers it via LP rounding with
   provenance naming the tier. *)
let test_acceptance_bb_hard () =
  let inst = Gad.bb_hard ~g:2 ~groups:6 ~width:6 in
  (match Active.Exact.solve ~budget:(Budget.limited 100_000) inst with
  | Budget.Complete _ -> Alcotest.fail "bb_hard groups=6 completed under 10^5 ticks"
  | Budget.Exhausted { spent; incumbent } ->
      Alcotest.(check int) "all fuel spent" 100_000 spent;
      Alcotest.(check bool) "incumbent exists" true (incumbent <> None));
  let sol, prov = Active.Cascade.solve ~limit:100_000 inst in
  Alcotest.(check (option string)) "lp-rounding answers" (Some "lp-rounding")
    prov.Budget.Cascade.winner;
  (match prov.Budget.Cascade.attempts with
  | [ exact_attempt; rounding_attempt ] ->
      Alcotest.(check bool) "exact tier recorded as exhausted" true
        (exact_attempt.Budget.Cascade.status = Budget.Cascade.Tier_exhausted);
      (* the exact tier's floor solved LP1 in full: the rounding resumes
         it at its optimum and pivots no more *)
      Alcotest.(check int) "rounding tier spends no tick" 0 rounding_attempt.Budget.Cascade.ticks
  | _ -> Alcotest.fail "expected the exact and lp-rounding attempts");
  match sol with
  | Some s ->
      Alcotest.(check (option string)) "rounded solution verifies" None
        (Active.Solution.verify inst s);
      (* Theorem 2: the LP-rounding fallback stays within 2 OPT, and OPT
         here is 2 * groups = 12 *)
      Alcotest.(check bool) "within 2x optimum" true (Active.Solution.cost s <= 24)
  | None -> Alcotest.fail "bb_hard is feasible"

let () =
  Alcotest.run "budget"
    [ ( "counting",
        [ Alcotest.test_case "tick accounting" `Quick test_tick_accounting;
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "invalid limit" `Quick test_invalid_limit ] );
      ( "deadlines",
        [ Alcotest.test_case "probe interval" `Quick test_deadline_probe_interval;
          Alcotest.test_case "probe raises" `Quick test_deadline_raises;
          Alcotest.test_case "unarmed budget" `Quick test_deadline_unarmed;
          Alcotest.test_case "escapes solvers" `Quick test_deadline_escapes_solver;
          Alcotest.test_case "stops the cascade" `Quick test_deadline_stops_cascade ] );
      ( "budgeted solvers",
        [ Alcotest.test_case "active exact: unlimited agrees" `Quick test_active_exact_unlimited_agrees;
          Alcotest.test_case "busy exact: unlimited agrees" `Quick test_busy_exact_unlimited_agrees;
          Alcotest.test_case "active exact: exhaustion incumbent" `Quick
            test_active_exact_exhausts_with_incumbent;
          Alcotest.test_case "busy exact: exhaustion incumbent" `Quick
            test_busy_exact_exhausts_with_incumbent;
          Alcotest.test_case "ilp exhausts" `Quick test_ilp_exhausts;
          Alcotest.test_case "maximize exhausts" `Quick test_maximize_exhausts;
          Alcotest.test_case "lp raises" `Quick test_lp_budget_raises ] );
      ( "cascade runner",
        [ Alcotest.test_case "first tier wins" `Quick test_cascade_first_tier_wins;
          Alcotest.test_case "exhaustion passes baton" `Quick test_cascade_exhaustion_passes_baton;
          Alcotest.test_case "no answer is definitive" `Quick test_cascade_no_answer_is_definitive;
          Alcotest.test_case "all tiers exhaust" `Quick test_cascade_all_exhaust ] );
      ( "end to end",
        [ Alcotest.test_case "active cascade small" `Quick test_active_cascade_small_instance_exact;
          Alcotest.test_case "active cascade resumes LP1" `Quick test_active_cascade_resumes_lp1;
          Alcotest.test_case "busy cascade degrades" `Quick test_busy_cascade_degrades;
          Alcotest.test_case "flexible jobs rejected" `Quick test_busy_cascade_rejects_flexible;
          Alcotest.test_case "acceptance: bb_hard" `Slow test_acceptance_bb_hard ] ) ]
