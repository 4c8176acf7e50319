(* Differential oracle: cross-checks every algorithm pair on one instance.

   The properties are exactly the paper's guarantees, so any failure is a
   bug in some solver (or in the oracle): verifiers accept every produced
   solution, every approximation costs at least the exact optimum and at
   most its proven ratio times the optimum, the solvers agree on
   feasibility, IO round-trips preserve instances, the two exact
   branch-and-bounds (flow-pruned and LP-based) agree, and the active
   cascade's exact tier, which prunes against ceil(LP1), finds the
   LP-free search's optimum whenever it answers. Exact tiers run
   under a fuel budget; on exhaustion the optimum-dependent checks are
   skipped (never reported as failures) so the oracle stays deterministic
   and bounded on adversarial instances.

   [planted_bug] arms a deliberately false claim — "a FirstFit packing
   never exceeds the span of the job union", which breaks as soon as
   demand exceeds g anywhere — used by the tests to exercise the
   shrinker end to end. *)

module Q = Rational
module S = Workload.Slotted
module B = Workload.Bjob
module Io = Workload.Io
module Solution = Active.Solution
module CI = Core.Instance
module CR = Core.Result
module CS = Core.Solver

(* The algorithm pairings below are registry queries, not hand-kept
   lists: every registered offline approximation whose guard accepts the
   instance is sandwiched against the optimum with its own declared
   ratio, and every applicable exact solver must agree with the primary
   search. A newly registered solver is differentially tested with no
   oracle change. *)

let ratio_of (s : CS.t) = match s.CS.quality with CS.Approx r -> r | _ -> Q.one

(* a Solved result without the model's witness is itself a finding;
   [guard] turns the exception into a failure report *)
let packing_exn (s : CS.t) (r : CR.t) =
  match r.CR.witness with
  | Some (CR.Packing p) -> p
  | _ -> failwith (s.CS.name ^ " returned no packing")

let solution_exn (s : CS.t) (r : CR.t) =
  match r.CR.witness with
  | Some (CR.Opened { open_slots; schedule }) -> { Solution.open_slots; schedule }
  | _ -> failwith (s.CS.name ^ " returned no schedule")

type failure = { check : string; detail : string }

let fail check fmt = Printf.ksprintf (fun detail -> Some { check; detail }) fmt

(* run checks in order, report the first failure *)
let first checks =
  List.fold_left (fun acc c -> match acc with Some _ -> acc | None -> c ()) None checks

(* Any uncaught exception (failed assert, Invalid_argument, ...) is a
   finding in its own right, not a crash of the harness. *)
let guard name f =
  try f () with
  | Budget.Out_of_fuel -> None
  | e -> fail name "uncaught exception: %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Active-time (slotted) model                                         *)
(* ------------------------------------------------------------------ *)

(* Deterministic differential walk for the incremental feasibility
   oracle: toggle slots (and job subsets) in an index-derived pattern and
   compare every [Oracle.check] against a from-scratch
   [Feasibility.feasible] on the same open set / job subset. The pattern
   mixes closes, reopens-after-infeasible and job deactivations — the
   transitions the warm residual graph must survive. *)
let check_oracle_differential (inst : S.t) =
  guard "oracle-differential" @@ fun () ->
  let slots = Array.of_list (S.relevant_slots inst) in
  let k = Array.length slots in
  let idxs = List.init k (fun i -> i) in
  let o = Active.Feasibility.Oracle.create (Active.Feasibility.network inst) in
  let open_ = Array.make (Stdlib.max k 1) true in
  let slot_steps =
    List.concat
      [
        List.filter_map (fun i -> if i mod 2 = 0 then Some (i, false) else None) idxs;
        List.filter_map (fun i -> if i mod 4 = 0 then Some (i, true) else None) idxs;
        List.filter_map (fun i -> if i mod 3 = 0 then Some (i, false) else None) idxs;
        List.map (fun i -> (i, true)) idxs;
      ]
  in
  let mismatch = ref None in
  List.iter
    (fun (i, op) ->
      if !mismatch = None then begin
        Active.Feasibility.Oracle.set_slot o ~slot:slots.(i) ~open_:op;
        open_.(i) <- op;
        let open_slots = List.filteri (fun i _ -> open_.(i)) (Array.to_list slots) in
        let want = Active.Feasibility.feasible inst ~open_slots in
        let got = Active.Feasibility.Oracle.check o in
        if want <> got then
          mismatch :=
            fail "oracle-differential"
              "slot %d %s: oracle says %b, rebuild says %b" slots.(i)
              (if op then "reopened" else "closed")
              got want
      end)
    slot_steps;
  (match !mismatch with
  | None ->
      (* job phase: deactivate every third job in id order, then
         reactivate *)
      let jobs = inst.S.jobs in
      let by_id =
        List.sort (fun a b -> compare jobs.(a).S.id jobs.(b).S.id) (List.init (Array.length jobs) Fun.id)
      in
      let dropped = List.filteri (fun i _ -> i mod 3 = 0) by_id in
      let kept = List.filteri (fun i _ -> i mod 3 <> 0) by_id in
      List.iter (fun idx -> Active.Feasibility.Oracle.set_job o idx ~active:false) dropped;
      let open_slots = List.filteri (fun i _ -> open_.(i)) (Array.to_list slots) in
      let only_jobs = List.map (fun idx -> jobs.(idx).S.id) kept in
      let want = Active.Feasibility.feasible ~only_jobs inst ~open_slots in
      let got = Active.Feasibility.Oracle.check o in
      if want <> got then
        mismatch :=
          fail "oracle-differential" "with %d/%d jobs: oracle says %b, rebuild says %b"
            (List.length kept) (Array.length jobs) got want
      else begin
        List.iter (fun idx -> Active.Feasibility.Oracle.set_job o idx ~active:true) dropped;
        let want = Active.Feasibility.feasible inst ~open_slots in
        let got = Active.Feasibility.Oracle.check o in
        if want <> got then
          mismatch :=
            fail "oracle-differential" "after reactivation: oracle says %b, rebuild says %b" got
              want
      end
  | Some _ -> ());
  !mismatch

(* The two probe modes must take the same branching decisions: identical
   outcome shape, cost and search-effort counters. Counters come from
   per-call recorders (the harness fans checks out across domains). *)
let check_probe_modes ~fuel (inst : S.t) =
  guard "probe-mode-differential" @@ fun () ->
  let run oracle =
    let obs = Obs.create () in
    let r = Active.Exact.solve ~budget:(Budget.limited fuel) ~oracle ~obs inst in
    (r, Obs.counter obs "active.exact.nodes", Obs.counter obs "active.exact.flow_checks")
  in
  let r_inc, nodes_inc, checks_inc = run Active.Feasibility.Incremental in
  let r_reb, nodes_reb, checks_reb = run Active.Feasibility.Rebuild in
  let cost = function
    | Budget.Complete (Some sol) -> Printf.sprintf "cost %d" (Solution.cost sol)
    | Budget.Complete None -> "infeasible"
    | Budget.Exhausted { incumbent = Some sol; _ } ->
        Printf.sprintf "exhausted, incumbent %d" (Solution.cost sol)
    | Budget.Exhausted { incumbent = None; _ } -> "exhausted, no incumbent"
  in
  let open_set = function
    | Budget.Complete (Some sol) | Budget.Exhausted { incumbent = Some sol; _ } ->
        sol.Solution.open_slots
    | _ -> []
  in
  first
    [
      (fun () ->
        if cost r_inc <> cost r_reb then
          fail "probe-mode-differential" "incremental %s vs rebuild %s" (cost r_inc) (cost r_reb)
        else None);
      (fun () ->
        if open_set r_inc <> open_set r_reb then
          fail "probe-mode-differential" "optimal open sets differ between probe modes"
        else None);
      (fun () ->
        if nodes_inc <> nodes_reb || checks_inc <> checks_reb then
          fail "probe-mode-differential"
            "search effort differs: incremental %d nodes/%d checks, rebuild %d/%d" nodes_inc
            checks_inc nodes_reb checks_reb
        else None);
    ]

(* LP-engine differential: LP1's cut loop under every engine — the
   bounded-variable revised simplex, the dense reference tableau, the
   certified float engine — and LP1's x-form model solved directly by
   the revised engine, which shares no code with the cut loop's
   separation, must give the instance the same status and objective
   (for the float engine this exercises certification and its exact
   fallback). A fuel exhaustion under any of them skips that comparison
   rather than reporting it. *)
let check_lp_engines ~fuel (inst : S.t) =
  guard "lp-engine-differential" @@ fun () ->
  let fueled f = try `Done (f (Budget.limited fuel)) with Budget.Out_of_fuel -> `Fuel in
  let cut_loop engine budget =
    Option.map (fun l -> l.Active.Lp_model.cost) (Active.Lp_model.solve ~engine ~budget inst)
  in
  let x_form budget =
    match Lp.solve ~budget (fst (Active.Lp_model.build_lp1 inst)) with
    | Lp.Optimal sol -> Some (Lp.objective_value sol)
    | Lp.Infeasible -> None
    | Lp.Unbounded -> failwith "x-form LP1 unbounded"
  in
  let others =
    [ ("dense", cut_loop Lp.Dense); ("float", cut_loop Lp.Float_certified); ("x-form revised", x_form) ]
  in
  let show = function Some q -> Q.to_string q | None -> "infeasible" in
  match fueled (cut_loop Lp.Revised) with
  | `Fuel -> None
  | `Done baseline ->
      List.fold_left
        (fun acc (name, solve) ->
          if acc <> None then acc
          else
            match fueled solve with
            | `Fuel -> None
            | `Done other ->
                if Option.equal Q.equal baseline other then None
                else
                  fail "lp-engine-differential" "LP1 differs: revised %s, %s %s" (show baseline)
                    name (show other))
        None others

let check_slotted ~fuel (inst : S.t) =
  guard "slotted-oracle" @@ fun () ->
  let verify name = function
    | None -> None
    | Some sol -> (
        match Solution.verify inst sol with
        | None -> None
        | Some msg -> fail "verifier" "%s solution rejected: %s" name msg)
  in
  let minimal = Active.Minimal.solve inst Active.Minimal.Right_to_left in
  let exact = Active.Exact.solve ~budget:(Budget.limited fuel) inst in
  let rounding =
    try `Done (Active.Rounding.solve ~budget:(Budget.limited fuel) inst)
    with Budget.Out_of_fuel -> `Fuel
  in
  let feasible = minimal <> None in
  (* the optimum when the exact search completed *)
  let opt =
    match exact with Budget.Complete r -> Option.map Solution.cost r | Budget.Exhausted _ -> None
  in
  first
    [
      (fun () ->
        match Io.parse_string (Io.to_string (Io.Slotted_instance inst)) with
        | Io.Slotted_instance i when i = inst -> None
        | Io.Slotted_instance _ -> fail "slotted-io-roundtrip" "parse(print(inst)) differs"
        | Io.Busy_instance _ -> fail "slotted-io-roundtrip" "came back as a busy instance"
        | exception Io.Parse_error (l, m) -> fail "slotted-io-roundtrip" "line %d: %s" l m);
      (* feasibility agreement: infeasibility is always decided before any
         search, so even an exhausted exact tier has settled it *)
      (fun () ->
        match exact with
        | Budget.Complete (Some _) when not feasible ->
            fail "feasibility" "exact found a solution, minimal says infeasible"
        | Budget.Complete None when feasible ->
            fail "feasibility" "exact says infeasible, minimal found a solution"
        | Budget.Exhausted _ when not feasible ->
            fail "feasibility" "exact searched an instance minimal says is infeasible"
        | _ -> None);
      (fun () ->
        match rounding with
        | `Done None when feasible -> fail "feasibility" "lp-rounding says infeasible, minimal disagrees"
        | `Done (Some _) when not feasible ->
            fail "feasibility" "lp-rounding found a solution, minimal says infeasible"
        | _ -> None);
      (fun () -> verify "minimal" minimal);
      (fun () ->
        match exact with
        | Budget.Complete r -> verify "exact" r
        | Budget.Exhausted { incumbent; _ } -> verify "exact-incumbent" incumbent);
      (fun () ->
        match rounding with `Done r -> verify "lp-rounding" (Option.map fst r) | `Fuel -> None);
      (fun () ->
        match rounding with
        | `Done (Some (sol, stats)) ->
            first
              [
                (fun () ->
                  if stats.Active.Rounding.fallback_used then
                    fail "rounding-fallback" "defensive re-opening fired (Lemma 5/6 violated)"
                  else None);
                (fun () ->
                  (* Theorem 2 invariant: at most twice the LP optimum *)
                  if
                    Q.compare (Q.of_int (Solution.cost sol))
                      (Q.mul Q.two stats.Active.Rounding.lp_cost)
                    > 0
                  then
                    fail "rounding-ratio" "rounded %d > 2 * lp %s" (Solution.cost sol)
                      (Q.to_string stats.Active.Rounding.lp_cost)
                  else None);
                (fun () ->
                  match opt with
                  | Some o when Q.compare stats.Active.Rounding.lp_cost (Q.of_int o) > 0 ->
                      fail "lp-bound" "lp %s exceeds integral optimum %d"
                        (Q.to_string stats.Active.Rounding.lp_cost) o
                  | _ -> None);
              ]
        | _ -> None);
      (fun () ->
        match opt with
        | None -> None
        | Some o ->
            first
              [
                (fun () ->
                  (* Exact's built-in floor, max(ceil(P/g), OPT_inf). Exact
                     prunes with it, so a floor above the optimum would
                     also bend the optimum [o] it is compared with here:
                     what catches that is the exact-agreement check below,
                     where the LP-based search (the ILP), which never
                     reads this floor, must find the same optimum. *)
                  let floor = max (S.mass_lower_bound inst) (S.unbounded_optimum inst) in
                  if floor > o then
                    fail "mass-bound" "floor max(ceil(P/g), OPT_inf) = %d exceeds optimum %d" floor o
                  else None);
                (fun () ->
                  (* every registered approximation whose guard accepts the
                     instance: verified witness, cost sandwiched between the
                     optimum and its declared ratio times the optimum *)
                  Core.Registry.approx CI.Active_slotted
                  |> List.filter (fun (s : CS.t) -> s.CS.guard (CI.Slotted inst) = None)
                  |> List.fold_left
                       (fun acc (s : CS.t) ->
                         match acc with
                         | Some _ -> acc
                         | None -> (
                             match s.CS.solve ~budget:(Budget.limited fuel) (CI.Slotted inst) with
                             | { CR.status = CR.Exhausted _; _ } -> None
                             | { CR.status = CR.Infeasible; _ } ->
                                 fail "feasibility" "%s says infeasible, optimum is %d" s.CS.name o
                             | { CR.status = CR.Solved; _ } as r -> (
                                 let sol = solution_exn s r in
                                 let c = Solution.cost sol in
                                 match Solution.verify inst sol with
                                 | Some msg ->
                                     fail "verifier" "%s solution rejected: %s" s.CS.name msg
                                 | None ->
                                     if c < o then
                                       fail "opt-le-approx" "%s %d below optimum %d" s.CS.name c o
                                     else if
                                       Q.compare (Q.of_int c) (Q.mul (ratio_of s) (Q.of_int o)) > 0
                                     then
                                       fail "approx-ratio" "%s %d > %s * optimum %d" s.CS.name c
                                         (Q.to_string (ratio_of s)) o
                                     else None)))
                       None);
                (fun () ->
                  (* the cascade's exact tier prunes against ceil(LP1):
                     when it answers, it must find the LP-free optimum *)
                  match Active.Cascade.solve ~limit:fuel inst with
                  | Some sol, { Budget.Cascade.winner = Some "exact"; _ }
                    when Solution.cost sol <> o ->
                      fail "cascade-exact" "cascade's exact tier found %d, LP-free optimum is %d"
                        (Solution.cost sol) o
                  | _ -> None);
                (fun () ->
                  (* every other registered exact solver agrees with the
                     flow-pruned branch and bound; budget-hungry ones only
                     on small instances *)
                  let small =
                    List.length (S.relevant_slots inst) <= 12 && S.num_jobs inst <= 8
                  in
                  Core.Registry.exact CI.Active_slotted
                  |> List.filter (fun (s : CS.t) ->
                         s.CS.name <> "exact"
                         && s.CS.guard (CI.Slotted inst) = None
                         && ((not s.CS.supports_budget) || small))
                  |> List.fold_left
                       (fun acc (s : CS.t) ->
                         match acc with
                         | Some _ -> acc
                         | None -> (
                             match s.CS.solve ~budget:(Budget.limited fuel) (CI.Slotted inst) with
                             | { CR.status = CR.Exhausted _; _ } -> None
                             | { CR.status = CR.Infeasible; _ } ->
                                 fail "exact-agreement" "%s says infeasible, optimum is %d"
                                   s.CS.name o
                             | { CR.status = CR.Solved; _ } as r ->
                                 let c = Solution.cost (solution_exn s r) in
                                 if c <> o then
                                   fail "exact-agreement" "%s found %d, flow B&B found %d"
                                     s.CS.name c o
                                 else None))
                       None);
              ]);
      (fun () ->
        (* differential: warm incremental oracle vs from-scratch rebuilds *)
        if List.length (S.relevant_slots inst) <= 24 then check_oracle_differential inst else None);
      (fun () -> check_lp_engines ~fuel inst);
      (fun () ->
        if List.length (S.relevant_slots inst) <= 12 && S.num_jobs inst <= 8 then
          check_probe_modes ~fuel inst
        else None);
    ]

(* ------------------------------------------------------------------ *)
(* Busy-time model (interval jobs)                                     *)
(* ------------------------------------------------------------------ *)

let busy_jobs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : B.t) (y : B.t) ->
         x.B.id = y.B.id && Q.equal x.B.release y.B.release && Q.equal x.B.deadline y.B.deadline
         && Q.equal x.B.length y.B.length)
       a b

let busy_roundtrip jobs () =
  match Io.parse_string (Io.to_string (Io.Busy_instance jobs)) with
  | Io.Busy_instance back when busy_jobs_equal jobs back -> None
  | Io.Busy_instance _ -> fail "busy-io-roundtrip" "parse(print(jobs)) differs"
  | Io.Slotted_instance _ -> fail "busy-io-roundtrip" "came back as a slotted instance"
  | exception Io.Parse_error (l, m) -> fail "busy-io-roundtrip" "line %d: %s" l m

let check_busy ?(planted_bug = false) ~fuel ~g jobs =
  guard "busy-oracle" @@ fun () ->
  let inst = CI.Interval { g; jobs } in
  (* on general instances the four general approximations; structured
     instances also pull in the guard-matched restricted greedys *)
  let algs =
    Core.Registry.approx CI.Busy_interval
    |> List.filter (fun (s : CS.t) -> s.CS.guard inst = None)
    |> List.map (fun (s : CS.t) -> (s.CS.name, packing_exn s (s.CS.solve inst), ratio_of s))
  in
  let lb = Busy.Bounds.best ~g jobs in
  first
    [
      busy_roundtrip jobs;
      (fun () ->
        List.fold_left
          (fun acc (name, p, _) ->
            match acc with
            | Some _ -> acc
            | None -> (
                match Busy.Bundle.check ~g jobs p with
                | Some msg -> fail "verifier" "%s produced an invalid packing: %s" name msg
                | None -> None))
          None algs);
      (fun () ->
        (* Section 4.1: every lower bound is below every feasible cost *)
        List.fold_left
          (fun acc (name, p, _) ->
            match acc with
            | Some _ -> acc
            | None ->
                let c = Busy.Bundle.total_busy p in
                if Q.compare c lb < 0 then
                  fail "lower-bound" "%s cost %s below lower bound %s" name (Q.to_string c)
                    (Q.to_string lb)
                else None)
          None algs);
      (fun () ->
        let exact = Core.Registry.find_exn CI.Busy_interval "exact" in
        match exact.CS.solve ~budget:(Budget.limited fuel) inst with
        | { CR.status = CR.Exhausted _; CR.witness = Some (CR.Packing incumbent); _ } -> (
            (* the incumbent is still a packing and must verify *)
            match Busy.Bundle.check ~g jobs incumbent with
            | Some msg -> fail "verifier" "exact incumbent invalid: %s" msg
            | None -> None)
        | { CR.status = CR.Exhausted _; _ } ->
            fail "verifier" "exact exhausted without an incumbent packing"
        | { CR.status = CR.Infeasible; _ } -> fail "busy-oracle" "exact reported infeasible"
        | { CR.status = CR.Solved; _ } as r -> (
            let p = packing_exn exact r in
            match Busy.Bundle.check ~g jobs p with
            | Some msg -> fail "verifier" "exact packing invalid: %s" msg
            | None ->
                let opt = Busy.Bundle.total_busy p in
                first
                  [
                    (fun () ->
                      if Q.compare lb opt > 0 then
                        fail "lower-bound" "lower bound %s exceeds optimum %s" (Q.to_string lb)
                          (Q.to_string opt)
                      else None);
                    (fun () ->
                      List.fold_left
                        (fun acc (name, q, ratio) ->
                          match acc with
                          | Some _ -> acc
                          | None ->
                              let c = Busy.Bundle.total_busy q in
                              if Q.compare c opt < 0 then
                                fail "opt-le-approx" "%s cost %s below optimum %s" name
                                  (Q.to_string c) (Q.to_string opt)
                              else if Q.compare c (Q.mul ratio opt) > 0 then
                                fail "approx-ratio" "%s cost %s > %s * optimum %s" name
                                  (Q.to_string c) (Q.to_string ratio) (Q.to_string opt)
                              else None)
                        None algs);
                    (fun () ->
                      (* restricted exact solvers (laminar DP, proper-clique
                         DP) agree with the search on their domains *)
                      Core.Registry.exact CI.Busy_interval
                      |> List.filter (fun (s : CS.t) ->
                             s.CS.name <> "exact" && s.CS.guard inst = None)
                      |> List.fold_left
                           (fun acc (s : CS.t) ->
                             match acc with
                             | Some _ -> acc
                             | None ->
                                 let c = Busy.Bundle.total_busy (packing_exn s (s.CS.solve inst)) in
                                 if not (Q.equal c opt) then
                                   fail "exact-agreement" "%s found %s, exact search found %s"
                                     s.CS.name (Q.to_string c) (Q.to_string opt)
                                 else None)
                           None);
                  ]));
      (fun () ->
        if planted_bug then begin
          (* deliberately false: sum of bundle spans <= span of the union
             (breaks whenever FirstFit needs overlapping bundles) *)
          let ff = Busy.First_fit.solve ~g jobs in
          let c = Busy.Bundle.total_busy ff in
          let span = Busy.Bounds.span jobs in
          if Q.compare c span > 0 then
            fail "planted-span" "first-fit busy %s exceeds union span %s" (Q.to_string c)
              (Q.to_string span)
          else None
        end
        else None);
    ]

(* ------------------------------------------------------------------ *)
(* Flexible busy-time jobs: pin with the placement, then as above       *)
(* ------------------------------------------------------------------ *)

let check_flexible ?planted_bug ~fuel ~g jobs =
  guard "flexible-oracle" @@ fun () ->
  first
    [
      busy_roundtrip jobs;
      (fun () ->
        let pinned = Busy.Placement.greedy jobs in
        if List.length pinned <> List.length jobs then
          fail "placement" "greedy returned %d jobs for %d" (List.length pinned) (List.length jobs)
        else
          let mismatch =
            List.find_opt
              (fun (p : B.t) ->
                match List.find_opt (fun (j : B.t) -> j.B.id = p.B.id) jobs with
                | None -> true
                | Some j ->
                    (not (B.is_interval p))
                    || (not (Q.equal p.B.length j.B.length))
                    || Q.compare p.B.release j.B.release < 0
                    || Q.compare p.B.deadline j.B.deadline > 0)
              pinned
          in
          match mismatch with
          | Some p -> fail "placement" "job %d placed outside its window (or altered)" p.B.id
          | None -> check_busy ?planted_bug ~fuel ~g pinned);
    ]
