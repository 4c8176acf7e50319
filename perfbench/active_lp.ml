(* active_lp: LP rounding for active time (Theorem 2), closed loop.

   One op = Io.parse_string -> Active.Rounding.solve (default engine and
   pricing) -> Active.Solution.verify on one rendered instance. The op
   list is the seeded corpus (three sizes, interleaved) run in [passes]
   whole passes. *)

open Util
module Gen = Workload.Generate
module Io = Workload.Io
module S = Workload.Slotted
module Q = Rational

let sizes : Gen.slotted_params array =
  [|
    { n = 12; horizon = 20; max_length = 5; slack = 6; g = 3 };
    { n = 20; horizon = 30; max_length = 5; slack = 6; g = 3 };
    { n = 28; horizon = 40; max_length = 5; slack = 6; g = 3 };
  |]

(* distinct instances per second of --seconds, and passes over them *)
let distinct_per_second = 20
let passes = 5
let warmup_ops = 60

type case = { text : string; inst : S.t }

let feasible inst = Active.Feasibility.feasible inst ~open_slots:(S.relevant_slots inst)

(* Generate, render, parse back; redraw until feasible. *)
let rec draw next params =
  let inst = Gen.slotted ~params ~seed:(next ()) () in
  let text = Io.to_string (Io.Slotted_instance inst) in
  match Io.parse_string text with
  | Io.Slotted_instance parsed when feasible parsed -> { text; inst = parsed }
  | _ -> draw next params

let corpus ~seed ~salt k =
  let next = seeds ~seed ~salt in
  Array.init k (fun i -> draw next sizes.(i mod Array.length sizes))

type answer = { cost : int; slots : int list; lp_cost : Q.t; fallback : bool }

(* The op. [obs] and [tr] are the traced run's recorder and spans. *)
let op ?obs ?tr i text =
  let layer name f = match tr with Some t -> Tracer.timed t name i f | None -> f () in
  match
    match layer "workload.parse" (fun () -> Io.parse_string text) with
    | Io.Busy_instance _ -> (Wrong "not a slotted instance", None)
    | Io.Slotted_instance inst -> (
        match layer "active.rounding" (fun () -> Active.Rounding.solve ?obs inst) with
        | None -> (Wrong "rounding reports a feasible instance infeasible", None)
        | Some (sol, stats) -> (
            match layer "active.verify" (fun () -> Active.Solution.verify inst sol) with
            | Some v -> (Wrong ("invalid schedule: " ^ v), None)
            | None ->
                ( Pass,
                  Some
                    {
                      cost = Active.Solution.cost sol;
                      slots = sol.Active.Solution.open_slots;
                      lp_cost = stats.Active.Rounding.lp_cost;
                      fallback = stats.Active.Rounding.fallback_used;
                    } )))
  with
  | r -> r
  | exception e -> (Failed (Printexc.to_string e), None)

let setup ~seed ~distinct () =
  let cases = corpus ~seed ~salt:1 distinct in
  Array.iteri (fun i c -> ignore (op i c.text)) (corpus ~seed:warmup_seed ~salt:2 warmup_ops);
  cases

(* LP1 by the float-certified engine, a different path from the
   rounding's own LP solve. *)
let lp1 inst =
  match Active.Lp_model.solve ~engine:Lp.Float_certified inst with
  | Some m -> m.Active.Lp_model.cost
  | None -> Q.zero

(* Thm 2 and LP duality: LP1 <= rounded <= 2 LP1, and the rounding's LP
   value is LP1. *)
let check_answer bound (verdict, answer) =
  match (verdict, answer) with
  | Pass, Some a ->
      let c = Q.of_int a.cost in
      if Q.compare c bound < 0 then Wrong "rounded cost below LP1"
      else if Q.compare c (Q.mul Q.two bound) > 0 then Wrong "rounded cost above 2 LP1"
      else if not (Q.equal a.lp_cost bound) then Wrong "rounding's LP value differs from LP1"
      else if a.fallback then Wrong "rounding needed its defensive fallback"
      else Pass
  | v, _ -> v

let digest answers =
  Obs.digest
    (String.concat ";"
       (Array.to_list
          (Array.map
             (function
               | _, Some a -> string_of_int a.cost ^ ":" ^ String.concat "," (List.map string_of_int a.slots)
               | _, None -> "-")
             answers)))

(* ops per block between two host probes: about 0.4 s *)
let block = 40

let run ~seed ~seconds ~trace =
  let distinct = distinct_per_second * seconds in
  let cases, setup = repeat_setup 5 (setup ~seed ~distinct) in
  let k = Array.length cases in
  let meta =
    [
      ("loop", J.String "closed");
      ("sizes", J.String "n/T = 12/20, 20/30, 28/40; max length 5, slack 6, g 3");
      ("distinct_instances", J.Int k);
      ("passes", J.Int (if trace then 1 else passes));
    ]
  in
  if not trace then begin
    let n = k * passes in
    let results, raw, scaled, probes = closed_loop ~block n (fun j -> op j cases.(j mod k).text) in
    let bounds = Array.map (fun c -> lp1 c.inst) cases in
    let verdicts =
      Array.mapi
        (fun j r ->
          let i = j mod k in
          match check_answer bounds.(i) r with
          | Pass when snd r <> snd results.(i) -> Wrong "answer changed between passes"
          | v -> v)
        results
    in
    let failures, wrong = tally verdicts in
    let total f = Array.fold_left ( +. ) 0. (Array.init k f) in
    let cost_ratio =
      total (fun i -> match snd results.(i) with Some a -> float_of_int a.cost | None -> 0.)
      /. total (fun i -> Q.to_float bounds.(i))
    in
    {
      setup; attempted = n; failures; wrong; ops_per_s = rate_of scaled; raw_ops_per_s = rate_of raw;
      latencies_ms = scaled; raw_latencies_ms = raw; probes; cost_ratio; sla_miss_share = None;
      digest = digest (Array.sub results 0 k); meta; layers = [];
    }
  end
  else begin
    (* per op: untraced, traced twice (counters must repeat), then LP1
       alone by the default engine for lp.solve_ms *)
    let untraced = Array.make k 0. in
    let tr_a = Tracer.create k and tr_b = Tracer.create k in
    let obs_a = Obs.create () and obs_b = Obs.create () in
    let lp_side = Tracer.create k in
    let results = Array.make k (Pass, None) in
    for i = 0 to k - 1 do
      let text = cases.(i).text in
      untraced.(i) <- snd (time (fun () -> op i text)) *. 1000.;
      results.(i) <- Tracer.timed tr_a "op" i (fun () -> op ~obs:obs_a ~tr:tr_a i text);
      ignore (Tracer.timed tr_b "op" i (fun () -> op ~obs:obs_b ~tr:tr_b i text));
      ignore (Tracer.timed lp_side "lp.solve" i (fun () -> Active.Lp_model.solve ~obs:(Obs.create ()) cases.(i).inst))
    done;
    let bounds = Array.map (fun c -> lp1 c.inst) cases in
    let verdicts = Array.mapi (fun i r -> check_answer bounds.(i) r) results in
    let repeat = Obs.counters obs_a = Obs.counters obs_b in
    let verdicts = if repeat then verdicts else Array.append verdicts [| Wrong "work counters differ between the two traced runs" |] in
    let failures, wrong = tally verdicts in
    let both layer = (Tracer.mean_ms tr_a layer +. Tracer.mean_ms tr_b layer) /. 2. in
    let op_ms = both "op" and parse = both "workload.parse" and rounding = both "active.rounding" in
    let verify = both "active.verify" and lp = Tracer.mean_ms lp_side "lp.solve" in
    let per_op name = float_of_int (counter obs_a name) /. float_of_int k in
    let lp_solves = per_op "lp.solves" in
    let layers =
      [
        ("trace.op_ms", op_ms);
        ("trace.other_ms", op_ms -. parse -. rounding -. verify);
        ("trace.overhead_pct", (op_ms -. mean untraced) /. mean untraced *. 100.);
        ("workload.parse_ms", parse);
        ("lp.solve_ms", lp);
        ("lp.solve_p50_ms", percentile (Tracer.per_op lp_side "lp.solve") 0.5);
        ("lp.solve_p90_ms", percentile (Tracer.per_op lp_side "lp.solve") 0.9);
        ("active.rounding_self_ms", rounding -. lp);
        ("active.verify_ms", verify);
        ("lp.solves", lp_solves);
        ("lp.pivots", per_op "lp.pivots");
        ("lp.phase1_pivots", per_op "lp.phase1_pivots");
        ("lp.degenerate_share", ratio (counter obs_a "lp.degenerate_pivots") (counter obs_a "lp.pivots"));
        ("lp.priced_columns", per_op "lp.priced_columns");
        ("lp.eta_updates", per_op "lp.eta_updates");
        ("lp.refactorizations", per_op "lp.refactorizations");
        ("lp.fill_nonzeros", per_op "lp.fill_nonzeros");
        ("lp.exact_cells", per_op "lp.exact_cells");
        ("lp.warm_share", ratio (counter obs_a "lp.warm_starts") (counter obs_a "lp.solves"));
        ("active.rounding.flow_tests", per_op "active.rounding.flow_tests");
        ("flow.augmentations", per_op "flow.augmentations");
      ]
    in
    let op_times = Tracer.per_op tr_a "op" in
    {
      setup; attempted = k; failures; wrong; ops_per_s = rate_of op_times; raw_ops_per_s = rate_of op_times;
      latencies_ms = op_times; raw_latencies_ms = op_times; probes = [||]; cost_ratio = nan;
      sla_miss_share = None; digest = digest results; meta = meta @ [ ("counters_repeat", J.Bool repeat) ];
      layers;
    }
  end
