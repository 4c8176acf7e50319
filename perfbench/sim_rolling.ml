(* sim_rolling: rolling-horizon re-planning (atbt sim), closed loop.

   One op = Sim.Rolling.run with default_config (cascade re-solve on a
   warm session) over one seeded Generate.timed_slotted trace. Jobs are
   known up to [lead] slots before their release, so most pinned-LP1
   re-solves start warm and few jobs miss. *)

open Util
module Gen = Workload.Generate
module Io = Workload.Io
module S = Workload.Slotted
module Q = Rational
module R = Sim.Rolling

let params : Gen.slotted_params = { n = 12; horizon = 24; max_length = 4; slack = 8; g = 3 }
let lead = 12
let traces_per_second = 64
let warmup_traces = 30

(* the traced run also replays every [sample_every]-th trace untraced
   and cold *)
let sample_every = 4

type trace = { text : string; inst : S.t; arrivals : (int * int) list }

(* Generate, render, parse back; redraw until the whole trace is
   feasible offline. *)
let rec draw next =
  let inst, arrivals = Gen.timed_slotted ~params ~lead ~seed:(next ()) () in
  let text = Io.to_string ~arrivals (Io.Slotted_instance inst) in
  match Io.parse_string_timed text with
  | Io.Slotted_instance parsed, arrivals when Active_lp.feasible parsed -> { text; inst = parsed; arrivals }
  | _ -> draw next

let corpus ~seed ~salt k =
  let next = seeds ~seed ~salt in
  Array.init k (fun _ -> draw next)

let op ?obs ?(config = R.default_config) t =
  match R.run ?obs ~config ~arrivals:t.arrivals t.inst with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

(* Units job [id] ran in the committed schedule. *)
let units (r : R.run) id = match List.assoc_opt id r.R.schedule with Some l -> List.length l | None -> 0

(* Every job completes or is counted missed, and the committed schedule
   is valid for what ran: each job that ran at least one unit, cut to
   the units it ran, must pass Solution.verify (windows, capacity g, open
   slots), so the completed jobs' schedules are checked on every trace.
   When none missed, the discrete-event replay of the committed schedule
   is also clean and meters the same energy. [verify] wraps the
   verification call. *)
let check ?(verify = fun f -> f ()) t = function
  | Error e -> Failed e
  | Ok (r : R.run) -> (
      let ran =
        List.filter_map
          (fun (j : S.job) -> match units r j.S.id with 0 -> None | u -> Some (j, u))
          (Array.to_list t.inst.S.jobs)
      in
      let completed = List.length (List.filter (fun ((j : S.job), u) -> u = j.S.length) ran) in
      if List.exists (fun ((j : S.job), u) -> u > j.S.length) ran then Wrong "a job ran more units than its length"
      else if completed <> r.R.completed_jobs || completed + r.R.total_misses <> S.num_jobs t.inst then
        Wrong "jobs neither completed nor missed"
      else
        let what_ran =
          S.make ~g:t.inst.S.g
            (List.map
               (fun ((j : S.job), u) -> S.job ~id:j.S.id ~release:j.S.release ~deadline:j.S.deadline ~length:u)
               ran)
        in
        let sol =
          {
            Active.Solution.open_slots = r.R.open_slots;
            schedule = List.filter (fun (_, slots) -> slots <> []) r.R.schedule;
          }
        in
        match verify (fun () -> Active.Solution.verify what_ran sol) with
        | Some v -> Wrong ("committed schedule invalid: " ^ v)
        | None -> (
            if r.R.total_misses > 0 then Pass
            else
              match r.R.replay with
              | None -> Wrong "no replay although every job completed"
              | Some rep when rep.Sim.violations <> [] -> Wrong "replay reports violations"
              | Some rep when not (Q.equal rep.Sim.total_energy (Q.of_int r.R.total_energy)) ->
                  Wrong "replay energy differs from the committed energy"
              | Some _ -> Pass))

(* The energy a run is charged: the committed energy plus, for each
   missed job, the units it did not run, as if it ran them alone. So a
   change that misses more jobs cannot lower cost_ratio by leaving their
   work undone. *)
let charged t (r : R.run) =
  Array.fold_left (fun acc (j : S.job) -> acc + j.S.length - units r j.S.id) r.R.total_energy t.inst.S.jobs

let setup ~seed ~k () =
  let traces = corpus ~seed ~salt:30 k in
  Array.iter (fun t -> ignore (op t)) (corpus ~seed:warmup_seed ~salt:31 warmup_traces);
  traces

let summary traces results =
  let energy = ref 0 and misses = ref 0 and jobs = ref 0 in
  Array.iteri
    (fun i -> function
      | Ok (r : R.run) ->
          energy := !energy + charged traces.(i) r;
          misses := !misses + r.R.total_misses;
          jobs := !jobs + S.num_jobs traces.(i).inst
      | Error _ -> ())
    results;
  let lower = sum (Array.map (fun t -> Q.to_float (Active_lp.lp1 t.inst)) traces) in
  let digest =
    Obs.digest
      (String.concat ";"
         (Array.to_list
            (Array.map
               (function
                 | Ok (r : R.run) ->
                     Printf.sprintf "%d:%d:%s" r.R.total_energy r.R.total_misses
                       (String.concat "," (List.map string_of_int r.R.open_slots))
                 | Error _ -> "-")
               results)))
  in
  (float_of_int !energy /. lower, ratio !misses !jobs, digest)

(* traces per block between two host probes: about 0.4 s *)
let block = 32

let run ~seed ~seconds ~trace =
  let k = traces_per_second * seconds in
  let traces, setup = repeat_setup 5 (setup ~seed ~k) in
  let meta =
    [
      ("loop", J.String "closed");
      ( "sizes",
        J.String
          (Printf.sprintf "timed_slotted n %d, T %d, max length %d, slack %d, g %d, lead %d; epoch length %d"
             params.n params.horizon params.max_length params.slack params.g lead
             R.default_config.R.epoch_len) );
      ("traces", J.Int k);
    ]
  in
  if not trace then begin
    let results, raw, scaled, probes = closed_loop ~block k (fun i -> op traces.(i)) in
    let failures, wrong = tally (Array.mapi (fun i r -> check traces.(i) r) results) in
    let cost_ratio, miss_share, digest = summary traces results in
    {
      setup; attempted = k; failures; wrong; ops_per_s = rate_of scaled; raw_ops_per_s = rate_of raw;
      latencies_ms = scaled; raw_latencies_ms = raw; probes; cost_ratio; sla_miss_share = Some miss_share;
      digest; meta; layers = [];
    }
  end
  else begin
    (* per trace: traced twice (counters must repeat); on every
       [sample_every]-th also untraced and cold (warm = false); then the
       trace's parse and offline LP1 *)
    let warm_ms = Array.make k 0. and cold_ms = Array.make k 0. in
    let tr = Tracer.create k and tr_b = Tracer.create k and side = Tracer.create k in
    let obs_a = Obs.create () and obs_b = Obs.create () in
    let cold = { R.default_config with R.warm = false } in
    let results =
      Array.mapi
        (fun i t ->
          if i mod sample_every = 0 then warm_ms.(i) <- snd (time (fun () -> op t)) *. 1000.;
          let r =
            Tracer.timed tr "op" i (fun () -> Tracer.timed tr "sim.rolling" i (fun () -> op ~obs:obs_a t))
          in
          ignore (Tracer.timed tr_b "op" i (fun () -> op ~obs:obs_b t));
          if i mod sample_every = 0 then cold_ms.(i) <- snd (time (fun () -> op ~config:cold t)) *. 1000.;
          ignore (Tracer.timed side "workload.parse" i (fun () -> Io.parse_string_timed t.text));
          ignore (Tracer.timed side "lp.solve" i (fun () -> Active.Lp_model.solve ~obs:(Obs.create ()) t.inst));
          r)
        traces
    in
    let verdicts =
      Array.mapi (fun i r -> check ~verify:(Tracer.timed side "active.verify" i) traces.(i) r) results
    in
    let repeat = Obs.counters obs_a = Obs.counters obs_b in
    let verdicts =
      if repeat then verdicts
      else Array.append verdicts [| Wrong "work counters differ between the two traced runs" |]
    in
    let failures, wrong = tally verdicts in
    let _, miss_share, digest = summary traces results in
    let epochs = counter obs_a "sim.epochs" in
    let per_epoch name = ratio (counter obs_a name) epochs in
    let op_ms = (Tracer.mean_ms tr "op" +. Tracer.mean_ms tr_b "op") /. 2. in
    let sampled a = Array.of_list (List.filteri (fun i _ -> i mod sample_every = 0) (Array.to_list a)) in
    let traced_sampled = sampled (Array.map2 (fun a b -> (a +. b) /. 2.) (Tracer.per_op tr "op") (Tracer.per_op tr_b "op")) in
    let lp = Tracer.per_op side "lp.solve" in
    let layers =
      [
        ("trace.op_ms", op_ms);
        ("trace.other_ms", Tracer.mean_ms tr "op" -. Tracer.mean_ms tr "sim.rolling");
        ("trace.overhead_pct", (mean traced_sampled -. mean (sampled warm_ms)) /. mean (sampled warm_ms) *. 100.);
        ("workload.parse_ms", Tracer.mean_ms side "workload.parse");
        ("lp.solve_ms", mean lp);
        ("lp.solve_p50_ms", percentile lp 0.5);
        ("lp.solve_p90_ms", percentile lp 0.9);
        ("active.verify_ms", Tracer.mean_ms side "active.verify");
        ("sim.rolling_ms", Tracer.mean_ms tr "sim.rolling");
        ("lp.solves", per_epoch "lp.solves");
        ("lp.pivots", per_epoch "lp.pivots");
        ("lp.phase1_pivots", per_epoch "lp.phase1_pivots");
        ("lp.degenerate_share", ratio (counter obs_a "lp.degenerate_pivots") (counter obs_a "lp.pivots"));
        ("lp.priced_columns", per_epoch "lp.priced_columns");
        ("lp.eta_updates", per_epoch "lp.eta_updates");
        ("lp.refactorizations", per_epoch "lp.refactorizations");
        ("lp.fill_nonzeros", per_epoch "lp.fill_nonzeros");
        ("lp.exact_cells", per_epoch "lp.exact_cells");
        ("lp.warm_share", ratio (counter obs_a "lp.warm_starts") (counter obs_a "lp.solves"));
        ("flow.augmentations", per_epoch "flow.augmentations");
        ("session.warm_hits", per_epoch "session.warm_hits");
        ("session.rebuilds", per_epoch "session.rebuilds");
        ("session.warm_speedup", sum cold_ms /. sum warm_ms);
        ("sim.epochs_per_trace", ratio epochs k);
        ("sim.degraded_share", per_epoch "sim.degraded_epochs");
        ("sim.sla_miss_share", miss_share);
        ("active.oracle.checks", per_epoch "active.oracle.checks");
        ("active.exact.nodes", per_epoch "active.exact.nodes");
        ("cascade.attempts", per_epoch "cascade.attempts");
      ]
    in
    let op_times = Tracer.per_op tr "op" in
    {
      setup; attempted = k; failures; wrong; ops_per_s = rate_of op_times; raw_ops_per_s = rate_of op_times;
      latencies_ms = op_times; raw_latencies_ms = op_times; probes = [||]; cost_ratio = nan;
      sla_miss_share = Some miss_share; digest; meta = meta @ [ ("counters_repeat", J.Bool repeat) ]; layers;
    }
  end
