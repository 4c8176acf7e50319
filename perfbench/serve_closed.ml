(* serve_closed: the atbt serve daemon (Serve.run_stream, one worker
   domain) driven by one client that sends each request as soon as the
   previous response has left: a closed loop. The reading domain is the
   client. The mix: the active [minimal] algorithm (Thm 1) on slotted
   instances, and busy [greedy-tracking] (Thm 5) on diurnal flexible
   jobs and on interval jobs, in equal thirds, plus exact repeats of
   earlier requests.

   An open loop (seeded Poisson arrivals, latency from the due time)
   was measured first and dropped: on a shared 2-vCPU host, short
   stalls queue up behind one another, and in four interleaved runs of
   one seed its p90 spread 0.64 where the closed loop's spread 0.09. *)

open Util
module Gen = Workload.Generate
module Io = Workload.Io
module Q = Rational
module P = Serve.Protocol
module CI = Core.Instance
module CR = Core.Result

(* requests per second of --seconds in one pass, and passes: one pass
   takes about 4 s on the host this was tuned on *)
let requests_per_second = 100
let passes = 5
let repeat_share = 0.4
let g = 3
let warmup_requests = 150

(* requests per block between two host probes: about 0.4 s *)
let block = 200

type kind = Minimal | Flexible | Interval

type request = { rid : int; kind : kind; instance : Io.instance; body : (string * J.t) list }

let algorithm = function Minimal -> "minimal" | Flexible | Interval -> "greedy-tracking"

(* Generate, render, parse back; slotted instances are redrawn until
   feasible. Sizes are drawn from ranges, so service times spread out
   without gaps for a percentile to fall into. *)
let rec draw next st rid kind =
  let seed = next () in
  let size lo hi = lo + Random.State.int st (hi - lo + 1) in
  let instance =
    match kind with
    | Minimal ->
        let n = size 16 32 in
        let params : Gen.slotted_params = { n; horizon = n * 5 / 3; max_length = 5; slack = 8; g } in
        Io.Slotted_instance (Gen.slotted ~params ~seed ())
    | Flexible -> Io.Busy_instance (Gen.diurnal_flexible_jobs ~n:(size 30 90) ~horizon:48 ~max_length:6 ~seed ())
    | Interval -> Io.Busy_instance (Gen.interval_jobs ~n:(size 40 120) ~horizon:60 ~max_length:10 ~seed ())
  in
  let text = Io.to_string instance in
  match Io.parse_string text with
  | Io.Slotted_instance s when not (Active_lp.feasible s) -> draw next st rid kind
  | parsed ->
      let g_field = match kind with Minimal -> [] | Flexible | Interval -> [ ("g", J.Int g) ] in
      {
        rid;
        kind;
        instance = parsed;
        body = ("instance", J.String text) :: ("algorithm", J.String (algorithm kind)) :: g_field;
      }

let line seq r = J.to_string (J.Obj (("id", J.Int seq) :: r.body))

(* The op list: [n] requests with exact kind and repeat counts in a
   seeded order. A repeat copies a uniformly drawn earlier request, so
   with more distinct requests than the daemon's 1024-entry memo some
   repeats miss it. *)
type plan = { reqs : request array; distinct : request array; lines : string array }

let plan ~seed ~salt ~n =
  let repeats = int_of_float (Float.round (repeat_share *. float_of_int n)) in
  let st = rng ~seed ~salt in
  let slots =
    Array.init n (fun j ->
        if j >= n - repeats then None else Some [| Minimal; Flexible; Interval |].(j mod 3))
  in
  shuffle st slots;
  (* a repeat needs an earlier original *)
  (match Array.find_index Option.is_some slots with
  | Some j when j > 0 ->
      slots.(0) <- slots.(j);
      slots.(j) <- None
  | _ -> ());
  let next = seeds ~seed ~salt:(salt + 1) in
  let distinct = Array.make (n - repeats) { rid = 0; kind = Minimal; instance = Io.Busy_instance []; body = [] } in
  let count = ref 0 in
  let reqs =
    Array.map
      (function
        | Some kind ->
            let r = draw next st !count kind in
            distinct.(!count) <- r;
            incr count;
            r
        | None -> distinct.(Random.State.int st !count))
      slots
  in
  { reqs; distinct; lines = Array.mapi line reqs }

type stream = {
  sent : float array;
  emitted : float array;
  out : string array;
  probes : float array;  (** one before each block and one at the end *)
  failure : exn option;
}

(* One pass of [p] through a fresh daemon. Before each block of
   requests, while the daemon is idle, the client takes a paired probe
   (Util.pair_probe_ms): the daemon's two domains join each other's
   stop-the-world collections, so a stall on either vCPU slows it. *)
let stream ?(obs = Obs.null) ~timing p =
  let n = Array.length p.lines in
  let sent = Array.make n 0. and emitted = Array.make n 0. and out = Array.make n "" in
  let probes = Array.make (((n + block - 1) / block) + 1) 0. in
  let next = ref 0 and count = Atomic.make 0 in
  let next_line () =
    let k = !next in
    if k >= n then None
    else begin
      while Atomic.get count < k do
        Domain.cpu_relax ()
      done;
      if k mod block = 0 then probes.(k / block) <- pair_probe_ms ();
      sent.(k) <- now ();
      next := k + 1;
      Some p.lines.(k)
    end
  in
  (* responses leave in request order, under the emitter's lock *)
  let emit l =
    let k = Atomic.get count in
    if k < n then begin
      emitted.(k) <- now ();
      out.(k) <- l
    end;
    Atomic.set count (k + 1)
  in
  let config = { (Serve.default_config ()) with Serve.domains = 1; timing } in
  let failure = Serve.run_stream ~obs ~config ~next_line ~emit () in
  probes.(Array.length probes - 1) <- pair_probe_ms ();
  { sent; emitted; out; probes; failure }

(* Lower bounds, per distinct request: LP1 (float-certified engine) for
   active answers; Busy.Bounds.best of the greedy placement for busy
   ones, which pins the jobs the daemon packs. *)
let bound r =
  match (r.kind, r.instance) with
  | Minimal, Io.Slotted_instance inst -> Active_lp.lp1 inst
  | Flexible, Io.Busy_instance jobs ->
      Busy.Bounds.best ~g (Busy.Pipeline.place Busy.Pipeline.Greedy_placement jobs)
  | Interval, Io.Busy_instance jobs -> Busy.Bounds.best ~g jobs
  | _ -> invalid_arg "Serve_open.bound"

(* Check response [k]: well-formed, in order, status ok, cost at least
   the lower bound. Returns the verdict and the cost. *)
let check bounds k r resp =
  match J.parse resp with
  | Error e -> (Wrong ("unparsable response: " ^ e), None)
  | Ok doc -> (
      let field name = J.member name doc in
      match (field "id", field "status") with
      | Some (J.Int id), _ when id <> k -> (Wrong (Printf.sprintf "response %d answers request %d" k id), None)
      | _, Some (J.String "ok") -> (
          let cost =
            match field "cost" with
            | Some (J.Int c) -> Some (Q.of_int c)
            | Some (J.String s) -> ( try Some (Q.of_string s) with _ -> None)
            | _ -> None
          in
          match cost with
          | None -> (Wrong "ok response without a cost", None)
          | Some c when Q.compare c bounds.(r.rid) < 0 -> (Wrong "cost below the lower bound", Some c)
          | Some c -> (Pass, Some c))
      | _, Some (J.String "infeasible") -> (Wrong "feasible instance answered infeasible", None)
      | _, Some (J.String s) -> (Failed ("status " ^ s), None)
      | _ -> (Wrong "response without a status", None))

let setup ~seed ~n () =
  let p = plan ~seed ~salt:10 ~n in
  let warm = plan ~seed:warmup_seed ~salt:20 ~n:warmup_requests in
  let config =
    { (Serve.default_config ()) with Serve.domains = 1; queue_capacity = warmup_requests }
  in
  ignore (Serve.run_lines ~config (Array.to_list warm.lines));
  p

(* The daemon's busy path and active path, step by step, on the same
   requests in the same order, against a memo of the daemon's capacity.
   Charges each public call to its layer for the op and returns each
   request's answer, the core of its response. *)
let replay ~obs tr p =
  let memo = Core.Session.Memo.create ~capacity:(Serve.default_config ()).Serve.cache_capacity in
  Array.mapi
    (fun k l ->
      let layer name f = Tracer.timed tr name k f in
      match layer "serve.decode" (fun () -> P.decode_line ~seq:k l) with
      | Error e -> failwith ("replay decode: " ^ e)
      | Ok req -> (
          let key = layer "serve.key" (fun () -> P.cache_key req) in
          match Core.Session.Memo.find memo key with
          | Some core ->
              ignore (layer "serve.encode" (fun () -> P.to_line ~id:req.P.id ~cache:(Some "hit") core));
              core
          | None ->
              let cost =
                match req.P.instance with
                | Io.Slotted_instance inst -> (
                    let solver = Core.Registry.find_exn CI.Active_slotted req.P.algorithm in
                    let r =
                      layer "active.minimal" (fun () -> solver.Core.Solver.solve ~obs ~params:[] (CI.Slotted inst))
                    in
                    match r.CR.witness with
                    | Some (CR.Opened { open_slots; schedule }) ->
                        ignore
                          (layer "active.verify" (fun () ->
                               Active.Solution.verify inst { Active.Solution.open_slots; schedule }));
                        J.Int (List.length open_slots)
                    | _ -> J.Null)
                | Io.Busy_instance jobs -> (
                    let pinned =
                      layer "busy.place" (fun () ->
                          Busy.Pipeline.place Busy.Pipeline.Greedy_placement jobs)
                    in
                    let solver = Core.Registry.find_exn CI.Busy_interval req.P.algorithm in
                    let r =
                      layer "busy.solve" (fun () ->
                          solver.Core.Solver.solve ~obs ~params:[]
                            (CI.Interval { g = req.P.g; jobs = pinned }))
                    in
                    match r.CR.witness with
                    | Some (CR.Packing packing) ->
                        ignore (layer "busy.check" (fun () -> Busy.Bundle.check ~g:req.P.g pinned packing));
                        J.String (Q.to_string (Busy.Bundle.total_busy packing))
                    | _ -> J.Null)
              in
              let core =
                layer "serve.encode" (fun () ->
                    let core =
                      {
                        P.status = "ok";
                        algorithm_used = Some req.P.algorithm;
                        instance_json = P.instance_json req;
                        cost;
                        message = None;
                        provenance = J.Null;
                        ticks = 0;
                      }
                    in
                    ignore (P.to_line ~id:req.P.id ~cache:(Some "miss") core);
                    core)
              in
              Core.Session.Memo.store memo key core;
              core))
    p.lines

(* The replay must give the daemon's answer to every request; when it
   does not, its layer times describe some other path. *)
let same_answer resp (core : P.core) =
  match J.parse resp with
  | Ok doc -> J.member "status" doc = Some (J.String core.P.status) && J.member "cost" doc = Some core.P.cost
  | Error _ -> false

let layer_names =
  [ "serve.key"; "active.minimal"; "active.verify"; "busy.place"; "busy.solve"; "busy.check"; "serve.encode" ]

(* per request, from its send to its response, in ms *)
let latencies s = Array.mapi (fun k t -> (t -. s.sent.(k)) *. 1000.) s.emitted

(* the client's turnaround: from a response to the next request, except
   across a probe *)
let lags s =
  Array.of_list
    (List.filter_map
       (fun k -> if k mod block = 0 then None else Some ((s.sent.(k) -. s.emitted.(k - 1)) *. 1000.))
       (List.init (Array.length s.sent) Fun.id))

let elapsed_us resp =
  match J.parse resp with
  | Ok doc -> ( match J.member "elapsed_us" doc with Some (J.Int us) -> float_of_int us /. 1000. | _ -> nan)
  | Error _ -> nan

let run ~seed ~seconds ~trace =
  let n = requests_per_second * seconds in
  let p, setup = repeat_setup 5 (setup ~seed ~n) in
  let meta =
    [
      ("loop", J.String "closed");
      ("requests", J.Int n);
      ("distinct_requests", J.Int (Array.length p.distinct));
      ("passes", J.Int (if trace then 1 else passes));
      ( "sizes",
        J.String
          "minimal: slotted n 16-32, T 5n/3, max length 5, slack 8; greedy-tracking: diurnal flexible n 30-90, T 48 and interval n 40-120, T 60; g 3"
      );
    ]
  in
  let bounds = lazy (Array.map bound p.distinct) in
  (* verdicts of one pass, its cost ratio and answer digest *)
  let finish s =
    let bounds = Lazy.force bounds in
    let checked = Array.mapi (fun k r -> check bounds k r s.out.(k)) p.reqs in
    let verdicts = Array.map fst checked in
    let verdicts =
      match s.failure with
      | Some e -> Array.append verdicts [| Failed ("response stream: " ^ Printexc.to_string e) |]
      | None -> verdicts
    in
    let cost = ref 0. and lower = ref 0. in
    Array.iteri
      (fun k (_, c) ->
        match c with
        | Some c ->
            cost := !cost +. Q.to_float c;
            lower := !lower +. Q.to_float bounds.(p.reqs.(k).rid)
        | None -> ())
      checked;
    let digest =
      Obs.digest
        (String.concat ";"
           (Array.to_list (Array.map (function _, Some c -> Q.to_string c | _, None -> "-") checked)))
    in
    (verdicts, !cost /. !lower, digest)
  in
  let ok verdicts = Array.fold_left (fun acc v -> if v = Pass then acc + 1 else acc) 0 verdicts in
  if not trace then begin
    (* Each pass runs a fresh daemon on the same list, so it must send
       the first pass's response lines byte for byte. Of a later pass
       only that comparison, its latencies and its probes are kept. *)
    let pass () =
      let s = stream ~timing:false p in
      let raw = latencies s in
      (s, raw, Array.mapi (fun k ms -> ms *. scale s.probes (k / block)) raw)
    in
    let first, raw0, scaled0 = pass () in
    let verdicts, cost_ratio, digest = finish first in
    let later =
      List.init (passes - 1) (fun _ ->
          let s, raw, scaled = pass () in
          ( Array.mapi
              (fun k l -> if String.equal l first.out.(k) then verdicts.(k) else Wrong "response changed between passes")
              s.out,
            raw,
            scaled,
            s.probes ))
    in
    let all f = Array.concat (List.map f later) in
    let verdicts = Array.append verdicts (all (fun (v, _, _, _) -> v)) in
    let failures, wrong = tally verdicts in
    let raw = Array.append raw0 (all (fun (_, r, _, _) -> r)) in
    let scaled = Array.append scaled0 (all (fun (_, _, sc, _) -> sc)) in
    let per_s ms = float_of_int (ok verdicts) /. (sum ms /. 1000.) in
    let lag = lags first in
    {
      setup; attempted = n * passes; failures; wrong; ops_per_s = per_s scaled; raw_ops_per_s = per_s raw;
      latencies_ms = scaled; raw_latencies_ms = raw; probes = Array.append first.probes (all (fun (_, _, _, pr) -> pr));
      cost_ratio; sla_miss_share = None; digest;
      meta =
        meta
        @ [ ("gen.lag_p90_ms", J.Float (percentile lag 0.9)); ("gen.lag_max_ms", J.Float (Array.fold_left Float.max 0. lag)) ];
      layers = [];
    }
  end
  else begin
    let untraced = stream ~timing:false p in
    let obs = Obs.create () in
    let traced = stream ~obs ~timing:true p in
    let verdicts, _, digest = finish traced in
    let tr_a = Tracer.create n and tr_b = Tracer.create n in
    let obs_a = Obs.create () and obs_b = Obs.create () in
    let answers = replay ~obs:obs_a tr_a p in
    ignore (replay ~obs:obs_b tr_b p);
    let repeat = Obs.counters obs_a = Obs.counters obs_b in
    let diverged = List.filter (fun k -> not (same_answer traced.out.(k) answers.(k))) (List.init n Fun.id) in
    (* side calls, one per distinct request: the instance parse inside
       decode, and LP1 of the slotted instances (off the op path) *)
    let side = Tracer.create (Array.length p.distinct) in
    Array.iter
      (fun r ->
        (match List.assoc "instance" r.body with
        | J.String text -> ignore (Tracer.timed side "workload.parse" r.rid (fun () -> Io.parse_string text))
        | _ -> ());
        match r.instance with
        | Io.Slotted_instance inst ->
            ignore (Tracer.timed side "lp.solve" r.rid (fun () -> Active.Lp_model.solve ~obs:(Obs.create ()) inst))
        | Io.Busy_instance _ -> ())
      p.distinct;
    let lp_times =
      Array.of_list
        (List.filter_map
           (fun r -> if r.kind = Minimal then Some (Tracer.per_op side "lp.solve").(r.rid) else None)
           (Array.to_list p.distinct))
    in
    let both layer k = ((Tracer.per_op tr_a layer).(k) +. (Tracer.per_op tr_b layer).(k)) /. 2. in
    let op = latencies traced and lag = lags traced in
    let service = Array.map elapsed_us traced.out in
    let decode = Array.init n (both "serve.decode") in
    let wait = Array.init n (fun k -> op.(k) -. decode.(k) -. service.(k)) in
    let other =
      Array.init n (fun k -> service.(k) -. List.fold_left (fun acc l -> acc +. both l k) 0. layer_names)
    in
    let verdicts =
      Array.concat
        [
          verdicts;
          (if repeat then [||] else [| Wrong "work counters differ between the two traced replays" |]);
          (match diverged with
          | [] -> [||]
          | k :: _ ->
              [|
                Wrong
                  (Printf.sprintf "the step-by-step replay answers %d requests unlike the daemon (first: %d)"
                     (List.length diverged) k);
              |]);
          (* the replay's calls run apart from the daemon, seconds later,
             so host drift alone can make their sum exceed its service
             time by a third; skipping a step the replay takes (placement
             is about half of a busy request) makes it twice as long *)
          (if mean other < -0.5 *. mean service then
             [| Wrong "serve.other_ms < -50% of service: the replay does more than the daemon" |]
           else [||]);
        ]
    in
    let failures, wrong = tally verdicts in
    let layer_mean l = mean (Array.init n (both l)) in
    let per_op name = float_of_int (counter obs_a name) /. float_of_int n in
    let accepted = counter obs "serve.requests" - counter obs "serve.shed" - counter obs "serve.parse_errors" in
    let untraced_ms = mean (latencies untraced) in
    let layers =
      [
        ("trace.op_ms", mean op);
        ("trace.other_ms", mean other);
        ("trace.overhead_pct", (mean op -. untraced_ms) /. untraced_ms *. 100.);
        ("workload.parse_ms", mean (Tracer.per_op side "workload.parse"));
        ("lp.solve_ms", mean lp_times);
        ("lp.solve_p50_ms", percentile lp_times 0.5);
        ("lp.solve_p90_ms", percentile lp_times 0.9);
        ("active.minimal_ms", layer_mean "active.minimal");
        ("active.verify_ms", layer_mean "active.verify");
        ("busy.place_ms", layer_mean "busy.place");
        ("busy.solve_ms", layer_mean "busy.solve");
        ("busy.check_ms", layer_mean "busy.check");
        ("serve.decode_ms", mean decode);
        ("serve.key_ms", layer_mean "serve.key");
        ("serve.encode_ms", layer_mean "serve.encode");
        ("serve.service_p50_ms", percentile service 0.5);
        ("serve.service_p90_ms", percentile service 0.9);
        ("serve.queue_wait_ms", mean wait);
        ("serve.queue_wait_p90_ms", percentile wait 0.9);
        ("serve.other_ms", mean other);
        ("serve.memo_hit_ratio", ratio (counter obs "serve.cache_hits") accepted);
        ("serve.shed", float_of_int (counter obs "serve.shed"));
        ("flow.augmentations", per_op "flow.augmentations");
        ("gen.lag_ms", mean lag);
        ("gen.lag_p90_ms", percentile lag 0.9);
      ]
    in
    {
      setup; attempted = n; failures; wrong; ops_per_s = float_of_int (ok verdicts) /. (sum op /. 1000.);
      raw_ops_per_s = float_of_int (ok verdicts) /. (sum op /. 1000.); latencies_ms = op; raw_latencies_ms = op;
      probes = traced.probes; cost_ratio = nan; sla_miss_share = None; digest;
      meta = meta @ [ ("counters_repeat", J.Bool repeat); ("replay_diverged", J.Int (List.length diverged)) ];
      layers;
    }
  end
