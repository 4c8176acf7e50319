(* The batched solve daemon. One reader (the calling domain) decodes
   request lines and feeds a bounded queue; [config.domains] worker
   domains drain it, solve under [Pool.run_isolated], and submit their
   responses to an ordered emitter so output order always matches input
   order regardless of which worker finishes first.

   The invariant everything here serves: one request line in, exactly
   one well-formed response line out, and no fault — malformed line,
   solver exception, exhausted budget, expired deadline, injected crash,
   shed request — ever takes the daemon down with it. *)

module Bqueue = Bqueue
module Inject = Inject
module Protocol = Protocol
module J = Obs.Json
module CI = Core.Instance
module CR = Core.Result
module CS = Core.Solver
module Io = Workload.Io

type config = {
  domains : int;
  queue_capacity : int;
  default_budget : int option;
  cache_capacity : int;
  inject : Inject.t;
  timing : bool;
  now : unit -> float;
  sleep : float -> unit;
}

let default_config () =
  {
    domains = Parallel.Pool.default_domains ();
    queue_capacity = 64;
    default_budget = Some 500_000;
    cache_capacity = 1024;
    inject = Inject.none ();
    timing = false;
    now = Unix.gettimeofday;
    sleep = Unix.sleepf;
  }

(* ------------------------------------------------------------- stats -- *)

(* Counters shared across domains. Obs recorders are single-domain, so
   the daemon keeps its own atomics and merges them into the caller's
   [?obs] once the workers have joined. *)
module Stats = struct
  let names =
    [ "requests"; "responses"; "parse_errors"; "shed";
      "cache_hits"; "cache_misses";
      "injected_crashes"; "injected_delays"; "injected_corruptions";
      "status.ok"; "status.degraded"; "status.infeasible";
      "status.timeout"; "status.error"; "status.overloaded" ]

  type t = (string * int Atomic.t) list

  let create () : t = List.map (fun n -> (n, Atomic.make 0)) names

  let incr (t : t) name =
    match List.assoc_opt name t with
    | Some a -> Atomic.incr a
    | None -> invalid_arg ("Serve.Stats.incr: unknown counter " ^ name)

  let merge (t : t) obs =
    List.iter (fun (n, a) -> Obs.add obs ("serve." ^ n) (Atomic.get a)) t
end

(* ---------------------------------------------------------- memo cache -- *)

(* Bounded FIFO memo of [Protocol.core] answers keyed on the request
   digest: [Core.Session.Memo]. Each [run_stream] creates its own. *)
module Cache = Core.Session.Memo

(* ------------------------------------------------------ ordered output -- *)

(* Reorder buffer: workers finish in any order, responses leave in
   sequence order. Every line number is submitted exactly once (by the
   reader for parse errors and shed requests, by a worker otherwise),
   so the buffer always drains. *)
module Emitter = struct
  type t = {
    m : Mutex.t;
    mutable next : int;
    pending : (int, string) Hashtbl.t;
    emit : string -> unit;
  }

  let create emit = { m = Mutex.create (); next = 0; pending = Hashtbl.create 16; emit }

  let submit t seq line =
    Mutex.protect t.m (fun () ->
        Hashtbl.replace t.pending seq line;
        let rec flush () =
          match Hashtbl.find_opt t.pending t.next with
          | Some l ->
              Hashtbl.remove t.pending t.next;
              t.emit l;
              t.next <- t.next + 1;
              flush ()
          | None -> ()
        in
        flush ())
end

(* ------------------------------------------------------------ solving -- *)

let degraded_provenance = function
  | None -> false
  | Some (p : CR.objective Budget.Cascade.provenance) ->
      List.exists
        (fun (a : Budget.Cascade.attempt) -> a.Budget.Cascade.status = Budget.Cascade.Tier_exhausted)
        p.Budget.Cascade.attempts

(* Run the registered solver for [req] through [Registry.run], which
   checks any witness it returns; busy jobs are pinned by greedy
   placement first. Raises (Unsupported, Bad_result, Deadline_exceeded,
   Injected_fault, or a genuine solver bug) — the caller isolates. *)
let solve_request cfg (req : Protocol.request) budget =
  if Inject.should_crash cfg.inject then
    raise (Inject.Injected_fault "injected worker crash");
  let kind, inst =
    match req.Protocol.instance with
    | Io.Slotted_instance inst -> (CI.Active_slotted, CI.Slotted inst)
    | Io.Busy_instance jobs ->
        let pinned = Busy.Pipeline.place Busy.Pipeline.Greedy_placement jobs in
        (CI.Busy_interval, CI.Interval { g = req.Protocol.g; jobs = pinned })
  in
  let solver = Core.Registry.find_exn kind req.Protocol.algorithm in
  (solver, Core.Registry.run solver ~budget ~params:req.Protocol.params inst)

let deadline_message (req : Protocol.request) ticks =
  match req.Protocol.deadline_ms with
  | Some ms -> Printf.sprintf "deadline of %dms expired after %d ticks" ms ticks
  | None -> Printf.sprintf "deadline expired after %d ticks" ticks

(* The response core of [req]: its algorithm and instance, and the
   rest as given. *)
let core (req : Protocol.request) ?(cost = J.Null) ?(provenance = J.Null) ~ticks status message =
  {
    Protocol.status;
    algorithm_used = Some req.Protocol.algorithm;
    instance_json = Protocol.instance_json req;
    cost;
    message;
    provenance;
    ticks;
  }

(* Map a finished solve onto a response core. [deadline_hit] is the
   probe's flag: when it fired, the answer (whatever shape the unwinding
   left — an infeasible cascade result carrying the partial attempt
   list, usually) is reported as a timeout, with that provenance. *)
let core_of_result (req : Protocol.request) budget ~deadline_hit (solver : CS.t) (r : CR.t) =
  let ticks =
    (* composite solvers burn fresh per-tier budgets, not the request
       budget — their spend lives in the provenance attempts *)
    match r.CR.provenance with
    | Some p when p.Budget.Cascade.attempts <> [] -> Budget.Cascade.spent p
    | _ -> Budget.spent budget
  in
  let prov = CR.provenance_to_json r.CR.provenance in
  let mk status cost message = core req ~cost ~provenance:prov ~ticks status message in
  if deadline_hit then mk "timeout" J.Null (Some (deadline_message req ticks))
  else
    match r.CR.status with
    | CR.Solved ->
        let cost = match r.CR.objective with Some o -> CR.objective_to_json o | None -> J.Null in
        let status = if degraded_provenance r.CR.provenance then "degraded" else "ok" in
        mk status cost r.CR.note
    | CR.Infeasible -> mk "infeasible" J.Null r.CR.note
    | CR.Exhausted { spent } -> (
        match r.CR.objective with
        | Some obj ->
            mk "degraded" (CR.objective_to_json obj)
              (Some
                 (Printf.sprintf "%s after %d ticks; best incumbent kept"
                    solver.CS.exhausted_hint spent))
        | None ->
            mk "error" J.Null
              (Some (Printf.sprintf "%s after %d ticks" solver.CS.exhausted_hint spent)))

let timeout_core (req : Protocol.request) budget =
  let ticks = Budget.spent budget in
  core req ~ticks "timeout" (Some (deadline_message req ticks))

let fault_core (req : Protocol.request) budget exn =
  let message =
    match exn with
    | Inject.Injected_fault m -> "worker fault: " ^ m
    | CS.Unsupported m -> m
    | CS.Bad_result m -> "internal: " ^ m
    | e -> "worker fault: " ^ Printexc.to_string e
  in
  core req ~ticks:(Budget.spent budget) "error" (Some message)

let cacheable (core : Protocol.core) =
  match core.Protocol.status with "ok" | "degraded" | "infeasible" -> true | _ -> false

(* Handle one accepted request on a worker domain. Returns the response
   core plus its cache disposition. Never raises: the solve itself runs
   under [Pool.run_isolated], and everything around it is total. *)
let handle cfg stats cache ~arrival (req : Protocol.request) =
  let key = Protocol.cache_key req in
  match Cache.find cache key with
  | Some core ->
      Stats.incr stats "cache_hits";
      (core, Some "hit")
  | None ->
      Stats.incr stats "cache_misses";
      (match Inject.delay_ms cfg.inject with
      | Some ms ->
          Stats.incr stats "injected_delays";
          cfg.sleep (float_of_int ms /. 1000.0)
      | None -> ());
      let budget =
        match (req.Protocol.budget, cfg.default_budget) with
        | Some n, _ -> Budget.limited n
        | None, Some n -> Budget.limited n
        | None, None -> Budget.unlimited ()
      in
      let deadline_hit = ref false in
      (match req.Protocol.deadline_ms with
      | Some ms ->
          let expiry = arrival +. (float_of_int ms /. 1000.0) in
          Budget.set_deadline budget (fun () ->
              let expired = cfg.now () >= expiry in
              if expired then deadline_hit := true;
              expired)
      | None -> ());
      let core =
        match Parallel.Pool.run_isolated (fun () -> solve_request cfg req budget) with
        | Ok (solver, r) -> core_of_result req budget ~deadline_hit:!deadline_hit solver r
        | Error Budget.Deadline_exceeded -> timeout_core req budget
        | Error exn ->
            (match exn with
            | Inject.Injected_fault _ -> Stats.incr stats "injected_crashes"
            | _ -> ());
            fault_core req budget exn
      in
      if cacheable core then Cache.store cache key core;
      (core, Some "miss")

(* -------------------------------------------------------------- daemon -- *)

type job = { seq : int; arrival : float; request : Protocol.request }

(* [started] is when processing began (dequeue on a worker, read time on
   the reader's own error paths): elapsed_us is service time, excluding
   queue wait, so cold-vs-memoized comparisons measure the solve. *)
let respond cfg stats (emitter : Emitter.t) ~seq ~started ~id ~cache (core : Protocol.core) =
  Stats.incr stats "responses";
  Stats.incr stats ("status." ^ core.Protocol.status);
  let elapsed_us =
    if cfg.timing then Some (int_of_float ((cfg.now () -. started) *. 1e6)) else None
  in
  Emitter.submit emitter seq (Protocol.to_line ?elapsed_us ~id ~cache core)

let run_stream ?(obs = Obs.null) ?config ~next_line ~emit () =
  let cfg = match config with Some c -> c | None -> default_config () in
  let stats = Stats.create () in
  let cache = Cache.create ~capacity:cfg.cache_capacity in
  let emitter = Emitter.create emit in
  let queue : job Bqueue.t = Bqueue.create ~capacity:(max 1 cfg.queue_capacity) in
  (* The response channel is the one dependency no structured response
     can route around: if [emit] raises (closed stdout, broken pipe),
     the client can no longer hear any answer. That fault shuts the
     daemon down in an orderly way instead of escaping a worker domain
     and re-raising from Domain.join: the first failure is recorded,
     the queue closes so every worker drains and exits, the reader
     stops, and the caller gets the exception back after the join. *)
  let output_failure = Atomic.make None in
  let output_dead () = Atomic.get output_failure <> None in
  let respond_or_fail ~seq ~started ~id ~cache:dispo core =
    if not (output_dead ()) then
      try respond cfg stats emitter ~seq ~started ~id ~cache:dispo core
      with exn ->
        if Atomic.compare_and_set output_failure None (Some exn) then Bqueue.close queue
  in
  let worker () =
    let rec loop () =
      match Bqueue.pop queue with
      | None -> ()
      | Some { seq; arrival; request } ->
          if output_dead () then loop () (* just drain: nobody can hear answers *)
          else begin
            let started = cfg.now () in
            let core, cache_disposition =
              (* [handle] is total, but a bug in the response path itself
                 must not kill the worker either: belt and braces. *)
              match Parallel.Pool.run_isolated (fun () -> handle cfg stats cache ~arrival request) with
              | Ok v -> v
              | Error exn ->
                  (Protocol.error_core ("worker fault: " ^ Printexc.to_string exn), None)
            in
            respond_or_fail ~seq ~started ~id:request.Protocol.id
              ~cache:cache_disposition core;
            loop ()
          end
    in
    loop ()
  in
  let workers = List.init (max 1 cfg.domains) (fun _ -> Domain.spawn worker) in
  let rec read seq =
    if output_dead () then ()
    else
      match next_line () with
      | None -> ()
      | Some line ->
          Stats.incr stats "requests";
          let arrival = cfg.now () in
          let line =
            match Inject.corrupt_line cfg.inject line with
            | Some mutated ->
                Stats.incr stats "injected_corruptions";
                mutated
            | None -> line
          in
          let decoded =
            (* decode_line promises totality (the parser-fuzz target is
               the gate); this is the reader's belt and braces — a
               decoder bug must answer "error", not kill the daemon *)
            try Protocol.decode_line ~seq line
            with exn -> Error ("request decode raised: " ^ Printexc.to_string exn)
          in
          (match decoded with
          | Error msg ->
              Stats.incr stats "parse_errors";
              respond_or_fail ~seq ~started:arrival ~id:(J.Int seq) ~cache:None
                (Protocol.error_core msg)
          | Ok request ->
              if not (Bqueue.try_push queue { seq; arrival; request }) then begin
                Stats.incr stats "shed";
                respond_or_fail ~seq ~started:arrival ~id:request.Protocol.id ~cache:None
                  Protocol.overloaded_core
              end);
          read (seq + 1)
  in
  read 0;
  Bqueue.close queue;
  List.iter Domain.join workers;
  Stats.merge stats obs;
  Atomic.get output_failure

let run ?obs ?config ic oc =
  (* a client that hangs up must surface as Sys_error (EPIPE) on the
     next write — the orderly-shutdown path above — not kill the whole
     process with SIGPIPE before the guard can see it *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let next_line () = match input_line ic with line -> Some line | exception End_of_file -> None in
  let emit line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  match run_stream ?obs ?config ~next_line ~emit () with
  | None -> 0
  | Some exn ->
      Printf.eprintf "atbt serve: response stream failed: %s\n%!" (Printexc.to_string exn);
      (* the channel is dead; drop its buffered residue now so the
         runtime's at-exit flush cannot re-raise out of the process
         (flush on a closed channel is a documented no-op) *)
      close_out_noerr oc;
      1

let run_lines ?obs ?config lines =
  let remaining = ref lines in
  let collected = ref [] in
  let m = Mutex.create () in
  let next_line () =
    match !remaining with
    | [] -> None
    | line :: rest ->
        remaining := rest;
        Some line
  in
  let emit line = Mutex.protect m (fun () -> collected := line :: !collected) in
  (match run_stream ?obs ?config ~next_line ~emit () with
  | None -> ()
  | Some exn -> raise exn (* a list push cannot fail; surface the bug *));
  List.rev !collected
