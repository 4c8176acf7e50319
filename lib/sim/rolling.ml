(* Rolling-horizon re-optimization. See rolling.mli for the epoch
   semantics; the warm state lives in a record the run owns (the
   full-instance feasibility oracle and the pinned LP1 model with its
   last optimal basis), so the cold baseline is literally the same code
   run against a fresh record each epoch. *)

module Q = Rational
module S = Workload.Slotted
module B = Workload.Bjob
module CI = Core.Instance
module CR = Core.Result
module Cascade = Budget.Cascade
module Oracle = Active.Feasibility.Oracle

type epoch = {
  index : int;
  now : int;
  arrived : int;
  window_jobs : int;
  opened : int list;
  energy : int;
  work : int;
  completed : int;
  sla_misses : int;
  feasible : bool;
  lower_bound : Q.t option;
  ticks : int;
  lp_work : int;
  warm_hits : int;
  degraded : bool;
  provenance : CR.objective Cascade.provenance option;
}

type run = {
  instance : S.t;
  epoch_len : int;
  algorithm : string;
  warm : bool;
  epochs : epoch list;
  schedule : S.schedule;
  open_slots : int list;
  total_energy : int;
  total_work : int;
  total_misses : int;
  completed_jobs : int;
  replay : Replay.report option;
}

type config = {
  epoch_len : int;
  lookahead : int option;
  algorithm : string;
  epoch_budget : int option;
  epoch_deadline : (unit -> unit -> bool) option;
  warm : bool;
}

let default_config =
  {
    epoch_len = 4;
    lookahead = None;
    algorithm = "cascade";
    epoch_budget = Some 500_000;
    epoch_deadline = None;
    warm = true;
  }

let of_busy ~g jobs =
  let to_int what id q =
    match Q.to_int q with
    | Some n when n >= 0 -> n
    | _ ->
        invalid_arg
          (Printf.sprintf "Rolling.of_busy: job %d has non-integral %s %s" id what (Q.to_string q))
  in
  let slotted (j : B.t) =
    S.job ~id:j.B.id ~release:(to_int "release" j.B.id j.B.release)
      ~deadline:(to_int "deadline" j.B.id j.B.deadline)
      ~length:(to_int "length" j.B.id j.B.length)
  in
  S.make ~g (List.map slotted jobs)

(* ------------------------------------------------------- mutable state -- *)

type jstate = {
  job : S.job;
  arrival : int;
  mutable remaining : int;
  mutable committed : int list;  (* reverse order of commitment *)
  mutable missed : bool;
}

(* The warm feasibility oracle over the full instance. [o_active]
   tracks which job ids are wired in, [closed_upto] how far the
   passed-unopened slot closures have been applied, so each epoch only
   pushes the delta onto the warm residual graph. *)
type oracle_state = {
  oracle : Oracle.t;
  o_active : (int, unit) Hashtbl.t;
  mutable closed_upto : int;
}

(* The pinned LP1 lower bound. Rebuilt only when the missed set grows
   (the model excludes missed jobs); otherwise the decided y variables
   are pinned in place and the cut loop resumes from the previous
   optimal basis with every row found so far — the bound-only
   dual-repair path. *)
type lp_state = { l_missed : int; lp1 : Active.Lp_model.lp1 }

(* The run's warm state, each piece [None] until first built. A warm
   run keeps one record across epochs; a cold run takes a fresh one each
   epoch. *)
type warm = { mutable w_oracle : oracle_state option; mutable w_lp : lp_state option }

let fresh () = { w_oracle = None; w_lp = None }

(* Fetch one piece of warm state: a stored value passing [validate] is
   reused ([session.warm_hits]), a stale one is rebuilt
   ([session.rebuilds]), an absent one is built cold
   ([session.warm_misses]). *)
let reuse ~obs stored ~validate ~build =
  match stored with
  | Some v when validate v ->
      Obs.incr obs "session.warm_hits";
      v
  | Some _ ->
      Obs.incr obs "session.rebuilds";
      build ()
  | None ->
      Obs.incr obs "session.warm_misses";
      build ()

(* Deterministic earliest-deadline-first commit for degraded epochs:
   fill the slots of the commit window in order, each up to [g] units,
   jobs by (deadline, id). Greedy — it never idles a slot that has
   eligible work, trading energy for progress, which is the right bias
   when the solver could not answer. *)
let edf_commit ~g ~now ~epoch_len wjobs =
  let order =
    List.sort
      (fun ((a : jstate), _) ((b : jstate), _) ->
        let c = compare a.job.S.deadline b.job.S.deadline in
        if c <> 0 then c else compare a.job.S.id b.job.S.id)
      wjobs
  in
  let rem = Hashtbl.create 16 in
  List.iter (fun ((js : jstate), _) -> Hashtbl.replace rem js.job.S.id js.remaining) order;
  let assigned = Hashtbl.create 16 in
  for t = now + 1 to now + epoch_len do
    let cap = ref g in
    List.iter
      (fun ((js : jstate), release') ->
        let id = js.job.S.id in
        let r = Hashtbl.find rem id in
        if !cap > 0 && r > 0 && release' < t && t <= js.job.S.deadline then begin
          decr cap;
          Hashtbl.replace rem id (r - 1);
          let prev = Option.value (Hashtbl.find_opt assigned id) ~default:[] in
          Hashtbl.replace assigned id (t :: prev)
        end)
      order
  done;
  Hashtbl.fold (fun id ts acc -> (id, List.rev ts) :: acc) assigned []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let run ?(obs = Obs.null) ?(config = default_config) ?(arrivals = []) (inst : S.t) =
  let cfg = config in
  if cfg.epoch_len < 1 then invalid_arg "Rolling.run: epoch_len < 1";
  (match cfg.lookahead with
  | Some la when la < cfg.epoch_len -> invalid_arg "Rolling.run: lookahead < epoch_len"
  | _ -> ());
  let g = inst.S.g in
  let jstates =
    Array.map
      (fun (j : S.job) ->
        {
          job = j;
          arrival = Workload.Io.arrival arrivals j.S.id;
          remaining = j.S.length;
          committed = [];
          missed = false;
        })
      inst.S.jobs
  in
  let by_id = Hashtbl.create (Array.length jstates) in
  Array.iter (fun js -> Hashtbl.replace by_id js.job.S.id js) jstates;
  let committed_open : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let solver = Core.Registry.find_exn CI.Active_slotted cfg.algorithm in
  if solver.Core.Solver.quality = Core.Solver.Bound then
    raise
      (Core.Solver.Unsupported
         (cfg.algorithm ^ " returns a lower bound, not a schedule to commit"));
  let persistent = fresh () in
  let epochs = ref [] in
  let index = ref 0 in
  let now = ref 0 in
  let unfinished () = Array.exists (fun js -> (not js.missed) && js.remaining > 0) jstates in
  while unfinished () do
    let now_ = !now in
    let eobs = Obs.create () in
    let warm = if cfg.warm then persistent else fresh () in
    (* arrivals and SLA misses at epoch start *)
    let arrived js = js.arrival <= now_ in
    let misses = ref 0 in
    Array.iter
      (fun js ->
        if arrived js && (not js.missed) && js.remaining > 0 then
          if js.job.S.deadline - max js.job.S.release now_ < js.remaining then begin
            js.missed <- true;
            incr misses
          end)
      jstates;
    let arrived_count =
      Array.fold_left (fun acc js -> if arrived js then acc + 1 else acc) 0 jstates
    in
    (* the sliding window: arrived, unmissed, unfinished jobs with
       clipped releases and remaining lengths *)
    let wjobs =
      Array.to_list jstates
      |> List.filter_map (fun js ->
             if arrived js && (not js.missed) && js.remaining > 0 then
               let release' = max js.job.S.release now_ in
               match cfg.lookahead with
               | Some la when release' > now_ + la -> None
               | _ -> Some (js, release')
             else None)
    in
    let window_jobs = List.length wjobs in
    let budget =
      match cfg.epoch_budget with Some n -> Budget.limited n | None -> Budget.unlimited ()
    in
    Option.iter (fun factory -> Budget.set_deadline budget (factory ())) cfg.epoch_deadline;
    (* re-solve the window with the registry solver *)
    let plan, provenance, deadline_hit =
      if wjobs = [] then (Some [], None, false)
      else begin
        let winst =
          S.make ~g
            (List.map
               (fun ((js : jstate), release') ->
                 S.job ~id:js.job.S.id ~release:release' ~deadline:js.job.S.deadline
                   ~length:js.remaining)
               wjobs)
        in
        Obs.incr eobs "session.solves";
        match solver.Core.Solver.solve ~budget ~obs:eobs (CI.Slotted winst) with
        | r ->
            let plan =
              match r.CR.witness with
              | Some (CR.Opened { schedule; _ }) -> Some schedule
              | Some (CR.Packing _) | None -> None
            in
            let deadline_hit =
              match r.CR.provenance with
              | Some p ->
                  List.exists (fun (a : Cascade.attempt) -> a.status = Cascade.Deadline) p.attempts
              | None -> false
            in
            (plan, r.CR.provenance, deadline_hit)
        | exception Budget.Deadline_exceeded -> (None, None, true)
        | exception Budget.Out_of_fuel -> (None, None, false)
      end
    in
    let degraded = plan = None in
    let commit =
      match plan with
      | Some schedule ->
          List.filter_map
            (fun (id, slots) ->
              match List.filter (fun t -> now_ < t && t <= now_ + cfg.epoch_len) slots with
              | [] -> None
              | ts -> Some (id, ts))
            schedule
      | None -> edf_commit ~g ~now:now_ ~epoch_len:cfg.epoch_len wjobs
    in
    (* apply the commitment *)
    let work = ref 0 and completed = ref 0 in
    let opened = Hashtbl.create 8 in
    List.iter
      (fun (id, ts) ->
        let js = Hashtbl.find by_id id in
        let n = List.length ts in
        js.remaining <- js.remaining - n;
        js.committed <- List.rev_append ts js.committed;
        work := !work + n;
        if n > 0 && js.remaining = 0 then incr completed;
        List.iter
          (fun t ->
            Hashtbl.replace opened t ();
            Hashtbl.replace committed_open t ())
          ts)
      commit;
    let opened = List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) opened []) in
    let decided_upto = now_ + cfg.epoch_len in
    (* warm oracle: delta-sync arrivals, misses and passed slot closures
       onto the persistent residual network, then re-augment *)
    let ost =
      reuse ~obs:eobs warm.w_oracle
        ~validate:(fun _ -> true)
        ~build:(fun () ->
          {
            oracle = Oracle.create ~obs:eobs ~open_all:true ~activate_all:false inst;
            o_active = Hashtbl.create 16;
            closed_upto = 0;
          })
    in
    warm.w_oracle <- Some ost;
    Array.iter
      (fun js ->
        let id = js.job.S.id in
        let wired = Hashtbl.mem ost.o_active id in
        if arrived js && (not js.missed) && not wired then begin
          Oracle.set_job ~obs:eobs ost.oracle ~id ~active:true;
          Hashtbl.replace ost.o_active id ()
        end
        else if js.missed && wired then begin
          Oracle.set_job ~obs:eobs ost.oracle ~id ~active:false;
          Hashtbl.remove ost.o_active id
        end)
      jstates;
    for t = ost.closed_upto + 1 to decided_upto do
      if not (Hashtbl.mem committed_open t) then
        Oracle.set_slot ~obs:eobs ost.oracle ~slot:t ~open_:false
    done;
    ost.closed_upto <- decided_upto;
    let feasible = Oracle.check ~obs:eobs ost.oracle in
    (* pinned LP1 lower bound on the final active time (skipped when the
       wall-clock deadline already fired — the bound is telemetry, not
       worth blowing the epoch's latency for) *)
    let missed_count = Array.fold_left (fun acc js -> acc + Bool.to_int js.missed) 0 jstates in
    let lower_bound =
      if deadline_hit then None
      else begin
        let lst =
          reuse ~obs:eobs warm.w_lp
            ~validate:(fun st -> st.l_missed = missed_count)
            ~build:(fun () ->
              let kept =
                Array.to_list jstates
                |> List.filter_map (fun js -> if js.missed then None else Some js.job)
              in
              { l_missed = missed_count; lp1 = Active.Lp_model.create (S.make ~g kept) })
        in
        warm.w_lp <- Some lst;
        Active.Lp_model.fix lst.lp1 (fun slot ->
            if slot <= decided_upto then Some (Hashtbl.mem committed_open slot) else None);
        (* committed opens that serve only missed jobs have no y in the
           filtered model; they are sunk energy the LP cannot see *)
        let slots = Active.Lp_model.slots lst.lp1 in
        let orphans =
          Hashtbl.fold (fun t () acc -> if List.mem t slots then acc else acc + 1) committed_open 0
        in
        Option.map
          (fun (r : Active.Lp_model.t) -> Q.add r.Active.Lp_model.cost (Q.of_int orphans))
          (Active.Lp_model.resolve ~obs:eobs lst.lp1)
      end
    in
    let ticks =
      match provenance with
      | Some p -> List.fold_left (fun acc (a : Cascade.attempt) -> acc + a.ticks) 0 p.attempts
      | None -> Budget.spent budget
    in
    epochs :=
      {
        index = !index;
        now = now_;
        arrived = arrived_count;
        window_jobs;
        opened;
        energy = List.length opened;
        work = !work;
        completed = !completed;
        sla_misses = !misses;
        feasible;
        lower_bound;
        ticks;
        lp_work = Obs.counter eobs "lp.exact_cells";
        warm_hits = Obs.counter eobs "session.warm_hits" + Obs.counter eobs "lp.warm_starts";
        degraded;
        provenance;
      }
      :: !epochs;
    if not (Obs.is_null obs) then List.iter (fun (name, v) -> Obs.add obs name v) (Obs.counters eobs);
    incr index;
    now := now_ + cfg.epoch_len
  done;
  let epochs = List.rev !epochs in
  let schedule =
    Array.to_list jstates |> List.map (fun js -> (js.job.S.id, List.sort compare js.committed))
  in
  let open_slots = List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) committed_open []) in
  let total_misses = Array.fold_left (fun acc js -> acc + Bool.to_int js.missed) 0 jstates in
  let completed_jobs =
    Array.fold_left (fun acc js -> if js.remaining = 0 then acc + 1 else acc) 0 jstates
  in
  let replay =
    if total_misses = 0 && Array.length jstates > 0 then
      Some (Replay.run_active inst { Active.Solution.open_slots; schedule })
    else None
  in
  let total_energy = List.length open_slots in
  let total_work = List.fold_left (fun acc e -> acc + e.work) 0 epochs in
  Obs.add obs "sim.epochs" (List.length epochs);
  Obs.add obs "sim.energy" total_energy;
  Obs.add obs "sim.sla_misses" total_misses;
  Obs.add obs "sim.work" total_work;
  Obs.add obs "sim.degraded_epochs"
    (List.fold_left (fun acc e -> acc + Bool.to_int e.degraded) 0 epochs);
  {
    instance = inst;
    epoch_len = cfg.epoch_len;
    algorithm = cfg.algorithm;
    warm = cfg.warm;
    epochs;
    schedule;
    open_slots;
    total_energy;
    total_work;
    total_misses;
    completed_jobs;
    replay;
  }

(* ------------------------------------------------------------- output -- *)

let slots_to_string slots = String.concat "," (List.map string_of_int slots)

let pp fmt (r : run) =
  Format.fprintf fmt "rolling: g=%d jobs=%d epoch-len=%d algorithm=%s %s@." r.instance.S.g
    (S.num_jobs r.instance) r.epoch_len r.algorithm
    (if r.warm then "warm" else "cold");
  List.iter
    (fun e ->
      Format.fprintf fmt "epoch %d now=%d: arrived=%d window=%d opened={%s} work=%d done=%d miss=%d %s bound=%s warm=%d%s@."
        e.index e.now e.arrived e.window_jobs (slots_to_string e.opened) e.work e.completed
        e.sla_misses
        (if e.feasible then "feasible" else "infeasible")
        (match e.lower_bound with Some q -> Q.to_string q | None -> "-")
        e.warm_hits
        (if e.degraded then " DEGRADED" else "");
      if e.degraded then
        Option.iter
          (fun (p : CR.objective Cascade.provenance) ->
            List.iter (fun a -> Format.fprintf fmt "  cascade: %a@." Cascade.pp_attempt a) p.attempts)
          e.provenance)
    r.epochs;
  Format.fprintf fmt "total: energy=%d work=%d completed=%d/%d misses=%d@." r.total_energy
    r.total_work r.completed_jobs (S.num_jobs r.instance) r.total_misses;
  match r.replay with
  | Some rep ->
      Format.fprintf fmt "replay: energy=%s utilization=%s %s@."
        (Q.to_string rep.Replay.total_energy)
        (Q.to_string rep.Replay.utilization)
        (if rep.Replay.violations = [] then "ok" else "VIOLATIONS")
  | None -> Format.fprintf fmt "replay: skipped (%d missed jobs)@." r.total_misses

let objective_to_json : CR.objective -> Obs.Json.t = function
  | CR.Slots n -> Obs.Json.Int n
  | CR.Busy q | CR.Value q -> Obs.Json.String (Q.to_string q)

let to_json (r : run) : Obs.Json.t =
  let open Obs.Json in
  let epoch_to_json e =
    Obj
      [
        ("index", Int e.index);
        ("now", Int e.now);
        ("arrived", Int e.arrived);
        ("window_jobs", Int e.window_jobs);
        ("opened", List (List.map (fun t -> Int t) e.opened));
        ("energy", Int e.energy);
        ("work", Int e.work);
        ("completed", Int e.completed);
        ("sla_misses", Int e.sla_misses);
        ("feasible", Bool e.feasible);
        ( "lower_bound",
          match e.lower_bound with Some q -> String (Q.to_string q) | None -> Null );
        ("ticks", Int e.ticks);
        ("lp_work", Int e.lp_work);
        ("warm_hits", Int e.warm_hits);
        ("degraded", Bool e.degraded);
        ( "provenance",
          match e.provenance with
          | Some p -> Cascade.provenance_to_json ~cost_to_json:objective_to_json p
          | None -> Null );
      ]
  in
  Obj
    [
      ("schema", Int 1);
      ("kind", String "rolling");
      ("g", Int r.instance.S.g);
      ("jobs", Int (S.num_jobs r.instance));
      ("epoch_len", Int r.epoch_len);
      ("algorithm", String r.algorithm);
      ("warm", Bool r.warm);
      ("epochs", List (List.map epoch_to_json r.epochs));
      ( "totals",
        Obj
          [
            ("epochs", Int (List.length r.epochs));
            ("energy", Int r.total_energy);
            ("work", Int r.total_work);
            ("completed", Int r.completed_jobs);
            ("sla_misses", Int r.total_misses);
            ( "degraded_epochs",
              Int (List.fold_left (fun acc e -> acc + Bool.to_int e.degraded) 0 r.epochs) );
          ] );
      ("open_slots", List (List.map (fun t -> Int t) r.open_slots));
      ( "replay",
        match r.replay with
        | Some rep ->
            Obj
              [
                ("energy", String (Q.to_string rep.Replay.total_energy));
                ("switch_ons", Int rep.Replay.total_switch_ons);
                ("peak_parallelism", Int rep.Replay.peak_parallelism);
                ("utilization", String (Q.to_string rep.Replay.utilization));
                ("violations", List (List.map (fun v -> String v) rep.Replay.violations));
              ]
        | None -> Null );
    ]
