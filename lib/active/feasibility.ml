(* Feasibility of an active-time instance for a given set of open slots,
   via the flow network G_feas of the paper's Fig. 2:

     source --p_j--> job j --1--> slot t (open, in j's window) --g--> sink

   The instance is feasible on the open set iff the max flow saturates all
   job arcs (value P = sum of lengths); an integral max flow is a schedule.

   This check is the workhorse of the whole active-time side: minimal
   feasible solutions close slots guarded by it, the LP rounding uses it to
   decide whether a barely-open slot may stay closed, and the exact
   branch-and-bound prunes with it. *)

module S = Workload.Slotted

type network = {
  graph : Flow.t;
  job_edges : (int * Flow.edge) array; (* job id, source->job arc *)
  (* (job array index, slot) -> job->slot arc *)
  assign_edges : ((int * int) * Flow.edge) list;
  slot_edges : (int * Flow.edge) array; (* slot, slot->sink arc; increasing *)
  source : int;
  sink : int;
  total : int; (* sum of the job arcs' capacities *)
}

(* G_feas with caller-chosen capacities: source -> job carries
   [job_cap j]; each relevant slot t that [slot_cap] maps to
   [Some (arc, out)] gets an arc of capacity [arc] from every job whose
   window holds t and an arc of capacity [out] to the sink; slots mapped
   to [None] are left out. The paper's Fig. 2 network is
   [job_cap j = p_j] with [(1, g)] on the open slots. *)
let build (t : S.t) ~job_cap ~slot_cap =
  let slots = List.filter_map (fun s -> Option.map (fun c -> (s, c)) (slot_cap s)) (S.relevant_slots t) in
  let slot_index = Hashtbl.create 32 in
  List.iteri (fun i (s, (arc, _)) -> Hashtbl.replace slot_index s (i, arc)) slots;
  let n = S.num_jobs t in
  let m = List.length slots in
  (* nodes: 0 = source, 1..n jobs, n+1..n+m slots, n+m+1 sink *)
  let source = 0 and sink = n + m + 1 in
  let g = Flow.create (n + m + 2) in
  let job_edges =
    Array.mapi
      (fun idx (j : S.job) -> (j.S.id, Flow.add_edge g ~src:source ~dst:(idx + 1) ~cap:(job_cap j)))
      t.S.jobs
  in
  let assign_edges = ref [] in
  Array.iteri
    (fun idx (j : S.job) ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt slot_index s with
          | Some (si, arc) ->
              let e = Flow.add_edge g ~src:(idx + 1) ~dst:(n + 1 + si) ~cap:arc in
              assign_edges := ((idx, s), e) :: !assign_edges
          | None -> ())
        (S.window_slots j))
    t.S.jobs;
  let slot_edges =
    Array.of_list (List.mapi (fun si (s, (_, out)) -> (s, Flow.add_edge g ~src:(n + 1 + si) ~dst:sink ~cap:out)) slots)
  in
  let total = Array.fold_left (fun acc (j : S.job) -> acc + job_cap j) 0 t.S.jobs in
  { graph = g; job_edges; assign_edges = !assign_edges; slot_edges; source; sink; total }

(* The Fig. 2 network on [open_slots]. *)
let build_open (t : S.t) ~open_slots =
  let open_set = Hashtbl.create 32 in
  List.iter (fun s -> Hashtbl.replace open_set s ()) open_slots;
  build t
    ~job_cap:(fun j -> j.S.length)
    ~slot_cap:(fun s -> if Hashtbl.mem open_set s then Some (1, t.S.g) else None)

(* [feasible t ~open_slots] decides whether all jobs fit in the open slots.
   [only_jobs] restricts the test to a subset of job ids (used by the LP
   rounding, which processes jobs deadline by deadline). *)
let feasible ?only_jobs ?(obs = Obs.null) (t : S.t) ~open_slots =
  let t' =
    match only_jobs with
    | None -> t
    | Some ids ->
        let keep = Hashtbl.create 16 in
        List.iter (fun id -> Hashtbl.replace keep id ()) ids;
        { t with S.jobs = Array.of_seq (Seq.filter (fun j -> Hashtbl.mem keep j.S.id) (Array.to_seq t.S.jobs)) }
  in
  let net = build_open t' ~open_slots in
  Flow.max_flow ~obs net.graph ~source:net.source ~sink:net.sink = net.total

(* One max flow of [build t ~job_cap ~slot_cap]; the jobs (array
   indices, increasing) on the source side of a minimum cut. Empty iff
   the flow saturates every job arc: a saturated source arc leaves the
   source nothing to reach. *)
let min_cut_jobs ?(obs = Obs.null) (t : S.t) ~job_cap ~slot_cap =
  let net = build t ~job_cap ~slot_cap in
  if Flow.max_flow ~obs net.graph ~source:net.source ~sink:net.sink = net.total then []
  else begin
    let side = Flow.min_cut net.graph ~source:net.source in
    List.filter (fun idx -> side.(idx + 1)) (List.init (S.num_jobs t) Fun.id)
  end

type probe_mode = Incremental | Rebuild

(* Persistent incremental oracle over the same Fig. 2 network: built ONCE
   per instance with every relevant slot and every job wired in, then
   retargeted between probes by toggling arc capacities on the warm
   residual graph. Closing a slot zeroes its slot->sink arc after draining
   the <= g displaced units back to the source; reopening restores the
   capacity; activating a job raises its source->job arc from 0 to p_j.
   A probe then re-augments from the current residual state instead of
   recomputing the max flow from scratch: consecutive B&B probes differ
   by one slot, so the amortized work per probe is one drain (<= g short
   walks) plus the augmentation of the recovered units, not a full Dinic
   run on a freshly allocated graph. *)
module Oracle = struct
  type t = {
    graph : Flow.t;
    source : int;
    sink : int;
    g : int;
    slot_ids : int array; (* slot index -> slot *)
    slot_arc : Flow.edge array; (* slot index -> slot->sink arc *)
    slot_open : bool array;
    slot_index : (int, int) Hashtbl.t; (* slot -> slot index *)
    job_arc : Flow.edge array; (* job array index -> source->job arc *)
    job_active : bool array;
    job_len : int array;
    jobs_of_id : (int, int list) Hashtbl.t; (* job id -> array indices *)
    mutable active_total : int; (* sum of active job lengths *)
    mutable flow_value : int; (* flow currently routed *)
  }

  let create ?(obs = Obs.null) ?(open_all = true) ?(activate_all = true) (inst : S.t) =
    (* every relevant slot and every job wired in; closed slots and
       inactive jobs get capacity 0 *)
    let net =
      build inst
        ~job_cap:(fun j -> if activate_all then j.S.length else 0)
        ~slot_cap:(fun _ -> Some (1, if open_all then inst.S.g else 0))
    in
    let slots = Array.map fst net.slot_edges in
    let m = Array.length slots in
    let n = S.num_jobs inst in
    let slot_index = Hashtbl.create (2 * m) in
    Array.iteri (fun i s -> Hashtbl.replace slot_index s i) slots;
    let jobs_of_id = Hashtbl.create (2 * n) in
    Array.iteri
      (fun idx (j : S.job) ->
        Hashtbl.replace jobs_of_id j.S.id (idx :: Option.value (Hashtbl.find_opt jobs_of_id j.S.id) ~default:[]))
      inst.S.jobs;
    Obs.incr obs "active.oracle.builds";
    {
      graph = net.graph;
      source = net.source;
      sink = net.sink;
      g = inst.S.g;
      slot_ids = slots;
      slot_arc = Array.map snd net.slot_edges;
      slot_open = Array.make m open_all;
      slot_index;
      job_arc = Array.map snd net.job_edges;
      job_active = Array.make n activate_all;
      job_len = Array.map (fun (j : S.job) -> j.S.length) inst.S.jobs;
      jobs_of_id;
      active_total = net.total;
      flow_value = 0;
    }

  let target t = t.active_total
  let flow_value t = t.flow_value

  let slot_is_open t ~slot =
    match Hashtbl.find_opt t.slot_index slot with
    | None -> false
    | Some si -> t.slot_open.(si)

  (* toggling an irrelevant slot is a no-op either way: no job can use it,
     so it exists in no window and carries no flow (mirrors [build], which
     drops such slots from the network entirely) *)
  let set_slot ?(obs = Obs.null) t ~slot ~open_ =
    match Hashtbl.find_opt t.slot_index slot with
    | None -> ()
    | Some si ->
        if t.slot_open.(si) <> open_ then begin
          let e = t.slot_arc.(si) in
          if open_ then Flow.set_cap t.graph e t.g
          else begin
            let drained = Flow.drain_edge ~obs t.graph e ~source:t.source ~sink:t.sink in
            t.flow_value <- t.flow_value - drained;
            Flow.set_cap t.graph e 0
          end;
          t.slot_open.(si) <- open_;
          Obs.incr obs "active.oracle.slot_toggles"
        end

  let set_job_idx ?(obs = Obs.null) t idx ~active =
    if t.job_active.(idx) <> active then begin
      let e = t.job_arc.(idx) in
      if active then begin
        Flow.set_cap t.graph e t.job_len.(idx);
        t.active_total <- t.active_total + t.job_len.(idx)
      end
      else begin
        let drained = Flow.drain_edge ~obs t.graph e ~source:t.source ~sink:t.sink in
        t.flow_value <- t.flow_value - drained;
        Flow.set_cap t.graph e 0;
        t.active_total <- t.active_total - t.job_len.(idx)
      end;
      t.job_active.(idx) <- active;
      Obs.incr obs "active.oracle.job_toggles"
    end

  let set_job ?obs t ~id ~active =
    match Hashtbl.find_opt t.jobs_of_id id with
    | None -> invalid_arg "Feasibility.Oracle.set_job: unknown job id"
    | Some idxs -> List.iter (fun idx -> set_job_idx ?obs t idx ~active) idxs

  let check ?(obs = Obs.null) t =
    t.flow_value <- t.flow_value + Flow.augment ~obs t.graph ~source:t.source ~sink:t.sink;
    Obs.incr obs "active.oracle.checks";
    t.flow_value = t.active_total

  let open_slots t =
    List.filteri (fun si _ -> t.slot_open.(si)) (Array.to_list t.slot_ids)
end

(* [schedule t ~open_slots] is an integral schedule on the open slots, or
   [None] when infeasible. *)
let schedule (t : S.t) ~open_slots =
  let net = build_open t ~open_slots in
  if Flow.max_flow net.graph ~source:net.source ~sink:net.sink <> net.total then None
  else begin
    let slots_of = Array.make (S.num_jobs t) [] in
    List.iter
      (fun ((idx, s), e) -> if Flow.flow net.graph e = 1 then slots_of.(idx) <- s :: slots_of.(idx))
      net.assign_edges;
    Some
      (Array.to_list
         (Array.mapi (fun idx (j : S.job) -> (j.S.id, List.sort compare slots_of.(idx))) t.S.jobs))
  end
