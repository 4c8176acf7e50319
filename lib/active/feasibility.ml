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
  g : int;
  slots : int array; (* slot index -> slot, increasing *)
  job_arc : Flow.edge array; (* job array index -> source->job arc *)
  (* job->slot arcs in the order they were added: jobs in array order,
     each job's window slots increasing *)
  assign : (int * int * Flow.edge) array; (* job array index, slot index, arc *)
  slot_arc : Flow.edge array; (* slot index -> slot->sink arc *)
  source : int;
  sink : int;
  total : int; (* sum of the job arcs' capacities *)
}

(* G_feas with caller-chosen capacities: source -> job carries
   [job_cap j]; each relevant slot t that [slot_cap] maps to
   [Some (arc, out)] gets an arc of capacity [arc] from every job whose
   window holds t and an arc of capacity [out] to the sink; slots mapped
   to [None] are left out. The paper's Fig. 2 network is
   [job_cap j = p_j] with [(1, g)] on the open slots. A job's window is
   a run of the sorted relevant slots, found by binary search: nothing
   here is sized by the horizon. *)
let build (t : S.t) ~job_cap ~slot_cap =
  let relevant = Array.of_list (S.relevant_slots t) in
  let caps = Array.map slot_cap relevant in
  (* the relevant indices kept, and each one's slot index (-1 when left out) *)
  let kept = List.filter (fun k -> caps.(k) <> None) (List.init (Array.length relevant) Fun.id) in
  let index = Array.make (Array.length relevant) (-1) in
  List.iteri (fun si k -> index.(k) <- si) kept;
  let m = List.length kept in
  let n = S.num_jobs t in
  (* nodes: 0 = source, 1..n jobs, n+1..n+m slots, n+m+1 sink *)
  let source = 0 and sink = n + m + 1 in
  let g = Flow.create (n + m + 2) in
  let job_arc =
    Array.mapi (fun idx j -> Flow.add_edge g ~src:source ~dst:(idx + 1) ~cap:(job_cap j)) t.S.jobs
  in
  let assign = ref [] in
  Array.iteri
    (fun idx (j : S.job) ->
      let lo = S.window_start relevant j in
      for k = lo to lo + S.window_size j - 1 do
        match caps.(k) with
        | Some (arc, _) ->
            let si = index.(k) in
            assign := (idx, si, Flow.add_edge g ~src:(idx + 1) ~dst:(n + 1 + si) ~cap:arc) :: !assign
        | None -> ()
      done)
    t.S.jobs;
  let slot_arc =
    List.map
      (fun k ->
        let _, out = Option.get caps.(k) in
        Flow.add_edge g ~src:(n + 1 + index.(k)) ~dst:sink ~cap:out)
      kept
  in
  {
    graph = g;
    g = t.S.g;
    slots = Array.of_list (List.map (fun k -> relevant.(k)) kept);
    job_arc;
    assign = Array.of_list (List.rev !assign);
    slot_arc = Array.of_list slot_arc;
    source;
    sink;
    total = Array.fold_left (fun acc (j : S.job) -> acc + job_cap j) 0 t.S.jobs;
  }

(* The index of [s] in the increasing array [a], or -1. *)
let find_index (a : int array) s =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = s then mid else if a.(mid) < s then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length a)

(* The Fig. 2 network on [open_slots]. *)
let build_open (t : S.t) ~open_slots =
  let opened = Array.of_list (List.sort_uniq compare open_slots) in
  build t
    ~job_cap:(fun j -> j.S.length)
    ~slot_cap:(fun s -> if find_index opened s >= 0 then Some (1, t.S.g) else None)

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

(* LP1's separation network: every relevant slot wired in, every
   capacity 0 until [min_cut_jobs] sets them. *)
let network (t : S.t) = build t ~job_cap:(fun _ -> 0) ~slot_cap:(fun _ -> Some (0, 0))

let network_slots net = Array.copy net.slots

(* Re-capacitate the separation network and run one max flow; the jobs
   (array indices, increasing) on the source side of the minimal min
   cut. Empty iff the flow saturates every job arc: a saturated source
   arc leaves the source nothing to reach. A slot of capacity 0 carries
   no flow and no residual arc, so the flow search, its counters and the
   cut are those of a network without it. *)
let min_cut_jobs ?(obs = Obs.null) net ~job_cap ~slot_cap =
  let g = net.graph in
  Flow.reset g;
  let total = ref 0 in
  Array.iteri
    (fun idx e ->
      let c = job_cap idx in
      Flow.set_cap g e c;
      total := !total + c)
    net.job_arc;
  let arc = Array.init (Array.length net.slots) slot_cap in
  Array.iter (fun (_, si, e) -> Flow.set_cap g e arc.(si)) net.assign;
  Array.iteri (fun si e -> Flow.set_cap g e (net.g * arc.(si))) net.slot_arc;
  if Flow.max_flow ~obs g ~source:net.source ~sink:net.sink = !total then []
  else begin
    let side = Flow.min_cut g ~source:net.source in
    List.filter (fun idx -> side.(idx + 1)) (List.init (Array.length net.job_arc) Fun.id)
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
    net : network;
    slot_open : bool array; (* slot index -> open *)
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
    let jobs_of_id = Hashtbl.create (2 * S.num_jobs inst) in
    Array.iteri
      (fun idx (j : S.job) ->
        Hashtbl.replace jobs_of_id j.S.id (idx :: Option.value (Hashtbl.find_opt jobs_of_id j.S.id) ~default:[]))
      inst.S.jobs;
    Obs.incr obs "active.oracle.builds";
    {
      net;
      slot_open = Array.make (Array.length net.slots) open_all;
      job_active = Array.make (S.num_jobs inst) activate_all;
      job_len = Array.map (fun (j : S.job) -> j.S.length) inst.S.jobs;
      jobs_of_id;
      active_total = net.total;
      flow_value = 0;
    }

  let target t = t.active_total
  let flow_value t = t.flow_value

  let slot_is_open t ~slot =
    let si = find_index t.net.slots slot in
    si >= 0 && t.slot_open.(si)

  (* drain [e]'s routed flow and close it *)
  let close t ~obs e =
    let net = t.net in
    t.flow_value <- t.flow_value - Flow.drain_edge ~obs net.graph e ~source:net.source ~sink:net.sink;
    Flow.set_cap net.graph e 0

  (* toggling an irrelevant slot is a no-op either way: no job can use it,
     so it exists in no window and carries no flow (mirrors [build], which
     drops such slots from the network entirely) *)
  let set_slot ?(obs = Obs.null) t ~slot ~open_ =
    let si = find_index t.net.slots slot in
    if si >= 0 && t.slot_open.(si) <> open_ then begin
      let e = t.net.slot_arc.(si) in
      if open_ then Flow.set_cap t.net.graph e t.net.g else close t ~obs e;
      t.slot_open.(si) <- open_;
      Obs.incr obs "active.oracle.slot_toggles"
    end

  let set_job_idx ?(obs = Obs.null) t idx ~active =
    if t.job_active.(idx) <> active then begin
      let e = t.net.job_arc.(idx) in
      if active then begin
        Flow.set_cap t.net.graph e t.job_len.(idx);
        t.active_total <- t.active_total + t.job_len.(idx)
      end
      else begin
        close t ~obs e;
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
    let net = t.net in
    t.flow_value <- t.flow_value + Flow.augment ~obs net.graph ~source:net.source ~sink:net.sink;
    Obs.incr obs "active.oracle.checks";
    t.flow_value = t.active_total

  let open_slots t = List.filteri (fun si _ -> t.slot_open.(si)) (Array.to_list t.net.slots)
end

(* [schedule t ~open_slots] is an integral schedule on the open slots, or
   [None] when infeasible. *)
let schedule (t : S.t) ~open_slots =
  let net = build_open t ~open_slots in
  if Flow.max_flow net.graph ~source:net.source ~sink:net.sink <> net.total then None
  else begin
    (* last arc first: a job's arcs run up its window, so each list
       comes out increasing *)
    let slots_of = Array.make (S.num_jobs t) [] in
    for k = Array.length net.assign - 1 downto 0 do
      let idx, si, e = net.assign.(k) in
      if Flow.flow net.graph e = 1 then slots_of.(idx) <- net.slots.(si) :: slots_of.(idx)
    done;
    Some (Array.to_list (Array.mapi (fun idx (j : S.job) -> (j.S.id, slots_of.(idx))) t.S.jobs))
  end
