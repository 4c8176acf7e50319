(* Feasibility of an active-time instance for a given set of open slots,
   via the flow network G_feas of the paper's Fig. 2:

     source --p_j--> job j --1--> slot t (open, in j's window) --g--> sink

   The instance is feasible on the open set iff the max flow saturates all
   job arcs (value P = sum of lengths); an integral max flow is a schedule.

   This check is the workhorse of the whole active-time side: minimal
   feasible solutions close slots guarded by it, the LP rounding uses it to
   decide whether a barely-open slot may stay closed, and the exact
   branch-and-bound prunes with it. Every G_feas is wired here, by
   [network] for a slotted instance and [windows_network] for jobs with
   several windows, once per solve (the machine pool's, the
   multi-window model's and the ILP's included); every use
   re-capacitates it: a closed slot or a left-out job gets capacity 0,
   which no walk crosses, so each max flow is the one of the network
   without them. *)

module S = Workload.Slotted

type network = {
  owner : S.t option; (* the slotted instance wired, checked by [network_for] *)
  g : int;
  ids : int array; (* job array index -> job id *)
  lengths : int array; (* job array index -> p_j *)
  graph : Flow.t;
  slots : int array; (* slot index -> slot, increasing *)
  job_arc : Flow.edge array; (* job array index -> source->job arc *)
  (* job->slot arcs in the order they were added: jobs in array order,
     each job's slots increasing *)
  assign : (int * int * Flow.edge) array; (* job array index, slot index, arc *)
  slot_arc : Flow.edge array; (* slot index -> slot->sink arc *)
  source : int;
  sink : int;
}

(* G_feas over [slots], every capacity 0, with [arcs] job->slot arcs:
   [each idx add] calls [add si] on the slot indices of job [idx],
   increasing. The arcs are added job arcs first, then each job's slot
   arcs, then the slot arcs; the walks take them newest first, so this
   order decides which max flow, hence which schedule, comes back. *)
let wire ~owner ~g ~ids ~lengths ~slots ~arcs each =
  let n = Array.length ids and m = Array.length slots in
  (* nodes: 0 = source, 1..n jobs, n+1..n+m slots, n+m+1 sink *)
  let source = 0 and sink = n + m + 1 in
  let graph = Flow.create ~edges:(n + m + arcs) (n + m + 2) in
  let job_arc = Array.init n (fun idx -> Flow.add_edge graph ~src:source ~dst:(idx + 1) ~cap:0) in
  let assign = ref [] in
  for idx = 0 to n - 1 do
    each idx (fun si ->
        assign := (idx, si, Flow.add_edge graph ~src:(idx + 1) ~dst:(n + 1 + si) ~cap:0) :: !assign)
  done;
  let slot_arc = Array.init m (fun si -> Flow.add_edge graph ~src:(n + 1 + si) ~dst:sink ~cap:0) in
  let assign = Array.of_list (List.rev !assign) in
  { owner; g; ids; lengths; graph; slots; job_arc; assign; slot_arc; source; sink }

(* A job's window is a run of the sorted relevant slots, found by
   binary search: nothing here is sized by the horizon. *)
let network (t : S.t) =
  let slots = Array.of_list (S.relevant_slots t) in
  let jobs = t.S.jobs in
  wire ~owner:(Some t) ~g:t.S.g
    ~ids:(Array.map (fun j -> j.S.id) jobs)
    ~lengths:(Array.map (fun j -> j.S.length) jobs)
    ~slots
    ~arcs:(Array.fold_left (fun acc j -> acc + S.window_size j) 0 jobs)
    (fun idx add ->
      let lo = S.window_start slots jobs.(idx) in
      for si = lo to lo + S.window_size jobs.(idx) - 1 do
        add si
      done)

let network_for ?net (t : S.t) =
  match net with
  | None -> network t
  | Some ({ owner = Some o; _ } as net) when o == t -> net
  | Some _ -> invalid_arg "Feasibility: the network of another instance"

let network_slots net = Array.copy net.slots

(* Zero the flow and set every capacity: [job_cap idx] on source -> job,
   [arc_cap si] on every job -> slot arc of slot index [si] and
   [out_cap si] on its slot -> sink arc. Returns the job capacities'
   sum, the flow value that saturates them. *)
let capacitate net ~job_cap ~arc_cap ~out_cap =
  let g = net.graph in
  Flow.reset g;
  let total = ref 0 in
  Array.iteri
    (fun idx e ->
      let c = job_cap idx in
      Flow.set_cap g e c;
      total := !total + c)
    net.job_arc;
  Array.iter (fun (_, si, e) -> Flow.set_cap g e (arc_cap si)) net.assign;
  Array.iteri (fun si e -> Flow.set_cap g e (out_cap si)) net.slot_arc;
  !total

(* The index of [s] in the increasing array [a], or -1. *)
let find_index (a : int array) s =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = s then mid else if a.(mid) < s then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length a)

(* A job's allowed slots lie anywhere among the relevant ones, each
   found by binary search. *)
let windows_network ~g jobs =
  let slots = List.concat_map (fun (_, _, ss) -> ss) (Array.to_list jobs) in
  let slots = Array.of_list (List.sort_uniq compare slots) in
  wire ~owner:None ~g
    ~ids:(Array.map (fun (id, _, _) -> id) jobs)
    ~lengths:(Array.map (fun (_, p, _) -> p) jobs)
    ~slots
    ~arcs:(Array.fold_left (fun acc (_, _, ss) -> acc + List.length ss) 0 jobs)
    (fun idx add ->
      let _, _, ss = jobs.(idx) in
      List.iter (fun s -> add (find_index slots s)) ss)

(* Fig. 2's capacities: [job_cap] on the jobs, 1 and g on the open
   slots, 0 on the others; slots no job can use are ignored. *)
let fig2 net ~job_cap ~open_slots =
  let opened = Array.make (Array.length net.slots) false in
  List.iter
    (fun s ->
      let si = find_index net.slots s in
      if si >= 0 then opened.(si) <- true)
    open_slots;
  capacitate net ~job_cap
    ~arc_cap:(fun si -> if opened.(si) then 1 else 0)
    ~out_cap:(fun si -> if opened.(si) then net.g else 0)

(* [feasible t ~open_slots] decides whether all jobs fit in the open slots.
   [only_jobs] restricts the test to a subset of job ids (the fuzz
   differential and the tests probe job subsets with it); the others
   get capacity 0. Each call builds its own network. *)
let feasible ?only_jobs ?(obs = Obs.null) (t : S.t) ~open_slots =
  let net = network t in
  let job_cap =
    match only_jobs with
    | None -> Array.get net.lengths
    | Some ids ->
        let keep = Hashtbl.create 16 in
        List.iter (fun id -> Hashtbl.replace keep id ()) ids;
        fun idx -> if Hashtbl.mem keep net.ids.(idx) then net.lengths.(idx) else 0
  in
  let total = fig2 net ~job_cap ~open_slots in
  Flow.max_flow ~obs net.graph ~source:net.source ~sink:net.sink = total

(* Koehler-Khuller's machine pool: a job still runs one unit per slot,
   so a slot with machines on takes 1 from each job and g per machine. *)
let fits ?(obs = Obs.null) net ~on =
  let total =
    capacitate net ~job_cap:(Array.get net.lengths)
      ~arc_cap:(fun si -> if on.(si) > 0 then 1 else 0)
      ~out_cap:(fun si -> net.g * on.(si))
  in
  Flow.max_flow ~obs net.graph ~source:net.source ~sink:net.sink = total

(* Re-capacitate the network and run one max flow; the jobs (array
   indices, increasing) on the source side of the minimal min cut. Empty
   iff the flow saturates every job arc: a saturated source arc leaves
   the source nothing to reach. *)
let min_cut_jobs ?(obs = Obs.null) net ~job_cap ~slot_cap =
  let arc = Array.init (Array.length net.slots) slot_cap in
  let total = capacitate net ~job_cap ~arc_cap:(Array.get arc) ~out_cap:(fun si -> net.g * arc.(si)) in
  if Flow.max_flow ~obs net.graph ~source:net.source ~sink:net.sink = total then []
  else begin
    let side = Flow.min_cut net.graph ~source:net.source in
    List.filter (fun idx -> side.(idx + 1)) (List.init (Array.length net.job_arc) Fun.id)
  end

(* [schedule net ~open_slots] is an integral schedule on the open slots,
   or [None] when infeasible. *)
let schedule net ~open_slots =
  let total = fig2 net ~job_cap:(Array.get net.lengths) ~open_slots in
  if Flow.max_flow net.graph ~source:net.source ~sink:net.sink <> total then None
  else begin
    (* last arc first: a job's arcs run up its slots, so each list
       comes out increasing *)
    let slots_of = Array.make (Array.length net.job_arc) [] in
    for k = Array.length net.assign - 1 downto 0 do
      let idx, si, e = net.assign.(k) in
      if Flow.flow net.graph e = 1 then slots_of.(idx) <- net.slots.(si) :: slots_of.(idx)
    done;
    Some (Array.to_list (Array.mapi (fun idx id -> (id, slots_of.(idx))) net.ids))
  end

type probe_mode = Incremental | Rebuild

(* Persistent incremental oracle on a network: re-capacitated once, then
   retargeted between probes by toggling arc capacities on the warm
   residual graph. Closing a slot zeroes its slot->sink arc after draining
   the <= g displaced units back to the source; reopening restores the
   capacity; activating a job raises its source->job arc from 0 to p_j.
   A probe then re-augments from the current residual state instead of
   recomputing the max flow from scratch: consecutive B&B probes differ
   by one slot, so the amortized work per probe is one drain (<= g short
   walks) plus the augmentation of the recovered units, not a full Dinic
   run from zero flow. *)
module Oracle = struct
  type t = {
    net : network;
    slot_open : bool array; (* slot index -> open *)
    job_active : bool array; (* job index -> active *)
    mutable active_total : int; (* sum of active job lengths *)
    mutable flow_value : int; (* flow currently routed *)
  }

  let create ?(obs = Obs.null) ?(open_all = true) ?(activate_all = true) net =
    (* a closed slot keeps its job arcs at 1: its zero slot->sink arc
       alone keeps flow out, and opening it touches that one arc *)
    let total =
      capacitate net
        ~job_cap:(fun idx -> if activate_all then net.lengths.(idx) else 0)
        ~arc_cap:(fun _ -> 1)
        ~out_cap:(fun _ -> if open_all then net.g else 0)
    in
    Obs.incr obs "active.oracle.builds";
    {
      net;
      slot_open = Array.make (Array.length net.slots) open_all;
      job_active = Array.make (Array.length net.ids) activate_all;
      active_total = total;
      flow_value = 0;
    }

  let target t = t.active_total
  let flow_value t = t.flow_value

  (* drain [e]'s routed flow and close it *)
  let close t ~obs e =
    let net = t.net in
    t.flow_value <- t.flow_value - Flow.drain_edge ~obs net.graph e ~source:net.source ~sink:net.sink;
    Flow.set_cap net.graph e 0

  (* toggling an irrelevant slot is a no-op either way: no job can use it,
     so it lies in no window and the network has no vertex for it *)
  let set_slot ?(obs = Obs.null) t ~slot ~open_ =
    let si = find_index t.net.slots slot in
    if si >= 0 && t.slot_open.(si) <> open_ then begin
      let e = t.net.slot_arc.(si) in
      if open_ then Flow.set_cap t.net.graph e t.net.g else close t ~obs e;
      t.slot_open.(si) <- open_;
      Obs.incr obs "active.oracle.slot_toggles"
    end

  let set_job ?(obs = Obs.null) t idx ~active =
    if idx < 0 || idx >= Array.length t.job_active then
      invalid_arg "Feasibility.Oracle.set_job: no job at this index";
    if t.job_active.(idx) <> active then begin
      let e = t.net.job_arc.(idx) in
      let len = t.net.lengths.(idx) in
      if active then begin
        Flow.set_cap t.net.graph e len;
        t.active_total <- t.active_total + len
      end
      else begin
        close t ~obs e;
        t.active_total <- t.active_total - len
      end;
      t.job_active.(idx) <- active;
      Obs.incr obs "active.oracle.job_toggles"
    end

  let check ?(obs = Obs.null) t =
    let net = t.net in
    t.flow_value <- t.flow_value + Flow.augment ~obs net.graph ~source:net.source ~sink:net.sink;
    Obs.incr obs "active.oracle.checks";
    t.flow_value = t.active_total

  let open_slots t = List.filteri (fun si _ -> t.slot_open.(si)) (Array.to_list t.net.slots)
end
