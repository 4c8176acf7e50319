(* Slotted (active-time) instances.

   Time is slotted: slot [t] is the unit [t-1, t). A job with release [r],
   deadline [d] and length [p] may occupy slots [{r+1, ..., d}], one unit
   per slot, and needs [p] of them (integral preemption). An instance also
   carries the machine capacity [g]: at most [g] job units per active
   slot. *)

type job = { id : int; release : int; deadline : int; length : int }

type t = { jobs : job array; g : int }

let job ~id ~release ~deadline ~length =
  if length < 1 then invalid_arg "Slotted.job: length < 1";
  if release < 0 then invalid_arg "Slotted.job: negative release";
  if deadline - release < length then invalid_arg "Slotted.job: window shorter than length";
  { id; release; deadline; length }

(* Slots of the job's window, in increasing order. *)
let window_slots j = List.init (j.deadline - j.release) (fun i -> j.release + 1 + i)

let window_size j = j.deadline - j.release

(* A job is rigid when its window has no slack. *)
let is_rigid j = window_size j = j.length

let make ~g jobs =
  if g < 1 then invalid_arg "Slotted.make: g < 1";
  { jobs = Array.of_list jobs; g }

let num_jobs t = Array.length t.jobs
let total_length t = Array.fold_left (fun acc j -> acc + j.length) 0 t.jobs

(* Latest relevant slot: T = max deadline (0 when empty). *)
let horizon t = Array.fold_left (fun acc j -> max acc j.deadline) 0 t.jobs

(* All slots that belong to at least one window: the windows, sorted by
   first slot, merge into maximal runs, whose slots are then listed. *)
let relevant_slots t =
  let windows = Array.map (fun j -> (j.release + 1, j.deadline)) t.jobs in
  Array.sort compare windows;
  let runs =
    Array.fold_left
      (fun runs (lo, hi) ->
        match runs with
        | (rlo, rhi) :: rest when lo <= rhi + 1 -> (rlo, max rhi hi) :: rest
        | _ -> (lo, hi) :: runs)
      [] windows
  in
  (* [runs] is last run first, so the slots are prepended from the top *)
  List.fold_left
    (fun acc (lo, hi) ->
      let acc = ref acc in
      for s = hi downto lo do
        acc := s :: !acc
      done;
      !acc)
    [] runs

(* Binary search for the first slot after the release. *)
let window_start slots j =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if slots.(mid) <= j.release then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length slots)

(* Trivial lower bound: ceil(total length / g). *)
let mass_lower_bound t = (total_length t + t.g - 1) / t.g

let is_live j ~slot = slot >= j.release + 1 && slot <= j.deadline

let pp_job fmt j =
  Format.fprintf fmt "job %d: r=%d d=%d p=%d%s" j.id j.release j.deadline j.length
    (if is_rigid j then " (rigid)" else "")

let pp fmt t =
  Format.fprintf fmt "slotted instance: %d jobs, g=%d, T=%d@." (num_jobs t) t.g (horizon t);
  Array.iter (fun j -> Format.fprintf fmt "  %a@." pp_job j) t.jobs

(* A schedule: for each job, the sorted list of slots it occupies. *)
type schedule = (int * int list) list

(* Validates a schedule against the instance; returns an explanation of the
   first violation, if any. *)
let check_schedule t (sched : schedule) =
  let by_id = Hashtbl.create 16 in
  Array.iter (fun j -> Hashtbl.replace by_id j.id j) t.jobs;
  let usage = Hashtbl.create 64 in
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (id, slots) ->
      if Hashtbl.mem seen id then fail (Printf.sprintf "job %d listed twice" id);
      Hashtbl.replace seen id ();
      match Hashtbl.find_opt by_id id with
      | None -> fail (Printf.sprintf "unknown job %d" id)
      | Some j ->
          if List.length slots <> j.length then
            fail (Printf.sprintf "job %d has %d units, needs %d" id (List.length slots) j.length);
          if List.length (List.sort_uniq compare slots) <> List.length slots then
            fail (Printf.sprintf "job %d scheduled twice in one slot" id);
          List.iter
            (fun s ->
              if not (is_live j ~slot:s) then fail (Printf.sprintf "job %d outside window at slot %d" id s);
              let u = try Hashtbl.find usage s with Not_found -> 0 in
              Hashtbl.replace usage s (u + 1))
            slots)
    sched;
  Array.iter (fun j -> if not (Hashtbl.mem seen j.id) then fail (Printf.sprintf "job %d unscheduled" j.id)) t.jobs;
  Hashtbl.iter (fun s u -> if u > t.g then fail (Printf.sprintf "slot %d over capacity (%d > %d)" s u t.g)) usage;
  !problem

(* Set of active slots used by a schedule. *)
let active_slots (sched : schedule) =
  List.sort_uniq compare (List.concat_map snd sched)
