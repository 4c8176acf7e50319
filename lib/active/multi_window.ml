(* The multiple-window generalization of active time (Chang, Gabow,
   Khuller [2], discussed in Section 1.3): a job may be scheduled in a
   union of disjoint time intervals rather than one window. Once capacity
   exceeds two the problem is NP-hard (reduction from 3-EXACT-COVER), so
   this module provides the flow feasibility test, minimal feasible
   solutions, and an exact branch-and-bound - the same toolkit as the
   single-window case, over the richer window structure. Feasibility is
   Fig. 2's G_feas with a job's arcs to every slot of its windows,
   wired by {!Feasibility.windows_network} once per call of [feasible],
   [minimal] or [optimum] and probed by {!Feasibility.fits}. *)

module Q = Rational

type job = {
  id : int;
  windows : (int * int) list; (* disjoint (release, deadline) pairs, sorted *)
  length : int;
}

type t = { jobs : job array; g : int }

let job ~id ~windows ~length =
  if length < 1 then invalid_arg "Multi_window.job: length < 1";
  if windows = [] then invalid_arg "Multi_window.job: no windows";
  let sorted = List.sort compare windows in
  let rec disjoint = function
    | (_, d1) :: ((r2, _) :: _ as rest) -> d1 <= r2 && disjoint rest
    | _ -> true
  in
  List.iter
    (fun (r, d) -> if r < 0 || d <= r then invalid_arg "Multi_window.job: bad window")
    sorted;
  if not (disjoint sorted) then invalid_arg "Multi_window.job: overlapping windows";
  let capacity = List.fold_left (fun acc (r, d) -> acc + d - r) 0 sorted in
  if capacity < length then invalid_arg "Multi_window.job: windows shorter than length";
  { id; windows = sorted; length }

let window_slots j =
  List.concat_map (fun (r, d) -> List.init (d - r) (fun i -> r + 1 + i)) j.windows

let make ~g jobs =
  if g < 1 then invalid_arg "Multi_window.make: g < 1";
  { jobs = Array.of_list jobs; g }

let total_length t = Array.fold_left (fun acc j -> acc + j.length) 0 t.jobs

let relevant_slots t =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun j -> List.iter (fun s -> Hashtbl.replace tbl s ()) (window_slots j)) t.jobs;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) tbl [])

let mass_lower_bound t = (total_length t + t.g - 1) / t.g

(* Each probe re-capacitates the network and compares the max flow
   with P: [on] holds 1 per open slot of {!Feasibility.network_slots}
   and 0 per closed one, Fig. 2's capacities. *)
let network t =
  Feasibility.windows_network ~g:t.g (Array.map (fun j -> (j.id, j.length, window_slots j)) t.jobs)

(* [net]'s slots and the 0/1 array of [open_slots] over them *)
let open_array net open_slots =
  let slots = Feasibility.network_slots net in
  let open_ = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace open_ s ()) open_slots;
  (slots, Array.map (fun s -> if Hashtbl.mem open_ s then 1 else 0) slots)

let feasible t ~open_slots =
  let net = network t in
  Feasibility.fits net ~on:(snd (open_array net open_slots))

(* The open slots of [on] over [slots], increasing. *)
let open_of slots on = List.filteri (fun si _ -> on.(si) > 0) (Array.to_list slots)

(* Close slots greedily, increasing; single pass is minimal by
   monotonicity. *)
let minimize net on =
  if not (Feasibility.fits net ~on) then None
  else begin
    Array.iteri
      (fun si c ->
        if c > 0 then begin
          on.(si) <- 0;
          if not (Feasibility.fits net ~on) then on.(si) <- 1
        end)
      on;
    Some on
  end

let minimal ?start t =
  let net = network t in
  let slots, on =
    match start with
    | Some s -> open_array net s
    | None ->
        let slots = Feasibility.network_slots net in
        (slots, Array.make (Array.length slots) 1)
  in
  Option.map (open_of slots) (minimize net on)

(* Exact optimum by the same branch-and-bound as {!Exact}. Level [i]
   closes slot [i] in [on] and probes, with every later slot open, then
   opens it. *)
let optimum t =
  let net = network t in
  let slots = Feasibility.network_slots net in
  let k = Array.length slots in
  match minimize net (Array.make k 1) with
  | None -> None
  | Some seed ->
      let seed = open_of slots seed in
      let on = Array.make k 1 in
      let best = ref (List.length seed) in
      let best_set = ref seed in
      let mass_lb = mass_lower_bound t in
      let rec dfs i opened n_open =
        if n_open < !best then begin
          if i = k then begin
            best := n_open;
            best_set := List.rev opened
          end
          else if max n_open mass_lb < !best then begin
            on.(i) <- 0;
            if Feasibility.fits net ~on then dfs (i + 1) opened n_open;
            on.(i) <- 1;
            dfs (i + 1) (slots.(i) :: opened) (n_open + 1)
          end
        end
      in
      dfs 0 [] 0;
      Some (List.length !best_set, !best_set)

(* A schedulable-sets instance in the style of the 3-EXACT-COVER hardness
   reduction: set-jobs whose windows are the unit slots of the elements
   they hold. With g >= 3 such instances are where the NP-hardness
   lives. *)
let exact_cover_instance ~g sets =
  let jobs =
    List.mapi
      (fun i members ->
        let windows = List.map (fun m -> (m, m + 1)) (List.sort_uniq compare members) in
        job ~id:i ~windows ~length:(List.length (List.sort_uniq compare members)))
      sets
  in
  make ~g jobs
