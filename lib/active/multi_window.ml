(* The multiple-window generalization of active time (Chang, Gabow,
   Khuller [2], discussed in Section 1.3): a job may be scheduled in a
   union of disjoint time intervals rather than one window. Once capacity
   exceeds two the problem is NP-hard (reduction from 3-EXACT-COVER), so
   this module provides the flow feasibility test, minimal feasible
   solutions, and an exact branch-and-bound - the same toolkit as the
   single-window case, over the richer window structure. Feasibility is
   Fig. 2's G_feas with a job's arcs to every slot of its windows,
   wired by {!Feasibility.windows_network} once per call of [feasible],
   [minimal] or [optimum]. *)

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

(* Each probe re-capacitates the network, a closed slot at capacity 0. *)
let network t =
  Feasibility.windows_network ~g:t.g (Array.map (fun j -> (j.id, j.length, window_slots j)) t.jobs)

let fits net open_slots = Feasibility.schedule net ~open_slots <> None
let feasible t ~open_slots = fits (network t) open_slots

(* Close slots greedily; single pass is minimal by monotonicity. *)
let minimize net start =
  if not (fits net start) then None
  else begin
    let current = ref (List.sort_uniq compare start) in
    List.iter
      (fun s ->
        let without = List.filter (fun s' -> s' <> s) !current in
        if fits net without then current := without)
      !current;
    Some !current
  end

let minimal ?start t =
  let net = network t in
  minimize net (match start with Some s -> s | None -> Array.to_list (Feasibility.network_slots net))

(* Exact optimum by the same branch-and-bound as {!Exact}. *)
let optimum t =
  let net = network t in
  let slots = Feasibility.network_slots net in
  let k = Array.length slots in
  match minimize net (Array.to_list slots) with
  | None -> None
  | Some seed ->
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
            let rest = Array.to_list (Array.sub slots (i + 1) (k - i - 1)) in
            if fits net (List.rev_append opened rest) then dfs (i + 1) opened n_open;
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
