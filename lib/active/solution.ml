(* An active-time solution: the set of open (active) slots plus an integral
   schedule. Cost = number of open slots (the machine's active time). *)

module S = Workload.Slotted

type t = { open_slots : int list; (* sorted, distinct *) schedule : S.schedule }

let cost t = List.length t.open_slots

let of_open_slots ?net (inst : S.t) ~open_slots =
  match Feasibility.schedule (Feasibility.network_for ?net inst) ~open_slots with
  | None -> None
  | Some schedule ->
      (* drop open slots no schedule unit uses? No: cost counts every open
         slot the solution declares; keep exactly the given set. *)
      Some { open_slots = List.sort_uniq compare open_slots; schedule }

(* Full validation: schedule feasible for the instance and contained in the
   declared open slots. Returns a violation description, or [None]. *)
let verify (inst : S.t) t =
  match S.check_schedule inst t.schedule with
  | Some problem -> Some problem
  | None ->
      let open_set = Hashtbl.create 32 in
      List.iter (fun s -> Hashtbl.replace open_set s ()) t.open_slots;
      if List.for_all (Hashtbl.mem open_set) (S.active_slots t.schedule) then None
      else Some "schedule uses a slot outside the declared open set"

let pp fmt t =
  Format.fprintf fmt "active time %d, open slots: %s@." (cost t)
    (String.concat "," (List.map string_of_int t.open_slots));
  List.iter
    (fun (id, slots) ->
      Format.fprintf fmt "  job %d -> %s@." id (String.concat "," (List.map string_of_int slots)))
    t.schedule
