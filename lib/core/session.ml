(* Unified warm solver state. See session.mli for the design notes.

   Slots use the extensible-exception universal type: each key carries
   an inject/project pair built from a locally defined exception
   constructor, so a slot table can hold values of distinct types and
   lookups stay type-safe without magic. *)

module Slot = struct
  type 'a key = {
    id : int;
    key_name : string;
    inject : 'a -> exn;
    project : exn -> 'a option;
  }

  let next_id = Atomic.make 0

  let key (type a) ~name () : a key =
    let module M = struct
      exception E of a
    end in
    {
      id = Atomic.fetch_and_add next_id 1;
      key_name = name;
      inject = (fun v -> M.E v);
      project = (function M.E v -> Some v | _ -> None);
    }

  let key_name k = k.key_name
end

type t = (int, exn) Hashtbl.t

let create () : t = Hashtbl.create 8

let find (t : t) (k : 'a Slot.key) : 'a option =
  match Hashtbl.find_opt t k.Slot.id with
  | None -> None
  | Some packed -> k.Slot.project packed

let set (t : t) (k : 'a Slot.key) (v : 'a) = Hashtbl.replace t k.Slot.id (k.Slot.inject v)
let remove (t : t) (k : 'a Slot.key) = Hashtbl.remove t k.Slot.id
let clear (t : t) = Hashtbl.reset t

let reuse ?(obs = Obs.null) t key ~validate ~build =
  match find t key with
  | Some v when validate v ->
      Obs.incr obs "session.warm_hits";
      v
  | Some _ ->
      Obs.incr obs "session.rebuilds";
      let v = build () in
      set t key v;
      v
  | None ->
      Obs.incr obs "session.warm_misses";
      let v = build () in
      set t key v;
      v

module Memo = struct
  type 'v t = {
    m : Mutex.t;
    tbl : (string, 'v) Hashtbl.t;
    order : string Queue.t;
    capacity : int;
  }

  let create ~capacity =
    { m = Mutex.create (); tbl = Hashtbl.create 64; order = Queue.create (); capacity }

  let find t key =
    if t.capacity <= 0 then None
    else Mutex.protect t.m (fun () -> Hashtbl.find_opt t.tbl key)

  let store t key v =
    if t.capacity > 0 then
      Mutex.protect t.m (fun () ->
          if not (Hashtbl.mem t.tbl key) then begin
            if Hashtbl.length t.tbl >= t.capacity then begin
              let oldest = Queue.pop t.order in
              Hashtbl.remove t.tbl oldest
            end;
            Hashtbl.replace t.tbl key v;
            Queue.push key t.order
          end)

  let length t = Mutex.protect t.m (fun () -> Hashtbl.length t.tbl)
end
