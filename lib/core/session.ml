(* The bounded response memo. See session.mli for the design notes. *)

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
