let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let map ?domains f xs =
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue_ = ref true in
      while !continue_ do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue_ := false
        else begin
          let r = try Ok (f arr.(i)) with e -> Error e in
          results.(i) <- Some r
        end
      done
    in
    let spawned = List.init (min (domains - 1) (n - 1)) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error e) -> raise e
           | None -> assert false (* every index was claimed and completed *))
         results)
  end

let init ?domains n f = map ?domains f (List.init n (fun i -> i))

(* Exception firewall for supervised workers: a raising task becomes an
   [Error] value instead of unwinding the calling domain. [map]/[init]
   use the same per-task capture internally (every task still runs, all
   domains join, then the first failure in input order re-raises); this
   exposes the captured form directly for callers — the serve daemon's
   workers — that must outlive any single task's failure. *)
let run_isolated f = try Ok (f ()) with e -> Error e
