(* Online busy-time scheduling (Shalom, Voloshin, Wong, Yung, Zaks,
   cited in Section 1.3): interval jobs arrive in non-decreasing release
   order and must be assigned to a machine immediately and irrevocably.
   Deterministic algorithms cannot beat competitiveness g in general;
   an O(g)-competitive algorithm groups jobs into length classes.

   Implemented:
   - [first_fit]: the natural online rule - first machine with capacity.
   - [bucketed_first_fit]: machines are dedicated to length classes
     [2^k, 2^{k+1}); first fit within the class. This is the classing
     device behind the O(g)-competitive algorithm: within a class, job
     lengths differ by < 2x, so a machine's span is within a constant of
     the mass it carries.

   The bench (e12) measures empirical competitive ratios against the
   offline algorithms; the validity of every packing is property-tested. *)

module Q = Rational
module B = Workload.Bjob

let release_order jobs =
  List.stable_sort (fun (a : B.t) (b : B.t) -> Q.compare a.B.release b.B.release) jobs

let check_interval name jobs =
  List.iter
    (fun (j : B.t) -> if not (B.is_interval j) then invalid_arg (name ^ ": flexible job"))
    jobs

let first_fit ~g jobs =
  if g < 1 then invalid_arg "Online.first_fit: g < 1";
  check_interval "Online.first_fit" jobs;
  Bundle.first_fit ~fits:(Bundle.fits ~g) (release_order jobs)

(* length class: floor(log2 (length / unit)) where unit = the shortest
   length seen offline would be cheating; online we class against 1, so
   lengths in [2^k, 2^{k+1}) share machines. Rational-exact. *)
let length_class (len : Q.t) =
  if Q.compare len Q.zero <= 0 then invalid_arg "Online.length_class: non-positive length";
  let k = ref 0 in
  let v = ref len in
  if Q.compare len Q.one >= 0 then
    while Q.compare !v Q.two >= 0 do
      v := Q.div !v Q.two;
      incr k
    done
  else begin
    while Q.compare !v Q.one < 0 do
      v := Q.mul !v Q.two;
      decr k
    done
  end;
  !k

let bucketed_first_fit ~g jobs =
  if g < 1 then invalid_arg "Online.bucketed_first_fit: g < 1";
  check_interval "Online.bucketed_first_fit" jobs;
  (* each class's jobs in release order, newest first *)
  let classes : (int, B.t list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (job : B.t) ->
      let c = length_class job.B.length in
      match Hashtbl.find_opt classes c with
      | Some r -> r := job :: !r
      | None -> Hashtbl.replace classes c (ref [ job ]))
    (release_order jobs);
  Hashtbl.fold (fun _ r acc -> Bundle.first_fit ~fits:(Bundle.fits ~g) (List.rev !r) @ acc) classes []
