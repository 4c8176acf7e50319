(* Preemptive busy time.

   Theorem 6 (exact, g unbounded): repeatedly take the earliest remaining
   deadline d1 and the largest remaining length l_max among jobs due at
   d1; open the RIGHTMOST l_max units of not-yet-opened time before d1;
   schedule every live job maximally inside the new region; repeat. The
   "shrink the interval and recurse" of the paper is realized by always
   working in original coordinates against the set of already-opened time.

   Theorem 7 (2-approximation, bounded g): freeze each job exactly where
   the unbounded solution ran it, split every interesting interval's
   active jobs onto ceil(n/g) machines. At most one machine per interval
   is non-full, so the cost is at most OPT_inf + l(J)/g <= 2 OPT. *)

module Q = Rational
module B = Workload.Bjob
module I = Intervals.Interval
module U = Intervals.Union

type assignment = { job : B.t; pieces : I.t list (* disjoint, within window *) }

type solution = { opened : U.t; assignments : assignment list; cost : Q.t }

(* rightmost [amount] of measure from a list of disjoint intervals
   (sorted); returns the chosen sub-intervals. Raises if not enough. *)
let take_rightmost intervals amount =
  let rec go acc needed = function
    | [] -> if Q.is_zero needed then acc else invalid_arg "take_rightmost: not enough free time"
    | (iv : I.t) :: rest ->
        let len = I.length iv in
        if Q.compare len needed >= 0 then I.make (Q.sub iv.I.hi needed) iv.I.hi :: acc
        else go (iv :: acc) (Q.sub needed len) rest
  in
  if Q.compare amount Q.zero <= 0 then [] else go [] amount (List.rev intervals)

let intersect_all ivs (window : I.t) = List.filter_map (I.intersect window) ivs

let measure ivs = List.fold_left (fun acc iv -> Q.add acc (I.length iv)) Q.zero ivs

let unbounded jobs =
  let remaining = Hashtbl.create 16 in
  List.iter (fun (j : B.t) -> Hashtbl.replace remaining j.B.id j.B.length) jobs;
  let pieces = Hashtbl.create 16 in
  List.iter (fun (j : B.t) -> Hashtbl.replace pieces j.B.id []) jobs;
  let rem (j : B.t) = Hashtbl.find remaining j.B.id in
  let opened = ref U.empty in
  let global_lo =
    List.fold_left (fun acc (j : B.t) -> Q.min acc j.B.release) Q.zero jobs
  in
  let alive () = List.filter (fun j -> Q.compare (rem j) Q.zero > 0) jobs in
  let rec loop () =
    match alive () with
    | [] -> ()
    | live ->
        let d1 = List.fold_left (fun acc (j : B.t) -> Q.min acc j.B.deadline) (List.hd live).B.deadline live in
        let due = List.filter (fun (j : B.t) -> Q.equal j.B.deadline d1) live in
        let l_max = List.fold_left (fun acc j -> Q.max acc (rem j)) Q.zero due in
        (* rightmost l_max units of unopened time before d1 *)
        let free = U.gaps !opened (I.make global_lo d1) in
        let region = take_rightmost free l_max in
        opened := List.fold_left U.add !opened region;
        (* every live job grabs as much of the region (within window) as
           it still needs, rightmost first *)
        List.iter
          (fun (j : B.t) ->
            let within = intersect_all region (B.window j) in
            let amount = Q.min (rem j) (measure within) in
            if Q.compare amount Q.zero > 0 then begin
              let chosen = take_rightmost within amount in
              Hashtbl.replace pieces j.B.id (chosen @ Hashtbl.find pieces j.B.id);
              Hashtbl.replace remaining j.B.id (Q.sub (rem j) amount)
            end)
          live;
        (* the due jobs must now be complete *)
        List.iter (fun j -> assert (Q.is_zero (rem j))) due;
        loop ()
  in
  loop ();
  let assignments =
    List.map (fun (j : B.t) -> { job = j; pieces = List.sort I.compare (Hashtbl.find pieces j.B.id) }) jobs
  in
  { opened = !opened; assignments; cost = U.measure !opened }

(* Validation of a preemptive solution: every job fully served, inside its
   window, by pairwise-disjoint pieces contained in the opened time. *)
let check jobs sol =
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  List.iter
    (fun (j : B.t) ->
      match List.find_opt (fun a -> a.job.B.id = j.B.id) sol.assignments with
      | None -> fail (Printf.sprintf "job %d has no assignment" j.B.id)
      | Some a ->
          let total = measure a.pieces in
          if not (Q.equal total j.B.length) then
            fail (Printf.sprintf "job %d served %s of %s" j.B.id (Q.to_string total) (Q.to_string j.B.length));
          List.iter
            (fun piece ->
              if not (I.subset piece (B.window j)) then fail (Printf.sprintf "job %d runs outside window" j.B.id);
              if not (Q.equal (Intervals.Union.marginal sol.opened piece) Q.zero) then
                fail (Printf.sprintf "job %d runs outside opened time" j.B.id))
            a.pieces;
          if not (Q.equal (Intervals.span a.pieces) total) then
            fail (Printf.sprintf "job %d overlaps itself" j.B.id))
    jobs;
  !problem

(* Independent oracle for Theorem 6's exactness claim: with unbounded
   parallelism and continuous preemption, the optimal busy time is a
   linear program over the event grid of all releases and deadlines -
   open y_c units of time inside cell c (0 <= y_c <= |c|) and serve
   x_{j,c} <= y_c units of job j there (a job cannot run in parallel with
   itself), sum_c x_{j,c} = p_j, minimizing sum_c y_c. Fractional opening
   is realizable because time is continuous: any (y, x) solution can
   schedule inside each cell with everything left-packed. The tests check
   [unbounded] against this LP on random instances. *)
let lp_model jobs =
  let events =
      List.sort_uniq Q.compare (List.concat_map (fun (j : B.t) -> [ j.B.release; j.B.deadline ]) jobs)
    in
    let rec cells = function
      | a :: (b :: _ as rest) -> I.make a b :: cells rest
      | _ -> []
    in
    let cells = cells events in
    let m = Lp.create () in
    let y_vars =
      List.mapi (fun i c -> (c, Lp.add_var ~upper:(I.length c) m (Printf.sprintf "y_%d" i))) cells
    in
    let x_vars =
      List.concat
        (List.mapi
           (fun i (c, yv) ->
             List.filter_map
               (fun (j : B.t) ->
                 if I.subset c (B.window j) then begin
                   let xv = Lp.add_var m (Printf.sprintf "x_%d_%d" i j.B.id) in
                   (* x_{j,c} <= y_c *)
                   Lp.add_constraint m [ (Q.one, xv); (Q.minus_one, yv) ] Lp.Le Q.zero;
                   Some (j.B.id, xv)
                 end
                 else None)
               jobs)
           y_vars)
    in
    List.iter
      (fun (j : B.t) ->
        let terms = List.filter_map (fun (id, xv) -> if id = j.B.id then Some (Q.one, xv) else None) x_vars in
        Lp.add_constraint m terms Lp.Ge j.B.length)
      jobs;
    Lp.set_objective m Lp.Minimize (List.map (fun (_, yv) -> (Q.one, yv)) y_vars);
    m

let lp_optimum jobs =
  if jobs = [] then Q.zero
  else
    match Lp.solve (lp_model jobs) with
    | Lp.Optimal sol -> Lp.objective_value sol
    | Lp.Infeasible | Lp.Unbounded -> assert false (* window >= length per job *)

(* Per-cell machine counts for the bounded-g schedule derived from the
   unbounded solution (Theorem 7). Returns (total cost, per-cell list of
   (cell, active jobs, machines)). *)
let bounded ~g jobs =
  if g < 1 then invalid_arg "Preemptive.bounded: g < 1";
  let sol = unbounded jobs in
  let all_pieces = List.concat_map (fun a -> a.pieces) sol.assignments in
  let cells = Intervals.Demand.cells all_pieces in
  let detail =
    List.filter_map
      (fun (c : Intervals.Demand.cell) ->
        if c.Intervals.Demand.raw = 0 then None
        else begin
          let active =
            List.filter_map
              (fun a ->
                if List.exists (fun p -> I.overlaps p c.Intervals.Demand.cell) a.pieces then Some a.job
                else None)
              sol.assignments
          in
          let machines = (List.length active + g - 1) / g in
          Some (c.Intervals.Demand.cell, active, machines)
        end)
      cells
  in
  let cost =
    List.fold_left
      (fun acc (cell, _, machines) -> Q.add acc (Q.mul (Q.of_int machines) (I.length cell)))
      Q.zero detail
  in
  (cost, sol, detail)
