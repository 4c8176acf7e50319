(* Special-case busy-time algorithms (paper footnote 1 and Section 1.3).

   - Proper instances (no job's interval strictly contains another's):
     Flammini et al. show the greedy that scans jobs by release time and
     first-fits them is 2-approximate.
   - Clique instances (all intervals share a common time point): grouping
     g consecutive jobs in release order is 2-approximate.
   - Proper cliques: a simple dynamic program is exact (Mertzios et al.).
     In a proper instance sorted by release time, deadlines are sorted
     too, so a bundle of consecutive jobs spans d_last - r_first; an
     exchange argument shows some optimal solution partitions the sorted
     order into consecutive runs of at most g jobs, which the DP searches
     in O(n g). *)

module Q = Rational
module B = Workload.Bjob
module I = Intervals.Interval

let sorted_by_release jobs =
  List.sort
    (fun (a : B.t) (b : B.t) ->
      let c = Q.compare a.B.release b.B.release in
      if c <> 0 then c else Q.compare a.B.deadline b.B.deadline)
    jobs

(* No interval strictly contains another. *)
let is_proper jobs =
  let arr = Array.of_list (sorted_by_release jobs) in
  let ok = ref true in
  Array.iteri
    (fun i (ji : B.t) ->
      Array.iteri
        (fun k (jk : B.t) ->
          if i <> k && Q.compare ji.B.release jk.B.release < 0 && Q.compare jk.B.deadline ji.B.deadline < 0
          then ok := false)
        arr)
    arr;
  !ok

(* All intervals share a common point. *)
let is_clique jobs =
  match jobs with
  | [] -> true
  | _ ->
      let max_r = List.fold_left (fun acc (j : B.t) -> Q.max acc j.B.release) (List.hd jobs).B.release jobs in
      let min_d = List.fold_left (fun acc (j : B.t) -> Q.min acc j.B.deadline) (List.hd jobs).B.deadline jobs in
      Q.compare max_r min_d < 0

let check_interval name jobs =
  List.iter
    (fun (j : B.t) ->
      if not (B.is_interval j) then invalid_arg (name ^ ": flexible job (convert first)"))
    jobs

(* Proper instances: first-fit in release order (2-approximate). *)
let proper_greedy ~g jobs =
  if g < 1 then invalid_arg "Special.proper_greedy: g < 1";
  check_interval "Special.proper_greedy" jobs;
  if not (is_proper jobs) then invalid_arg "Special.proper_greedy: instance is not proper";
  Bundle.first_fit ~fits:(Bundle.fits ~g) (sorted_by_release jobs)

(* Clique instances: g consecutive jobs per machine, in release order
   (2-approximate). *)
let clique_greedy ~g jobs =
  if g < 1 then invalid_arg "Special.clique_greedy: g < 1";
  check_interval "Special.clique_greedy" jobs;
  if not (is_clique jobs) then invalid_arg "Special.clique_greedy: instance is not a clique";
  let rec chunk acc current count = function
    | [] -> List.rev (if current = [] then acc else current :: acc)
    | j :: rest ->
        if count = g then chunk (current :: acc) [ j ] 1 rest else chunk acc (j :: current) (count + 1) rest
  in
  chunk [] [] 0 (sorted_by_release jobs)

(* Proper cliques: exact DP over consecutive runs in the sorted order. *)
let proper_clique_exact ~g jobs =
  if g < 1 then invalid_arg "Special.proper_clique_exact: g < 1";
  check_interval "Special.proper_clique_exact" jobs;
  if not (is_proper jobs && is_clique jobs) then
    invalid_arg "Special.proper_clique_exact: instance is not a proper clique";
  match sorted_by_release jobs with
  | [] -> []
  | sorted ->
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      (* span of consecutive run [i, k]: all jobs share a point, so the
         union is one interval d_k - r_i (deadlines sorted with releases) *)
      let run_span i k = Q.sub arr.(k).B.deadline arr.(i).B.release in
      let dp = Array.make (n + 1) None in
      let choice = Array.make (n + 1) 0 in
      dp.(0) <- Some Q.zero;
      for i = 1 to n do
        for size = 1 to min g i do
          match dp.(i - size) with
          | None -> ()
          | Some prev -> (
              let candidate = Q.add prev (run_span (i - size) (i - 1)) in
              match dp.(i) with
              | Some best when Q.compare best candidate <= 0 -> ()
              | _ ->
                  dp.(i) <- Some candidate;
                  choice.(i) <- size)
        done
      done;
      let rec rebuild i acc =
        if i = 0 then acc
        else begin
          let size = choice.(i) in
          let bundle = Array.to_list (Array.sub arr (i - size) size) in
          rebuild (i - size) (bundle :: acc)
        end
      in
      rebuild n []
