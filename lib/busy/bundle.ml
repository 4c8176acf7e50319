(* Bundles (machine groups) for the busy-time model.

   A packing assigns every interval job to a bundle; each bundle runs on
   its own machine, at most [g] jobs active simultaneously. The busy time
   of a bundle is the measure of the union of its jobs' intervals
   (Definition 10's span); the packing cost is the sum over bundles. *)

module Q = Rational
module B = Workload.Bjob

type t = B.t list
type packing = t list

let intervals bundle = List.map B.interval_of bundle
let busy_time bundle = Intervals.span (intervals bundle)
let total_busy packing = List.fold_left (fun acc b -> Q.add acc (busy_time b)) Q.zero packing

(* Peak number of simultaneously active jobs in a bundle. *)
let max_parallel bundle = Intervals.Demand.max_raw (intervals bundle)

(* [fits ~g bundle job] iff adding [job] keeps the bundle within capacity.
   Only the demand inside [job]'s own interval can change, so clip the
   bundle to it instead of recomputing the whole bundle's peak. *)
let fits ~g bundle job =
  let iv = B.interval_of job in
  let clipped =
    List.filter_map (fun (b : B.t) -> Intervals.Interval.intersect (B.interval_of b) iv) bundle
  in
  Intervals.Demand.max_raw clipped + 1 <= g

(* Each item, in order, into the first bundle [fits] accepts, or else
   into a new bundle after the others. *)
let first_fit ?(obs = Obs.null) ~fits items =
  let rec place item = function
    | [] ->
        Obs.incr obs "busy.first_fit.bundles_opened";
        [ [ item ] ]
    | bundle :: rest ->
        Obs.incr obs "busy.first_fit.fit_probes";
        if fits bundle item then (item :: bundle) :: rest else bundle :: place item rest
  in
  List.fold_left (fun bundles item -> place item bundles) [] items

(* Validates a packing of [jobs]: interval jobs only, exact partition by
   id, capacity respected. Returns the first violation, or [None]. *)
let check ~g jobs (packing : packing) =
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  List.iter
    (fun (j : B.t) -> if not (B.is_interval j) then fail (Printf.sprintf "job %d is flexible" j.B.id))
    jobs;
  let expected = List.sort compare (List.map (fun (j : B.t) -> j.B.id) jobs) in
  let packed = List.sort compare (List.concat_map (List.map (fun (j : B.t) -> j.B.id)) packing) in
  if expected <> packed then fail "packing is not a partition of the job set";
  List.iteri
    (fun i bundle ->
      if bundle = [] then fail (Printf.sprintf "bundle %d is empty" i)
      else if max_parallel bundle > g then fail (Printf.sprintf "bundle %d exceeds capacity g=%d" i g))
    packing;
  !problem

(* Guard for algorithms that track jobs by id (removal sets, DP memo
   keys): duplicate ids would silently corrupt them. *)
let ensure_unique_ids name jobs =
  let ids = List.map (fun (j : B.t) -> j.B.id) jobs in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg (name ^ ": duplicate job ids")

let pp fmt packing =
  List.iteri
    (fun i bundle ->
      Format.fprintf fmt "machine %d (busy %s): %s@." i
        (Q.to_string (busy_time bundle))
        (String.concat " "
           (List.map
              (fun (j : B.t) -> Printf.sprintf "%d%s" j.B.id (Intervals.Interval.to_string (B.interval_of j)))
              bundle)))
    packing
