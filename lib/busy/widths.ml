(* Busy time with job widths/demands (Khandekar et al., discussed in
   Section 1: each job has a width w <= g and the active widths on a
   machine may sum to at most g at any time).

   Provided:
   - width-aware packing validation and lower bounds (mass becomes
     sum(w_j p_j)/g; the demand profile weighs raw demand by width);
   - FIRSTFIT by length over width-aware capacity;
   - the narrow/wide split of Khandekar et al.: wide jobs (w > g/2) are
     FirstFit-packed among themselves (at most one wide job runs at a
     time on a machine - the regime their 5-approximation analyses), and
     narrow jobs are FirstFit-packed separately;
   - an exact branch-and-bound for small instances. *)

module Q = Rational
module B = Workload.Bjob
module I = Intervals.Interval

type wjob = { job : B.t; width : int }

let wjob ~job ~width =
  if width < 1 then invalid_arg "Widths.wjob: width < 1";
  if not (B.is_interval job) then invalid_arg "Widths.wjob: flexible job";
  { job; width }

(* peak total width of a bundle within an interval (None = everywhere) *)
let peak_width ?within bundle =
  let clipped =
    List.filter_map
      (fun w ->
        let iv = B.interval_of w.job in
        match within with
        | None -> Some (iv, w.width)
        | Some window -> Option.map (fun i -> (i, w.width)) (I.intersect iv window))
      bundle
  in
  let cells = Intervals.Demand.cells (List.map fst clipped) in
  List.fold_left
    (fun acc (c : Intervals.Demand.cell) ->
      let total =
        List.fold_left
          (fun t (iv, w) -> if I.overlaps iv c.Intervals.Demand.cell then t + w else t)
          0 clipped
      in
      max acc total)
    0 cells

let fits ~g bundle w =
  w.width <= g && peak_width ~within:(B.interval_of w.job) bundle + w.width <= g

let busy_time bundle = Intervals.span (List.map (fun w -> B.interval_of w.job) bundle)
let total_busy packing = List.fold_left (fun acc b -> Q.add acc (busy_time b)) Q.zero packing

let check ~g jobs packing =
  let problem = ref None in
  let fail msg = if !problem = None then problem := Some msg in
  let ids l = List.sort compare (List.map (fun w -> w.job.B.id) l) in
  if ids jobs <> ids (List.concat packing) then fail "packing is not a partition";
  List.iteri
    (fun i bundle ->
      if bundle = [] then fail (Printf.sprintf "bundle %d empty" i)
      else if peak_width bundle > g then fail (Printf.sprintf "bundle %d exceeds width capacity" i))
    packing;
  List.iter (fun w -> if w.width > g then fail (Printf.sprintf "job %d wider than g" w.job.B.id)) jobs;
  !problem

(* mass bound: sum of width * length / g *)
let mass ~g jobs =
  if g < 1 then invalid_arg "Widths.mass: g < 1";
  Q.div
    (List.fold_left (fun acc w -> Q.add acc (Q.mul (Q.of_int w.width) w.job.B.length)) Q.zero jobs)
    (Q.of_int g)

let span jobs = Intervals.span (List.map (fun w -> B.interval_of w.job) jobs)

(* width-weighted demand profile: sum over cells of ceil(width demand / g) *)
let demand_profile ~g jobs =
  if g < 1 then invalid_arg "Widths.demand_profile: g < 1";
  let items = List.map (fun w -> (B.interval_of w.job, w.width)) jobs in
  let cells = Intervals.Demand.cells (List.map fst items) in
  List.fold_left
    (fun acc (c : Intervals.Demand.cell) ->
      let total =
        List.fold_left (fun t (iv, w) -> if I.overlaps iv c.Intervals.Demand.cell then t + w else t) 0 items
      in
      let levels = (total + g - 1) / g in
      Q.add acc (Q.mul (Q.of_int levels) (I.length c.Intervals.Demand.cell)))
    Q.zero cells

let best_bound ~g jobs = Q.max (mass ~g jobs) (Q.max (span jobs) (demand_profile ~g jobs))

let first_fit ~g jobs =
  if g < 1 then invalid_arg "Widths.first_fit: g < 1";
  List.iter (fun w -> if w.width > g then invalid_arg "Widths.first_fit: job wider than g") jobs;
  Bundle.first_fit ~fits:(fits ~g) (List.stable_sort (fun a b -> Q.compare b.job.B.length a.job.B.length) jobs)

(* Khandekar et al.'s narrow/wide split: wide jobs (width > g/2) never
   share a time point on a machine, so they are packed among themselves;
   narrow jobs are FirstFit-packed separately. *)
let is_wide ~g w = 2 * w.width > g

let narrow_wide_split ~g jobs =
  if g < 1 then invalid_arg "Widths.narrow_wide_split: g < 1";
  let wide, narrow = List.partition (is_wide ~g) jobs in
  first_fit ~g wide @ first_fit ~g narrow

(* Exact optimum for small instances (insertion branch-and-bound). *)
let exact ~g jobs =
  if g < 1 then invalid_arg "Widths.exact: g < 1";
  if List.length jobs > 12 then invalid_arg "Widths.exact: too many jobs";
  let sorted = List.sort (fun a b -> Q.compare a.job.B.release b.job.B.release) jobs in
  let seed = first_fit ~g jobs in
  let best = ref (total_busy seed) in
  let best_packing = ref seed in
  let rec dfs bundles cost = function
    | [] ->
        if Q.compare cost !best < 0 then begin
          best := cost;
          best_packing := bundles
        end
    | w :: rest ->
        List.iteri
          (fun i bundle ->
            if fits ~g bundle w then begin
              let grown = w :: bundle in
              let delta = Q.sub (busy_time grown) (busy_time bundle) in
              let cost' = Q.add cost delta in
              if Q.compare cost' !best < 0 then
                dfs (List.mapi (fun k b -> if k = i then grown else b) bundles) cost' rest
            end)
          bundles;
        let cost' = Q.add cost w.job.B.length in
        if Q.compare cost' !best < 0 then dfs ([ w ] :: bundles) cost' rest
  in
  dfs [] Q.zero sorted;
  !best_packing
