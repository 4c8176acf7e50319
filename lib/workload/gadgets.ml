(* The paper's adversarial instances, one constructor per figure.

   Each constructor documents the instance, its optimal cost and the bad
   cost the paper derives; benches E1/E3/E5/E6/E7/E8 re-measure these. *)

module Q = Rational
module I = Intervals.Interval

(* ---------------------------------------------------------------------- *)
(* Fig. 3 — minimal feasible solutions can cost ~3 OPT (active time).      *)
(* Jobs: two length-g jobs with windows [0,2g) and [g,3g); g-2 rigid jobs  *)
(* of length g-2 with window [g+1,2g-1); g-2 unit jobs with window         *)
(* [g+1,2g); g-2 unit jobs with window [g,2g-1). OPT = g (open [g,2g)); a  *)
(* minimal feasible solution can cost 3g - O(1).                           *)
(* ---------------------------------------------------------------------- *)

let minimal_feasible_tight g =
  if g < 3 then invalid_arg "Gadgets.minimal_feasible_tight: needs g >= 3";
  let jobs = ref [] in
  let id = ref 0 in
  let add ~release ~deadline ~length =
    jobs := Slotted.job ~id:!id ~release ~deadline ~length :: !jobs;
    incr id
  in
  add ~release:0 ~deadline:(2 * g) ~length:g;
  add ~release:g ~deadline:(3 * g) ~length:g;
  for _ = 1 to g - 2 do
    add ~release:(g + 1) ~deadline:((2 * g) - 1) ~length:(g - 2)
  done;
  for _ = 1 to g - 2 do
    add ~release:(g + 1) ~deadline:(2 * g) ~length:1
  done;
  for _ = 1 to g - 2 do
    add ~release:g ~deadline:((2 * g) - 1) ~length:1
  done;
  Slotted.make ~g (List.rev !jobs)

(* The adversarial minimal open-slot set of Fig. 3: slots 1..g for the
   first long job, the full middle window (slots g+2 .. 2g-1, kept full by
   the rigid and unit jobs), and slots 2g+1..3g for the second long job.

   Note: the paper's prose places the long jobs at [1, g+1) and
   [2g-1, 3g-1), but those regions share slots g+1 / 2g with the unit
   jobs' windows, which lets the unit jobs escape the middle under
   reassignment and makes the set non-minimal. Shifting the long jobs one
   slot outward ([0, g) and [2g, 3g)) seals the escape: the resulting set
   is genuinely minimal (Definition 4) with cost 3g - 2. *)
let minimal_feasible_tight_bad_slots g =
  let range a b = List.init (b - a + 1) (fun i -> a + i) in
  range 1 g @ range (g + 2) ((2 * g) - 1) @ range ((2 * g) + 1) (3 * g)

(* Optimal active-slot set of Fig. 3: the window [g, 2g), i.e. slots
   g+1 .. 2g. *)
let minimal_feasible_tight_opt_slots g = List.init g (fun i -> g + 1 + i)

(* ---------------------------------------------------------------------- *)
(* Branch-and-bound stress gadget (not from the paper): [groups] disjoint  *)
(* groups of g+1 unit jobs sharing a window of [width] slots. Every group  *)
(* needs exactly 2 open slots (g+1 units against capacity g), but any 2 of *)
(* its [width] slots do, so the mass bound ceil(groups*(g+1)/g) sits far   *)
(* below OPT = 2*groups and the flow pruning only bites deep in the tree:  *)
(* the search is near-exhaustive over ~ C(width,2)^groups combinations.    *)
(* Empirically (g=2): groups=5, width=6 -> ~7.1e6 nodes; each extra group  *)
(* multiplies the count by ~16.                                            *)
(* ---------------------------------------------------------------------- *)

let bb_hard ~g ~groups ~width =
  if g < 1 then invalid_arg "Gadgets.bb_hard: needs g >= 1";
  if groups < 1 then invalid_arg "Gadgets.bb_hard: needs groups >= 1";
  if width < 2 then invalid_arg "Gadgets.bb_hard: needs width >= 2";
  let jobs = ref [] in
  let id = ref 0 in
  for k = 0 to groups - 1 do
    let release = k * width in
    for _ = 1 to g + 1 do
      jobs := Slotted.job ~id:!id ~release ~deadline:(release + width) ~length:1 :: !jobs;
      incr id
    done
  done;
  Slotted.make ~g (List.rev !jobs)

(* ---------------------------------------------------------------------- *)
(* Sparse-wide LP family (methodology, not from the paper): [blocks]       *)
(* disjoint windows of [width] slots, block b carrying g+1 unit jobs with  *)
(* nested windows (job i starts min(i, width-2) slots into the block).     *)
(* LP1 over this instance is block diagonal — every nonzero stays inside   *)
(* its block, and the only containments are the nestings within one block  *)
(* — so a simplex over sparse LU basis factors does O(block nnz) work per  *)
(* pivot where the dense tableau algebra pays O(rows * cols) over the      *)
(* whole program. The LP1 optimum is exactly blocks * (g+1)/g: open the    *)
(* last two slots of every block at y = (g+1)/2g (every nested window      *)
(* contains both) and split every job evenly across them — the per-slot    *)
(* load (g+1)/2 meets capacity g*y with equality, and the mass bound       *)
(* (g+1)/g per block shows nothing cheaper exists.                         *)
(* ---------------------------------------------------------------------- *)

let sparse_wide ~g ~blocks ~width =
  if g < 1 then invalid_arg "Gadgets.sparse_wide: needs g >= 1";
  if blocks < 1 then invalid_arg "Gadgets.sparse_wide: needs blocks >= 1";
  if width < 2 then invalid_arg "Gadgets.sparse_wide: needs width >= 2";
  let jobs = ref [] in
  let id = ref 0 in
  for b = 0 to blocks - 1 do
    let base = b * width in
    for i = 0 to g do
      let off = min i (width - 2) in
      jobs := Slotted.job ~id:!id ~release:(base + off) ~deadline:(base + width) ~length:1 :: !jobs;
      incr id
    done
  done;
  Slotted.make ~g (List.rev !jobs)

let sparse_wide_lp_opt ~g ~blocks = Q.of_ints (blocks * (g + 1)) g

(* ---------------------------------------------------------------------- *)
(* Tall LP family (methodology, not from the paper): [jobs] identical     *)
(* jobs of [length] slots all sharing the single window [0, T] with       *)
(* T = ceil(jobs * length / g). One window means LP1 is tall and dense:   *)
(* every job's demand row touches every slot, so each simplex iteration   *)
(* chooses among many structurally similar columns and the pivot count    *)
(* grows quickly with [jobs]. The LP1 optimum is the mass bound           *)
(* jobs * length / g: spread uniformly with                               *)
(* y_t = jobs*length/(g*T) and x_jt = length/T — capacity is met with     *)
(* equality, x_jt <= y_t needs jobs >= g, and y_t <= 1 by the choice of   *)
(* T; nothing cheaper exists since sum y >= mass/g always.                *)
(* ---------------------------------------------------------------------- *)

let lp1_tall ~g ~jobs ~length =
  if g < 1 then invalid_arg "Gadgets.lp1_tall: needs g >= 1";
  if jobs < g then invalid_arg "Gadgets.lp1_tall: needs jobs >= g";
  if length < 1 then invalid_arg "Gadgets.lp1_tall: needs length >= 1";
  let horizon = ((jobs * length) + g - 1) / g in
  let js =
    List.init jobs (fun id -> Slotted.job ~id ~release:0 ~deadline:horizon ~length)
  in
  Slotted.make ~g js

let lp1_tall_lp_opt ~g ~jobs ~length = Q.of_ints (jobs * length) g

(* ---------------------------------------------------------------------- *)
(* Fig. 1 — the paper's opening example: seven interval jobs that pack    *)
(* optimally onto two machines with g = 3.                                 *)
(* ---------------------------------------------------------------------- *)

let figure_one () =
  let mk id start len = Bjob.interval ~id ~start:(Q.of_int start) ~length:(Q.of_int len) in
  (* machine 1: {1,2,3,4} (peak 3), busy 6; machine 2: {5,6,7}, busy 5 *)
  [ mk 1 0 6; mk 2 0 3; mk 3 3 3; mk 4 1 4; mk 5 2 5; mk 6 2 2; mk 7 5 2 ]

let figure_one_packing jobs =
  let by_id i = List.find (fun (j : Bjob.t) -> j.Bjob.id = i) jobs in
  [ [ by_id 1; by_id 2; by_id 3; by_id 4 ]; [ by_id 5; by_id 6; by_id 7 ] ]

(* ---------------------------------------------------------------------- *)
(* Section 3.5 — LP integrality gap 2 (active time).                       *)
(* g pairs of adjacent slots; pair i carries g+1 unit jobs restricted to   *)
(* that pair. IP cost = 2g, LP cost = g + 1.                               *)
(* ---------------------------------------------------------------------- *)

let integrality_gap g =
  if g < 1 then invalid_arg "Gadgets.integrality_gap: needs g >= 1";
  let jobs = ref [] in
  let id = ref 0 in
  for pair = 0 to g - 1 do
    let release = 2 * pair in
    for _ = 1 to g + 1 do
      jobs := Slotted.job ~id:!id ~release ~deadline:(release + 2) ~length:1 :: !jobs;
      incr id
    done
  done;
  Slotted.make ~g (List.rev !jobs)

(* ---------------------------------------------------------------------- *)
(* Fig. 6/7 — GreedyTracking approaches factor 3 (busy time).              *)
(* g disjoint gadgets; gadget k holds g unit interval jobs at [a, a+1) and *)
(* g unit interval jobs at [a+1-e, a+2-e); 2g flexible jobs of length      *)
(* 1 - e/2 whose windows span all gadgets. OPT = 2g + 2 - e.               *)
(* ---------------------------------------------------------------------- *)

type greedy_tracking_gadget = {
  gt_instance : Bjob.t list; (* flexible + interval jobs, original windows *)
  gt_adversarial : Bjob.t list; (* the Fig. 7 placement: all jobs pinned *)
  gt_opt_packing : Bjob.t list list; (* an explicit near-optimal packing *)
  gt_opt_cost : Q.t; (* its cost: 2g + 2 - eps + O(delta) *)
}

(* The paper's bad run relies on tie-breaking inside GreedyTracking: unit
   tracks that mix the two blocks of every gadget, and the two flexible
   jobs of a gadget placed at opposite extremes of their feasible range.
   We realize it deterministically: copy r (r = 1..2g) of every gadget
   belongs to block (r-1) mod 2 and has length 1 + (2g - r) * delta for a
   delta << eps, so the r-th maximum-length track collects exactly the
   rank-r copies - consecutive tracks alternate blocks and every bundle of
   g tracks spans both blocks of every gadget (~ 2 - eps per gadget,
   against 1 per machine in OPT). The flexible pair per gadget sits at
   a + eps/2 and a + 1 - eps, spanning ~ 2 - 2 eps together. Total
   ~ (6 - o(eps)) g versus OPT ~ 2g + 2 - eps: ratio -> 3 (Fig. 6/7). *)
let greedy_tracking_tight ~g ~eps =
  if g < 2 then invalid_arg "Gadgets.greedy_tracking_tight: needs g >= 2";
  if Q.compare eps Q.zero <= 0 || Q.compare eps Q.half > 0 then
    invalid_arg "Gadgets.greedy_tracking_tight: eps must be in (0, 1/2]";
  let id = ref 0 in
  let fresh () =
    let v = !id in
    incr id;
    v
  in
  let delta = Q.div eps (Q.of_int (8 * g * g)) in
  let gadget_span = Q.sub Q.two eps in
  (* leave a unit gap between gadgets *)
  let offset k = Q.mul (Q.of_int k) (Q.add gadget_span Q.one) in
  (* per gadget: copies ranked 1..2g, rank r in block (r-1) mod 2 *)
  let block_start a b = if b = 0 then a else Q.sub (Q.add a Q.one) eps in
  let copy_length r = Q.add Q.one (Q.mul (Q.of_int ((2 * g) - r)) delta) in
  let unit_jobs =
    List.concat
      (List.init g (fun k ->
           let a = offset k in
           List.init (2 * g) (fun r0 ->
               let r = r0 + 1 in
               let b = (r - 1) mod 2 in
               Bjob.interval ~id:(fresh ()) ~start:(block_start a b) ~length:(copy_length r))))
  in
  let flex_len = Q.sub Q.one (Q.div eps Q.two) in
  let total_end = Q.add (Q.add (offset (g - 1)) gadget_span) Q.one in
  let flexible =
    List.init (2 * g) (fun _ -> Bjob.make ~id:(fresh ()) ~release:Q.zero ~deadline:total_end ~length:flex_len)
  in
  (* adversarial flexible placement: gadget k gets one copy at a + eps/2
     and one at a + 1 - eps; both intersect every copy of the gadget *)
  let adversarial_flexible =
    List.concat
      (List.init g (fun k ->
           let a = offset k in
           [ Bjob.place (List.nth flexible (2 * k)) (Q.add a (Q.div eps Q.two));
             Bjob.place (List.nth flexible ((2 * k) + 1)) (Q.sub (Q.add a Q.one) eps) ]))
  in
  (* near-optimal packing of the same (adversarially placed) jobs: one
     machine per gadget block (g copies each), flexible jobs on two
     machines of g *)
  let adversarial = unit_jobs @ adversarial_flexible in
  let block_bundles =
    List.concat
      (List.init g (fun k ->
           let a = offset k in
           let in_block b (j : Bjob.t) =
             Q.equal j.Bjob.release (block_start a b) && Q.compare j.Bjob.length (Q.add Q.one eps) < 0
           in
           [ List.filter (in_block 0) unit_jobs; List.filter (in_block 1) unit_jobs ]))
  in
  (* OPT places every flexible job at 0 (their windows allow it): two
     machines of g identical jobs, 1 - eps/2 busy each *)
  let opt_flexible = List.map (fun f -> Bjob.place f Q.zero) flexible in
  let flex_bundles =
    [ List.filteri (fun i _ -> i < g) opt_flexible; List.filteri (fun i _ -> i >= g) opt_flexible ]
  in
  let gt_opt_packing = block_bundles @ flex_bundles in
  let gt_opt_cost =
    List.fold_left
      (fun acc b -> Q.add acc (Intervals.span (List.map Bjob.interval_of b)))
      Q.zero gt_opt_packing
  in
  { gt_instance = unit_jobs @ flexible; gt_adversarial = adversarial; gt_opt_packing; gt_opt_cost }

(* ---------------------------------------------------------------------- *)
(* Fig. 8 — the interval-job 2-approximations are tight (busy time, g=2).  *)
(* Two unit jobs at [0,1); an eps job at [1, 1+e); an eps' job at          *)
(* [1, 1+e'); an (e-e') job at [1+e', 1+e). OPT = 1 + e; a bad run of the  *)
(* Kumar–Rudra / Alicherry–Bhatia algorithms costs 2 + e + e'.             *)
(* ---------------------------------------------------------------------- *)

type two_approx_gadget = { ta_jobs : Bjob.t list; ta_g : int; ta_opt_cost : Q.t }

let two_approx_tight ~eps ~eps' =
  if not (Q.compare Q.zero eps' < 0 && Q.compare eps' eps < 0 && Q.compare eps Q.one < 0) then
    invalid_arg "Gadgets.two_approx_tight: need 0 < eps' < eps < 1";
  let mk id start length = Bjob.interval ~id ~start ~length in
  let jobs =
    [ mk 0 Q.zero Q.one;
      mk 1 Q.zero Q.one;
      mk 2 Q.one eps;
      mk 3 Q.one eps';
      mk 4 (Q.add Q.one eps') (Q.sub eps eps') ]
  in
  { ta_jobs = jobs; ta_g = 2; ta_opt_cost = Q.add Q.one eps }

(* ---------------------------------------------------------------------- *)
(* Fig. 9 — the span-minimizing placement can double the demand profile.   *)
(* One unit interval job at [0,1); sets i = 1..g-1 of g identical interval *)
(* jobs of length 1+ie, laid out consecutively; flexible job i of length   *)
(* 1+ie with window from 0 to the end of set i. The adversarial placement  *)
(* stacks flexible i exactly onto set i (profile ~ 2g-1); the optimal      *)
(* structure starts every flexible job at 0 (profile ~ g).                 *)
(* ---------------------------------------------------------------------- *)

type dp_profile_gadget = {
  dp_instance : Bjob.t list;
  dp_adversarial : Bjob.t list; (* flexible i stacked on set i *)
  dp_optimal : Bjob.t list; (* flexible jobs at start 0 *)
  dp_g : int;
}

let dp_profile_tight ~g ~eps =
  if g < 2 then invalid_arg "Gadgets.dp_profile_tight: needs g >= 2";
  if Q.compare eps Q.zero <= 0 then invalid_arg "Gadgets.dp_profile_tight: eps <= 0";
  let unit_job = Bjob.interval ~id:0 ~start:Q.zero ~length:Q.one in
  let set_len i = Q.add Q.one (Q.mul (Q.of_int i) eps) in
  (* set i (1-based) starts at s_i with s_1 = 1 and s_{i+1} = s_i + len_i *)
  let set_start = Array.make (g + 1) Q.zero in
  set_start.(1) <- Q.one;
  for i = 2 to g - 1 do
    set_start.(i) <- Q.add set_start.(i - 1) (set_len (i - 1))
  done;
  let id = ref 1 in
  let fresh () =
    let v = !id in
    incr id;
    v
  in
  let sets =
    List.concat
      (List.init (g - 1) (fun idx ->
           let i = idx + 1 in
           List.init g (fun _ -> Bjob.interval ~id:(fresh ()) ~start:set_start.(i) ~length:(set_len i))))
  in
  let set_end i = Q.add set_start.(i) (set_len i) in
  let flexible =
    List.init (g - 1) (fun idx ->
        let i = idx + 1 in
        Bjob.make ~id:(fresh ()) ~release:Q.zero ~deadline:(set_end i) ~length:(set_len i))
  in
  let adversarial_flex =
    List.mapi (fun idx f -> Bjob.place f set_start.(idx + 1)) flexible
  in
  let optimal_flex = List.map (fun f -> Bjob.place f Q.zero) flexible in
  { dp_instance = (unit_job :: sets) @ flexible;
    dp_adversarial = (unit_job :: sets) @ adversarial_flex;
    dp_optimal = (unit_job :: sets) @ optimal_flex;
    dp_g = g }

(* ---------------------------------------------------------------------- *)
(* Fig. 10–12 — extending the 2-approximation to flexible jobs is only     *)
(* 4-approximate. One unit interval job at [0,1); g-1 disjoint gadgets     *)
(* (g unit interval jobs + small e/e' jobs at their right edge); g-1 unit  *)
(* flexible jobs spanning everything. The adversarial placement packs one  *)
(* flexible job over each gadget.                                          *)
(* ---------------------------------------------------------------------- *)

type four_approx_gadget = {
  fa_instance : Bjob.t list;
  fa_adversarial : Bjob.t list;
  fa_g : int;
  fa_opt_cost_approx : Q.t; (* g + O(eps) *)
  fa_bad_packing : Bjob.t list list;
      (* a valid packing of the adversarially converted instance realizing
         the paper's factor-4 run (Fig. 12): the g+1 unit-length items of
         each gadget split across four machines, cost 1 + 4(g-1) + O(eps) *)
}

let four_approx_tight ~g ~eps ~eps' =
  if g < 2 then invalid_arg "Gadgets.four_approx_tight: needs g >= 2";
  if not (Q.compare Q.zero eps' < 0 && Q.compare eps' eps < 0 && Q.compare eps Q.half <= 0) then
    invalid_arg "Gadgets.four_approx_tight: need 0 < eps' < eps <= 1/2";
  let id = ref 0 in
  let fresh () =
    let v = !id in
    incr id;
    v
  in
  let first = Bjob.interval ~id:(fresh ()) ~start:Q.zero ~length:Q.one in
  (* gadget k (k = 1..g-1) occupies [base, base + 1 + eps); spaced by 1 *)
  let gadget_width = Q.add Q.one eps in
  let base k = Q.add (Q.of_int (2 * k)) Q.zero in
  let gadget k =
    let a = base k in
    let unit_jobs = List.init g (fun _ -> Bjob.interval ~id:(fresh ()) ~start:a ~length:Q.one) in
    let tail = Q.add a Q.one in
    let eps_jobs = List.init ((2 * g) - 2) (fun _ -> Bjob.interval ~id:(fresh ()) ~start:tail ~length:eps) in
    let eps'_jobs = List.init 2 (fun _ -> Bjob.interval ~id:(fresh ()) ~start:tail ~length:eps') in
    let rest_jobs =
      List.init 2 (fun _ -> Bjob.interval ~id:(fresh ()) ~start:(Q.add tail eps') ~length:(Q.sub eps eps'))
    in
    (unit_jobs, eps_jobs @ eps'_jobs @ rest_jobs)
  in
  let structured = List.init (g - 1) (fun k -> gadget (k + 1)) in
  let gadgets = List.concat_map (fun (u, s) -> u @ s) structured in
  let total_end = Q.add (base (g - 1)) gadget_width in
  let flexible =
    List.init (g - 1) (fun _ -> Bjob.make ~id:(fresh ()) ~release:Q.zero ~deadline:total_end ~length:Q.one)
  in
  let adversarial_flex = List.mapi (fun k f -> Bjob.place f (base (k + 1))) flexible in
  let fa_opt_cost_approx = Q.add (Q.of_int g) (Q.mul (Q.of_int (g - 1)) eps) in
  (* Fig. 12 certificate: per gadget, the g+1 unit-length items (its g unit
     jobs + its pinned flexible job) are split across min(4, g+1) machines,
     each busy ~1; small jobs round-robin over the same machines. *)
  let round_robin k items =
    let buckets = Array.make k [] in
    List.iteri (fun i x -> buckets.(i mod k) <- x :: buckets.(i mod k)) items;
    Array.to_list buckets
  in
  let fa_bad_packing =
    [ first ]
    :: List.concat
         (List.mapi
            (fun k (units, smalls) ->
              let flex = List.nth adversarial_flex k in
              let machines = min 4 (g + 1) in
              let unit_groups = round_robin machines (flex :: units) in
              let small_groups = round_robin machines smalls in
              List.map2 (fun u s -> u @ s) unit_groups small_groups)
            structured)
  in
  { fa_instance = (first :: gadgets) @ flexible;
    fa_adversarial = (first :: gadgets) @ adversarial_flex;
    fa_g = g;
    fa_opt_cost_approx;
    fa_bad_packing }

(* -- ill-conditioned LP family (methodology, not from the paper) --------- *)

type float_trap_gadget = {
  ft_pairs : int;
  ft_ulp_exp : int;
  ft_vars : string list;
  ft_obj : Q.t list;
  ft_rows : (Q.t list * Q.t) list;
  ft_opt : Q.t;
}

let float_trap ~pairs ~ulp_exp =
  if pairs < 1 then invalid_arg "Gadgets.float_trap: needs pairs >= 1";
  if ulp_exp < 1 || ulp_exp > 60 then invalid_arg "Gadgets.float_trap: needs 1 <= ulp_exp <= 60";
  let bonus = Q.add Q.one (Q.of_ints 1 (1 lsl ulp_exp)) in
  let nv = 2 * pairs in
  let vars =
    List.concat (List.init pairs (fun k -> [ Printf.sprintf "y%d" k; Printf.sprintf "x%d" k ]))
  in
  (* y before x in every pair: a first-index tie-break must pick y *)
  let obj = List.concat (List.init pairs (fun _ -> [ Q.one; bonus ])) in
  let rows =
    List.init pairs (fun k ->
        (List.init nv (fun j -> if j = 2 * k || j = (2 * k) + 1 then Q.one else Q.zero), Q.one))
  in
  {
    ft_pairs = pairs;
    ft_ulp_exp = ulp_exp;
    ft_vars = vars;
    ft_obj = obj;
    ft_rows = rows;
    ft_opt = Q.mul (Q.of_int pairs) bonus;
  }
