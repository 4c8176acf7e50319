(** The paper's adversarial instances, one constructor per figure.

    Every construction is parameterized exactly as in the paper (capacity
    [g], epsilons) and returns enough structure for the benches to measure
    the claimed tight ratios; see DESIGN.md's per-experiment index. *)

(** {1 Fig. 3 — minimal feasible solutions can cost ~3 OPT (Theorem 1)} *)

(** The active-time instance: two length-[g] jobs, [g-2] rigid jobs of
    length [g-2], and two groups of [g-2] unit jobs. OPT = [g]. Raises
    [Invalid_argument] when [g < 3]. *)
val minimal_feasible_tight : int -> Slotted.t

(** The adversarial {e minimal} open-slot set of cost [3g-2]. Note: the
    paper's prose regions ([\[1, g+1)] and [\[2g-1, 3g-1)]) share boundary
    slots with the unit jobs' windows and are not actually minimal under
    flow reassignment; this set shifts the long jobs one slot outward,
    sealing the escape (same asymptotics). *)
val minimal_feasible_tight_bad_slots : int -> int list

(** The optimal slot set [\[g, 2g)] (slots [g+1..2g]) of cost [g]. *)
val minimal_feasible_tight_opt_slots : int -> int list

(** {1 Branch-and-bound stress instance (not from the paper)} *)

(** [bb_hard ~g ~groups ~width]: [groups] disjoint groups of [g+1] unit
    jobs, each group sharing a window of [width] slots. OPT is exactly
    [2 * groups] (for [g >= 1], [width >= 2]) but any 2 slots per window
    suffice, so the flow-pruned branch and bound of [Active.Exact]
    explores ~[C(width,2)^groups] combinations — the node count grows
    ~16x per added group at [g = 2], [width = 6]. Built to exercise the
    fuel budgets and the degradation cascade. *)
val bb_hard : g:int -> groups:int -> width:int -> Slotted.t

(** {1 Sparse-wide LP family (methodology, not from the paper)} *)

(** [sparse_wide ~g ~blocks ~width]: [blocks] disjoint windows of
    [width] slots, block [b] carrying [g+1] unit jobs with nested
    windows (job [i] of a block starts [min(i, width-2)] slots in).
    LP1 over this instance is block diagonal — every nonzero stays
    inside its block and the only containments are the nestings within
    one block — so growing [blocks] or [width] grows the program without
    growing any basis column. Built to make the dense-vs-sparse simplex
    work asymptotics visible (EXPERIMENTS E24; [test_lp]'s
    "sparse_wide, 3x less work"). Raises [Invalid_argument]
    unless [g >= 1], [blocks >= 1], [width >= 2]. *)
val sparse_wide : g:int -> blocks:int -> width:int -> Slotted.t

(** The exact LP1 optimum of [sparse_wide ~g ~blocks ~width], namely
    [blocks * (g+1) / g]: open the last two slots of every block at
    [y = (g+1)/2g] and split every job evenly across them; the mass
    bound [(g+1)/g] per block shows nothing cheaper exists. *)
val sparse_wide_lp_opt : g:int -> blocks:int -> Rational.t

(** {1 Tall LP family (methodology, not from the paper)} *)

(** [lp1_tall ~g ~jobs ~length]: [jobs] identical jobs of [length] slots
    all sharing the single window [[0, T]] with
    [T = ceil(jobs * length / g)]. LP1 over this instance is tall and
    dense — every demand row touches every slot — so each simplex
    iteration chooses among many structurally similar columns and the
    pivot count grows quickly with [jobs] ([~g:3 ~jobs:9 ~length:2]
    already takes 65 pivots, past the sparse driver's 64-eta
    refactorization cap). Raises [Invalid_argument] unless [g >= 1],
    [jobs >= g], [length >= 1]. *)
val lp1_tall : g:int -> jobs:int -> length:int -> Slotted.t

(** The exact LP1 optimum of [lp1_tall ~g ~jobs ~length], namely the
    mass bound [jobs * length / g]: spread every job uniformly over the
    window ([y_t = jobs*length/(g*T)], [x_jt = length/T]) and capacity
    is met with equality. *)
val lp1_tall_lp_opt : g:int -> jobs:int -> length:int -> Rational.t

(** {1 Fig. 1 — the paper's opening example} *)

(** Seven interval jobs that pack optimally onto two machines with
    [g = 3] (ids 1..7, matching the figure's arbitrary numbering). *)
val figure_one : unit -> Bjob.t list

(** The Fig. 1(B) packing: machine 1 = jobs 1–4, machine 2 = jobs 5–7. *)
val figure_one_packing : Bjob.t list -> Bjob.t list list

(** {1 Section 3.5 — LP integrality gap 2} *)

(** [g] pairs of adjacent slots, [g+1] unit jobs restricted to each pair:
    IP = [2g], LP = [g+1]. *)
val integrality_gap : int -> Slotted.t

(** {1 Fig. 6/7 — GreedyTracking approaches factor 3 (Theorem 5)} *)

type greedy_tracking_gadget = {
  gt_instance : Bjob.t list;  (** original windows: flexible + interval jobs *)
  gt_adversarial : Bjob.t list;  (** the Fig. 7 placement, all jobs pinned *)
  gt_opt_packing : Bjob.t list list;  (** explicit near-optimal packing *)
  gt_opt_cost : Rational.t;  (** its cost: [2g + 2 - eps + O(delta)] *)
}

(** [g] disjoint gadgets of two overlapping blocks of [g] unit jobs, plus
    [2g] flexible jobs. Copy lengths carry a tiny rank perturbation so the
    maximum-length tracks deterministically realize the paper's bad run
    (bundles mixing both blocks of every gadget); flexible pairs are
    pinned at opposite extremes. GreedyTracking cost tends to
    [(6 - o(eps)) g] vs OPT ~ [2g + 2]. Raises [Invalid_argument] unless
    [g >= 2] and [0 < eps <= 1/2]. *)
val greedy_tracking_tight : g:int -> eps:Rational.t -> greedy_tracking_gadget

(** {1 Fig. 8 — the interval-job 2-approximations are tight (Theorem 8)} *)

type two_approx_gadget = {
  ta_jobs : Bjob.t list;
  ta_g : int;  (** always 2 *)
  ta_opt_cost : Rational.t;  (** [1 + eps] *)
}

(** Two unit jobs at [\[0,1)], an [eps] job, an [eps'] job and an
    [eps - eps'] job; a bad run pays [2 + eps + eps']. Raises
    [Invalid_argument] unless [0 < eps' < eps < 1]. *)
val two_approx_tight : eps:Rational.t -> eps':Rational.t -> two_approx_gadget

(** {1 Fig. 9 — the conversion can double the demand profile (Lemma 7)} *)

type dp_profile_gadget = {
  dp_instance : Bjob.t list;
  dp_adversarial : Bjob.t list;  (** flexible job i stacked onto set i *)
  dp_optimal : Bjob.t list;  (** flexible jobs all at start 0 *)
  dp_g : int;
}

(** Profile(adversarial placement) = [2g - 1 + g(g-1) eps] vs
    profile(optimal structure) ~ [g]: ratio -> [(2g-1)/g] -> 2. *)
val dp_profile_tight : g:int -> eps:Rational.t -> dp_profile_gadget

(** {1 Fig. 10–12 — the flexible 2-approx pipeline degrades to 4
    (Theorem 10)} *)

type four_approx_gadget = {
  fa_instance : Bjob.t list;
  fa_adversarial : Bjob.t list;
  fa_g : int;
  fa_opt_cost_approx : Rational.t;  (** [g + (g-1) eps] *)
  fa_bad_packing : Bjob.t list list;
      (** validated Fig. 12 certificate of cost [1 + 4(g-1) + O(eps)] *)
}

(** One unit interval job, [g-1] gadgets (unit block + small-job cluster
    of raw demand 2g), [g-1] spanning unit flexible jobs. Raises
    [Invalid_argument] unless [g >= 2] and [0 < eps' < eps <= 1/2]. *)
val four_approx_tight : g:int -> eps:Rational.t -> eps':Rational.t -> four_approx_gadget

(** {1 Ill-conditioned LP family (methodology, not from the paper)} *)

(** A linear program, as pure data, whose optimum is invisible to double
    precision: [pairs] independent blocks [y_k + x_k <= 1], objective
    maximize [sum (y_k + (1 + 2^-ulp_exp) x_k)]. Exactly, [x_k] is
    strictly better than [y_k] and the optimum is
    [pairs * (1 + 2^-ulp_exp)]; but for [ulp_exp >= 53] the coefficient
    [1 + 2^-ulp_exp] rounds to [1.0] in double, the two columns tie, and
    a float simplex that breaks ties by first index terminates at the
    all-[y] vertex — a basis whose exact certification must fail. Built
    to pin the float engine's certify-fail fallback path. *)
type float_trap_gadget = {
  ft_pairs : int;
  ft_ulp_exp : int;
  ft_vars : string list;  (** [y0; x0; y1; x1; ...] *)
  ft_obj : Rational.t list;  (** maximize; aligned with [ft_vars] *)
  ft_rows : (Rational.t list * Rational.t) list;
      (** [(coeffs, rhs)], all rows [<=], coeffs aligned with [ft_vars];
          variables are nonnegative with no upper bound *)
  ft_opt : Rational.t;  (** the exact optimum [pairs * (1 + 2^-ulp_exp)] *)
}

(** Raises [Invalid_argument] unless [pairs >= 1] and
    [1 <= ulp_exp <= 60] (the bonus [2^-ulp_exp] must fit a native-int
    denominator). [ulp_exp <= 52] keeps the bonus representable in
    double — the same family then certifies cleanly, which tests use as
    the control. *)
val float_trap : pairs:int -> ulp_exp:int -> float_trap_gadget
