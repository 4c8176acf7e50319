(** The LP relaxation LP1 of the active-time integer program (Section 3):

    {v
    min  sum_t y_t
    s.t. x_{t,j} <= y_t                for each job j, slot t in window
         sum_j x_{t,j} <= g y_t        for each slot t
         sum_t x_{t,j} >= p_j          for each job j
         0 <= y_t <= 1, x >= 0, x = 0 outside windows
    v}

    Solved exactly over the rationals ({!Lp}); the optimum lower-bounds
    the integral optimum, and the y-vector feeds the rounding of
    Theorem 2. The integrality gap is 2 (Section 3.5, experiment E3).

    {!solve} skips phase 1. An integral max flow of the paper's Fig. 2
    network [G_feas] ({!Feasibility.schedule}) with every relevant slot
    open is a schedule, hence a feasible LP1 point, and it is handed to
    {!Lp.solve} as a [?start] basis: every [y_t] at 1; [x_{t,j}] basic
    where the flow uses arc [(t, j)], with the slack of its row
    [x_{t,j} <= y_t] nonbasic; every other slack and surplus basic. Each
    basic [x_{t,j}] owns its row, so the basis is triangular. The start
    never changes the optimal value, but it may change which optimal
    vertex — hence which y-vector — comes back; Theorem 2's [2 LP1]
    guarantee holds at any optimal vertex. *)

type t = {
  cost : Rational.t;  (** optimal LP objective *)
  y : (int * Rational.t) list;  (** slot -> y_t, all relevant slots *)
  x : ((int * int) * Rational.t) list;  (** (slot, job id) -> mass, nonzero entries *)
}

(** [y_at t slot] is the slot's y value (0 when absent). *)
val y_at : t -> int -> Rational.t

(** The LP1 model with every [y] free in [0,1], plus the y variables by
    slot. One model serves repeated probes: rewrite bounds with
    {!Lp.set_bounds} and re-solve, warm or cold ({!Ilp.solve}'s search
    tree, [Sim.Rolling]'s pinned lower bound and [test_lp]'s warm
    probes, EXPERIMENTS E21, all do); their cold solves run phase 1.
    [solve] builds the same model, with the same variable and row
    order, and starts it from the flow basis instead. *)
val build_lp1 : Workload.Slotted.t -> Lp.model * (int * Lp.var) list

(** LP1 from the flow start (see the header); [None] iff the instance is
    infeasible, which phase 1 proves when the flow finds no schedule.
    With [budget], each simplex pivot costs one tick and exhaustion
    raises {!Budget.Out_of_fuel}.
    [?obs] and [?engine] (default {!Lp.default_engine}) are forwarded to
    {!Lp.solve}. *)
val solve :
  ?engine:Lp.engine ->
  ?budget:Budget.t ->
  ?obs:Obs.t ->
  Workload.Slotted.t ->
  t option

(** LP2 of Section 3.1: with the slot openings fixed to the given y
    vector, does a feasible fractional assignment exist? *)
val feasible_with_y : Workload.Slotted.t -> (int * Rational.t) list -> bool

(** The right-shifted y vector (Section 3.1): block masses between
    consecutive distinct deadlines packed against their right ends.
    Lemma 3 asserts [feasible_with_y inst (right_shift inst t)] whenever
    [t] is a feasible LP solution; the property tests verify this. *)
val right_shift : Workload.Slotted.t -> t -> (int * Rational.t) list
