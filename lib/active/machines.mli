(** Active time on a finite pool of machines (Koehler–Khuller, Section
    1.3): [m] identical machines of capacity [g]; each slot turns on
    0..m of them; cost = total machine-slots on. Only the per-slot
    opening count matters (intra-slot machine assignment is free), so
    feasibility is the G_feas flow with slot capacity [g * y_t]. *)

(** Sorted (slot, machines-on) pairs with positive counts. *)
type openings = (int * int) list

val cost : openings -> int

(** Raises [Invalid_argument] when [machines < 1] or a count is outside
    [0..machines]. *)
val feasible : Workload.Slotted.t -> machines:int -> openings:openings -> bool

(** Greedy minimalization from everything-on (the multi-machine analogue
    of a minimal feasible solution); [None] iff infeasible even with all
    machines always on. *)
val minimal : Workload.Slotted.t -> machines:int -> openings option

(** The LP relaxation with [y_t] in [\[0, m\]]; [None] iff infeasible. *)
val lp_lower_bound : Workload.Slotted.t -> machines:int -> Rational.t option

(** Exact (cost, openings) by branch-and-bound over per-slot counts;
    [None] iff infeasible. *)
val optimum : Workload.Slotted.t -> machines:int -> (int * openings) option
