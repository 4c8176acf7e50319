(** Maximum flow on directed graphs with integral capacities.

    Implementation: Dinic's algorithm (BFS level graph + DFS blocking flows
    with the current-arc optimization), O(V^2 E) worst case and far faster
    on the unit-ish bipartite networks this repository builds:

    - the active-time feasibility network [G_feas] (paper Fig. 2), whose
      integral max flow both decides feasibility and yields a schedule;
    - the event DAG used by the busy-time 2-approximation to extract pairs
      of support-covering tracks (flow value 2, decomposed into paths).

    Graphs are mutable; [max_flow] saturates the graph in place and may be
    called repeatedly (flow accumulates). Use [reset] to zero all flow.
    Edges may be added at any time, also after a flow run: the next
    {!max_flow}, {!augment}, {!min_cut}, {!drain_edge} or
    {!decompose_paths} walks them too.

    {b Arc order.} Every walk visits a vertex's outgoing arcs (its edges
    and the residual reverses of the edges into it) newest first, in the
    reverse of the order they were added, and takes the first usable
    one. Which max flow comes back, hence the schedule
    [Active.Feasibility.schedule] reads off it, and the [flow.*]
    counters depend on this order, so it is part of the contract. The
    adjacency is held as a compressed array per vertex, rebuilt on the
    first walk after an {!add_edge}; Dinic's levels, current arcs and
    queue are scratch arrays of the graph, so one graph serves one
    domain at a time. *)

type t

(** Opaque handle for querying a specific edge after a flow computation. *)
type edge

(** [create n] is an empty graph on vertices [0 .. n-1]. *)
val create : int -> t

val vertex_count : t -> int

(** [add_edge t ~src ~dst ~cap] adds a directed edge. A residual reverse
    edge of capacity 0 is added internally. Raises [Invalid_argument] on a
    negative capacity or an out-of-range vertex. *)
val add_edge : t -> src:int -> dst:int -> cap:int -> edge

(** [set_cap t e cap] replaces the capacity of [e] {e without} touching
    the flow already routed through it — the reset-free reuse path that
    lets a warm network be retargeted between feasibility probes. Raises
    [Invalid_argument] on a negative capacity or one below the edge's
    current flow (use {!drain_edge} first to displace it). *)
val set_cap : t -> edge -> int -> unit

(** [drain_edge t e ~source ~sink] cancels all flow currently routed
    through [e], walking the displaced units back to [source] on the tail
    side and forward to [sink] on the head side along flow-carrying arcs
    (cycles of flow met on the way are cancelled in place). Returns the
    number of units drained — the total flow value drops by exactly that
    much, leaving a consistent smaller flow ready for [set_cap] +
    {!augment}. With [?obs], records [flow.drains] /
    [flow.drained_units]. *)
val drain_edge : ?obs:Obs.t -> t -> edge -> source:int -> sink:int -> int

(** [max_flow t ~source ~sink] pushes a maximum flow and returns its value
    (on a second call: the additional value pushed). With [?obs], records
    [flow.max_flow_calls], [flow.bfs_rounds] (Dinic phases) and
    [flow.augmentations] (blocking-flow paths) counters. *)
val max_flow : ?obs:Obs.t -> t -> source:int -> sink:int -> int

(** [augment t ~source ~sink] re-runs the blocking-flow search on the warm
    residual graph and returns the {e additional} flow pushed.
    Operationally identical to {!max_flow} (Dinic is residual-driven), but
    counted separately ([flow.augment_calls]) so telemetry distinguishes
    cold solves from incremental re-augmentations after
    [set_cap]/[drain_edge]. *)
val augment : ?obs:Obs.t -> t -> source:int -> sink:int -> int

(** Flow currently routed through an edge (never negative). *)
val flow : t -> edge -> int

val cap : t -> edge -> int

(** Zero all flow, keeping the topology and capacities. *)
val reset : t -> unit

(** [min_cut t ~source] is the source side of a minimum cut, valid after
    [max_flow]: [side.(v)] iff [v] is residual-reachable from [source]. *)
val min_cut : t -> source:int -> bool array

(** [decompose_paths t ~source ~sink] splits the current flow into simple
    source-sink paths [(vertices, amount)]; the sum of amounts equals the
    flow value. The graph's flow is consumed conceptually but left intact
    (decomposition works on a copy of per-edge flow). Cycles of flow, if
    any, are ignored. *)
val decompose_paths : t -> source:int -> sink:int -> (int list * int) list
