(* Dinic's algorithm. Edges live in growable parallel arrays; the reverse
   (residual) edge of edge [i] is [i lxor 1], so the tail of edge [i] is
   [dst.(i lxor 1)]. [cap] holds residual capacity; the original capacity
   is kept separately so per-edge flow is [orig - residual] for forward
   edges.

   Every walk reads the adjacency as a CSR over the edge indices: vertex
   [v]'s arcs are [arcs.(first.(v)) .. arcs.(first.(v + 1) - 1)], newest
   first. [add_edge] only appends to the edge arrays; the first walk
   after it rebuilds the CSR. The walks take the first usable arc in
   this order, so it decides which max flow comes back (a schedule reads
   it off) and how many augmenting paths it takes.

   Drains and path decomposition run one flow-cancelling walk ([walk]),
   on the graph's scratch; they differ only in the amounts it reads and
   takes: a drain the residual graph's, a decomposition a copy of each
   forward edge's flow. *)

type t = {
  n : int;
  mutable dst : int array;
  mutable cap : int array; (* residual *)
  mutable orig : int array; (* original capacity; 0 for reverse edges *)
  mutable edge_count : int;
  first : int array; (* n + 1 offsets into [arcs] *)
  mutable arcs : int array; (* edge indices, grouped by tail, newest first *)
  mutable csr_edges : int; (* edge_count when the CSR was built; -1 before *)
  (* walk scratch, written before it is read *)
  level : int array; (* Dinic's BFS level, -1 when unreached *)
  cur : int array; (* Dinic's current arc, an index into [arcs] *)
  queue : int array; (* BFS queue: each vertex is pushed at most once *)
  (* [walk]'s: [pos.(v)] is v's depth on the walk, -1 off it (all -1
     between walks); the walk's vertices and the edges into them *)
  pos : int array;
  stack_v : int array;
  stack_e : int array;
}

type edge = int

let create ?(edges = 8) n =
  let n = Stdlib.max n 0 in
  (* an edge takes two slots, itself and its residual reverse *)
  let room = 2 * Stdlib.max edges 1 in
  {
    n;
    dst = Array.make room 0;
    cap = Array.make room 0;
    orig = Array.make room 0;
    edge_count = 0;
    first = Array.make (n + 1) 0;
    arcs = [||];
    csr_edges = -1;
    level = Array.make n (-1);
    cur = Array.make n 0;
    queue = Array.make n 0;
    pos = Array.make n (-1);
    stack_v = Array.make (n + 1) 0;
    stack_e = Array.make (n + 1) 0;
  }

let ensure_room t =
  let len = Array.length t.dst in
  if t.edge_count + 2 > len then begin
    let grow a = Array.append a (Array.make len 0) in
    t.dst <- grow t.dst;
    t.cap <- grow t.cap;
    t.orig <- grow t.orig
  end

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Flow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then invalid_arg "Flow.add_edge: vertex out of range";
  ensure_room t;
  let e = t.edge_count in
  t.dst.(e) <- dst;
  t.cap.(e) <- cap;
  t.orig.(e) <- cap;
  t.dst.(e + 1) <- src;
  t.cap.(e + 1) <- 0;
  t.orig.(e + 1) <- 0;
  t.edge_count <- e + 2;
  e

(* Rebuild the CSR when edges were added since the last walk: count arcs
   per tail, then place the edges in descending index order, so each
   vertex lists its arcs newest first. *)
let ensure_csr t =
  if t.csr_edges <> t.edge_count then begin
    let first = t.first in
    Array.fill first 0 (t.n + 1) 0;
    for e = 0 to t.edge_count - 1 do
      let v = t.dst.(e lxor 1) in
      first.(v + 1) <- first.(v + 1) + 1
    done;
    for v = 1 to t.n do
      first.(v) <- first.(v) + first.(v - 1)
    done;
    if Array.length t.arcs < t.edge_count then t.arcs <- Array.make (Array.length t.dst) 0;
    let fill = t.cur in
    Array.blit first 0 fill 0 t.n;
    for e = t.edge_count - 1 downto 0 do
      let v = t.dst.(e lxor 1) in
      t.arcs.(fill.(v)) <- e;
      fill.(v) <- fill.(v) + 1
    done;
    t.csr_edges <- t.edge_count
  end

(* The first arc of [v], in CSR order, whose [amount] is positive; -1
   when none. *)
let find_arc t v amount =
  let stop = t.first.(v + 1) in
  let rec go k = if k >= stop then -1 else if amount t.arcs.(k) > 0 then t.arcs.(k) else go (k + 1) in
  go t.first.(v)

let flow t e = t.orig.(e) - t.cap.(e)
let cap t e = t.orig.(e)

(* Reset-free capacity update: the flow already routed through the edge is
   preserved (only the residual headroom changes), so a warm graph can be
   retargeted between probes without rebuilding. Lowering the capacity
   below the current flow would leave an infeasible pseudo-flow; callers
   drain first. *)
let set_cap t e cap =
  if cap < 0 then invalid_arg "Flow.set_cap: negative capacity";
  let f = t.orig.(e) - t.cap.(e) in
  if cap < f then invalid_arg "Flow.set_cap: capacity below current flow; drain_edge first";
  t.orig.(e) <- cap;
  t.cap.(e) <- cap - f

let reset t = Array.blit t.orig 0 t.cap 0 t.edge_count

(* The walk's vertices from depth 0 to [depth] leave it. *)
let leave t depth =
  for i = 0 to depth do
    t.pos.(t.stack_v.(i)) <- -1
  done

(* The least of [amt] and the amounts of the walk's arcs into depths
   [lo + 1 .. hi], taken off each of those arcs. *)
let take_least t ~avail ~take lo hi amt =
  let amt = ref amt in
  for i = lo + 1 to hi do
    amt := Stdlib.min !amt (avail t.stack_e.(i))
  done;
  for i = lo + 1 to hi do
    take t.stack_e.(i) !amt
  done;
  !amt

(* The flow-cancelling walk that drains and path decomposition share.
   [avail s] is the amount arc [s] can carry (0 or less: unusable) and
   [take s amt] takes [amt] off it. From [start], the walk follows each
   vertex's first usable arc in CSR order. An arc to a vertex already on
   the walk, other than [stop], closes a cycle: its least amount is taken
   off each of its arcs, so the amounts strictly fall and this
   terminates, and the walk starts over. A walk that reaches [stop] is a
   path: its bottleneck, capped at [limit], is taken off each of its arcs
   and returned, and the path stays in [stack_v] from index 0 up to
   [stop]. A walk that gets stuck returns 0. However it ends, it resets
   [pos] on the vertices it visited and nowhere else. *)
let rec walk t ~avail ~take ~start ~stop limit =
  t.stack_v.(0) <- start;
  t.pos.(start) <- 0;
  walk_from t ~avail ~take ~start ~stop limit 0

and walk_from t ~avail ~take ~start ~stop limit depth =
  let v = t.stack_v.(depth) in
  if v = stop then begin
    leave t depth;
    take_least t ~avail ~take 0 depth limit
  end
  else
    match find_arc t v avail with
    | -1 ->
        leave t depth;
        0
    | s ->
        let w = t.dst.(s) in
        t.stack_e.(depth + 1) <- s;
        if w <> stop && t.pos.(w) >= 0 then begin
          (* cycle w .. v -> w; a [pos] that does not point back at w
             is scratch a walk left dirty, which would restart forever *)
          let p = t.pos.(w) in
          if p > depth || t.stack_v.(p) <> w then invalid_arg "Flow: walk scratch left dirty";
          ignore (take_least t ~avail ~take p (depth + 1) max_int);
          leave t depth;
          walk t ~avail ~take ~start ~stop limit
        end
        else begin
          t.stack_v.(depth + 1) <- w;
          t.pos.(w) <- depth + 1;
          walk_from t ~avail ~take ~start ~stop limit (depth + 1)
        end

(* Cancel [amt] units of flow on the forward edge [e]. *)
let unroute t e amt =
  t.cap.(e) <- t.cap.(e) + amt;
  t.cap.(e lxor 1) <- t.cap.(e lxor 1) - amt

(* Walk paths from [start] to [stop] until [total] units are cancelled. *)
let rec cancel_flow t ~avail ~take ~start ~stop total =
  if total > 0 && start <> stop then
    match walk t ~avail ~take ~start ~stop total with
    | 0 -> invalid_arg "Flow.drain_edge: flow not traceable to the endpoint"
    | amt -> cancel_flow t ~avail ~take ~start ~stop (total - amt)

let drain_edge ?(obs = Obs.null) t e ~source ~sink =
  let total = flow t e in
  if total <= 0 then 0
  else begin
    (* zero the edge's own flow, then cancel the displaced units on the
       source side, backward from the tail over reverse arcs (each
       carries back its forward edge's flow), and on the sink side,
       forward from the head over forward arcs; the total flow value
       drops by [total] *)
    unroute t e total;
    ensure_csr t;
    cancel_flow t
      ~avail:(fun s -> flow t (s lxor 1))
      ~take:(fun s amt -> unroute t (s lxor 1) amt)
      ~start:t.dst.(e lxor 1) ~stop:source total;
    cancel_flow t
      ~avail:(fun s -> flow t s)
      ~take:(fun s amt -> unroute t s amt)
      ~start:t.dst.(e) ~stop:sink total;
    Obs.incr obs "flow.drains";
    Obs.add obs "flow.drained_units" total;
    total
  end

(* BFS levels on the residual graph, level.(v) = -1 when unlabelled; true
   iff the sink is reached. It returns as soon as the sink is labelled:
   by then every vertex nearer the source than the sink has its level.
   The DFS below completes paths only through vertices one level apart,
   ending at the sink, so a vertex left unlabelled is one it could only
   enter to find a dead end, and it pushes the same paths in the same
   order as after a full BFS. *)
let bfs t ~source ~sink =
  let level = t.level and queue = t.queue in
  Array.fill level 0 t.n (-1);
  level.(source) <- 0;
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && level.(sink) < 0 do
    let v = queue.(!head) in
    incr head;
    let k = ref t.first.(v) and stop = t.first.(v + 1) in
    while !k < stop && level.(sink) < 0 do
      let e = t.arcs.(!k) in
      let w = t.dst.(e) in
      if t.cap.(e) > 0 && level.(w) < 0 then begin
        level.(w) <- level.(v) + 1;
        queue.(!tail) <- w;
        incr tail
      end;
      incr k
    done
  done;
  level.(sink) >= 0

(* DFS for one augmenting path along level-increasing residual arcs,
   advancing [v]'s current arc past every arc that cannot carry more in
   this phase; returns the amount pushed (0 when [v] is blocked). *)
let rec dfs t ~sink v limit =
  if v = sink then limit
  else begin
    let pushed = ref 0 in
    let stop = t.first.(v + 1) in
    while !pushed = 0 && t.cur.(v) < stop do
      let e = t.arcs.(t.cur.(v)) in
      let w = t.dst.(e) in
      let d =
        if t.cap.(e) > 0 && t.level.(w) = t.level.(v) + 1 then
          dfs t ~sink w (Stdlib.min limit t.cap.(e))
        else 0
      in
      if d > 0 then begin
        t.cap.(e) <- t.cap.(e) - d;
        t.cap.(e lxor 1) <- t.cap.(e lxor 1) + d;
        pushed := d
      end
      else t.cur.(v) <- t.cur.(v) + 1
    done;
    !pushed
  end

(* One Dinic run on the current residual graph; returns the ADDITIONAL
   flow pushed. [call_counter] distinguishes cold calls ([max_flow]) from
   warm re-augmentations ([augment]) in the telemetry. *)
let dinic ?(obs = Obs.null) ~call_counter t ~source ~sink =
  if source = sink then invalid_arg "Flow.max_flow: source = sink";
  ensure_csr t;
  let total = ref 0 in
  let bfs_rounds = ref 0 in
  let augmentations = ref 0 in
  while bfs t ~source ~sink do
    incr bfs_rounds;
    Array.blit t.first 0 t.cur 0 t.n;
    let d = ref (dfs t ~sink source max_int) in
    while !d > 0 do
      incr augmentations;
      total := !total + !d;
      d := dfs t ~sink source max_int
    done
  done;
  Obs.incr obs call_counter;
  Obs.add obs "flow.bfs_rounds" !bfs_rounds;
  Obs.add obs "flow.augmentations" !augmentations;
  !total

let max_flow ?obs t ~source ~sink = dinic ?obs ~call_counter:"flow.max_flow_calls" t ~source ~sink

let augment ?obs t ~source ~sink = dinic ?obs ~call_counter:"flow.augment_calls" t ~source ~sink

let min_cut t ~source =
  ensure_csr t;
  let side = Array.make t.n false in
  let queue = t.queue in
  side.(source) <- true;
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for k = t.first.(v) to t.first.(v + 1) - 1 do
      let e = t.arcs.(k) in
      let w = t.dst.(e) in
      if t.cap.(e) > 0 && not side.(w) then begin
        side.(w) <- true;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  side

(* Walks paths on a copy of each forward edge's flow until a walk gets
   stuck; cycles of flow are cancelled on the copy. *)
let decompose_paths t ~source ~sink =
  ensure_csr t;
  let fl = Array.init t.edge_count (fun e -> if t.orig.(e) > 0 then flow t e else 0) in
  let rec path i = if t.stack_v.(i) = sink then [ sink ] else t.stack_v.(i) :: path (i + 1) in
  let avail e = fl.(e) and take e amt = fl.(e) <- fl.(e) - amt in
  let rec go paths =
    match walk t ~avail ~take ~start:source ~stop:sink max_int with
    | 0 -> List.rev paths
    | amount -> go ((path 0, amount) :: paths)
  in
  go []
