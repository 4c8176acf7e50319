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
   it off) and how many augmenting paths it takes. *)

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
  (* [cancel_flow]'s walk: [pos.(v)] is v's depth on the walk, -1 off
     it (all -1 between walks); the walk's vertices and the edges into
     them *)
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

(* The first arc of [v], in CSR order, satisfying [p]; -1 when none. *)
let find_arc t v p =
  let stop = t.first.(v + 1) in
  let rec go k = if k >= stop then -1 else if p t.arcs.(k) then t.arcs.(k) else go (k + 1) in
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

(* Cancel up to [total] units of flow along flow-carrying walks from
   [start] to [stop]. [backward] walks against the flow (selecting
   residual reverse arcs, i.e. arcs whose paired forward edge carries flow
   INTO the current vertex); forward walks select forward arcs carrying
   flow OUT of it. Cycles of flow met along a walk are cancelled in place
   (flow strictly decreases, so this terminates), exactly as in
   [decompose_paths]. The walk lives in the graph's scratch; however it
   ends, it resets [pos] on the vertices it visited and nowhere else. *)
let cancel_flow t ~start ~stop ~backward total =
  let want s = if backward then t.orig.(s) = 0 else t.orig.(s) > 0 in
  let avail s = if t.orig.(s) = 0 then t.cap.(s) else t.orig.(s) - t.cap.(s) in
  let usable s = want s && avail s > 0 in
  let reduce s amt =
    if t.orig.(s) = 0 then begin
      t.cap.(s) <- t.cap.(s) - amt;
      t.cap.(s lxor 1) <- t.cap.(s lxor 1) + amt
    end
    else begin
      t.cap.(s) <- t.cap.(s) + amt;
      t.cap.(s lxor 1) <- t.cap.(s lxor 1) - amt
    end
  in
  let pos = t.pos and stack_v = t.stack_v and stack_e = t.stack_e in
  let remaining = ref total in
  let depth = ref 0 in
  let leave () =
    for i = 0 to !depth do
      pos.(stack_v.(i)) <- -1
    done
  in
  let exception Restart in
  while !remaining > 0 && start <> stop do
    try
      stack_v.(0) <- start;
      pos.(start) <- 0;
      depth := 0;
      while stack_v.(!depth) <> stop do
        let v = stack_v.(!depth) in
        match find_arc t v usable with
        | -1 ->
            leave ();
            invalid_arg "Flow.drain_edge: flow not traceable to the endpoint"
        | s ->
            let w = t.dst.(s) in
            if w <> stop && pos.(w) >= 0 then begin
              (* cycle w .. v -> w: cancel its flow, restart the walk *)
              let lo = pos.(w) in
              let amt = ref (avail s) in
              for i = lo + 1 to !depth do
                amt := Stdlib.min !amt (avail stack_e.(i))
              done;
              reduce s !amt;
              for i = lo + 1 to !depth do
                reduce stack_e.(i) !amt
              done;
              leave ();
              raise Restart
            end
            else begin
              incr depth;
              stack_v.(!depth) <- w;
              stack_e.(!depth) <- s;
              pos.(w) <- !depth
            end
      done;
      leave ();
      let amt = ref !remaining in
      for i = 1 to !depth do
        amt := Stdlib.min !amt (avail stack_e.(i))
      done;
      for i = 1 to !depth do
        reduce stack_e.(i) !amt
      done;
      remaining := !remaining - !amt
    with Restart -> ()
  done

let drain_edge ?(obs = Obs.null) t e ~source ~sink =
  if t.orig.(e) = 0 && t.cap.(e) = 0 then 0
  else begin
    let total = flow t e in
    if total <= 0 then 0
    else begin
      let a = t.dst.(e lxor 1) and b = t.dst.(e) in
      (* zero the edge's own flow, then cancel the displaced units on the
         source side (backward from the tail) and sink side (forward from
         the head); total flow value drops by [total] *)
      t.cap.(e) <- t.cap.(e) + total;
      t.cap.(e lxor 1) <- t.cap.(e lxor 1) - total;
      ensure_csr t;
      cancel_flow t ~start:a ~stop:source ~backward:true total;
      cancel_flow t ~start:b ~stop:sink ~backward:false total;
      Obs.incr obs "flow.drains";
      Obs.add obs "flow.drained_units" total;
      total
    end
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

let decompose_paths t ~source ~sink =
  (* Work on a copy of per-edge flow; repeatedly trace a positive-flow walk
     from source. Cycles encountered along the walk are cancelled in place
     (flow strictly decreases, so this terminates); walks reaching the sink
     become simple paths. *)
  ensure_csr t;
  let fl = Array.init t.edge_count (fun e -> if t.orig.(e) > 0 then flow t e else 0) in
  let paths = ref [] in
  let pos = Array.make t.n (-1) in
  (* stack_v.(i) = i-th vertex of the walk; stack_e.(i) = edge into it. *)
  let stack_v = Array.make (t.n + 1) 0 in
  let stack_e = Array.make (t.n + 1) 0 in
  let exception Restart in
  let finished = ref false in
  while not !finished do
    match
      Array.fill pos 0 t.n (-1);
      stack_v.(0) <- source;
      pos.(source) <- 0;
      let depth = ref 0 in
      let outcome = ref None in
      (try
         while !outcome = None do
           let v = stack_v.(!depth) in
           if v = sink then outcome := Some true
           else
             match find_arc t v (fun e -> t.orig.(e) > 0 && fl.(e) > 0) with
             | -1 -> outcome := Some false
             | e ->
                 let w = t.dst.(e) in
                 if w <> sink && pos.(w) >= 0 then begin
                   (* cycle: w .. v -> w; cancel its flow and restart *)
                   let lo = pos.(w) in
                   let amount = ref fl.(e) in
                   for i = lo + 1 to !depth do
                     amount := Stdlib.min !amount fl.(stack_e.(i))
                   done;
                   fl.(e) <- fl.(e) - !amount;
                   for i = lo + 1 to !depth do
                     fl.(stack_e.(i)) <- fl.(stack_e.(i)) - !amount
                   done;
                   raise Restart
                 end
                 else begin
                   incr depth;
                   stack_v.(!depth) <- w;
                   stack_e.(!depth) <- e;
                   pos.(w) <- !depth
                 end
         done
       with Restart -> outcome := None);
      (!outcome, !depth)
    with
    | None, _ -> () (* cycle cancelled; retry *)
    | Some false, _ -> finished := true
    | Some true, depth ->
        let amount = ref max_int in
        for i = 1 to depth do
          amount := Stdlib.min !amount fl.(stack_e.(i))
        done;
        for i = 1 to depth do
          fl.(stack_e.(i)) <- fl.(stack_e.(i)) - !amount
        done;
        let vertices = List.init (depth + 1) (fun i -> stack_v.(i)) in
        paths := (vertices, !amount) :: !paths
  done;
  List.rev !paths
