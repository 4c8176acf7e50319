(* Span-minimizing placement of flexible jobs with unbounded capacity -
   the role Khandekar et al.'s dynamic program (paper Theorem 4) plays in
   the flexible-job pipeline. Its output converts flexible jobs to
   interval jobs whose span is OPT_infinity, the lower bound used by
   Theorems 5/10.

   Substitution (DESIGN.md item 2): the FSTTCS'10 DP is only sketched in
   this paper, so we provide

   - [exact]: branch-and-bound over integer start times (valid for
     integer-data instances: a sliding argument moves any optimal
     placement to integer starts without increasing the union measure),
     pruned by the partial union measure against an incumbent. Exponential
     worst case; intended for small n / small windows (tests, gadgets).

   - [greedy]: place jobs in non-increasing length order at the smallest
     start minimizing the marginal union growth (candidates: window ends
     and positions snapped against already-placed intervals), then up to
     [passes] local-search passes that re-place every job given all the
     others; a pass is kept only when it strictly shrinks the span.
     Near-optimal empirically; the tests measure its gap against [exact]
     on random instances.

   Both return interval jobs (same ids, pinned starts) and reject repeated
   ids: the local search tracks jobs by position, and two jobs sharing an
   id could not be told apart in the answer. *)

module Q = Rational
module B = Workload.Bjob
module I = Intervals.Interval
module U = Intervals.Union

let is_integer_job (j : B.t) = Q.is_integer j.B.release && Q.is_integer j.B.deadline && Q.is_integer j.B.length

let span_of placed = Intervals.span (List.map B.interval_of placed)

(* candidate starts for [j] given a union of already-placed intervals:
   window ends, plus starts that butt j against an existing component
   boundary (end of a component, or start of a component minus length) *)
let candidate_starts (j : B.t) union =
  let lo = j.B.release and hi = B.latest_start j in
  let clamp s = if Q.compare s lo < 0 then None else if Q.compare s hi > 0 then None else Some s in
  let anchors =
    List.concat_map
      (fun (c : I.t) -> [ c.I.lo; c.I.hi; Q.sub c.I.lo j.B.length; Q.sub c.I.hi j.B.length ])
      (U.components union)
  in
  List.sort_uniq Q.compare (lo :: hi :: List.filter_map clamp anchors)

let place_best union (j : B.t) =
  let best = ref None in
  List.iter
    (fun s ->
      let iv = I.make s (Q.add s j.B.length) in
      let cost = U.marginal union iv in
      match !best with
      | Some (_, c) when Q.compare c cost <= 0 -> ()
      | _ -> best := Some (s, cost))
    (candidate_starts j union);
  match !best with Some (s, _) -> B.place j s | None -> assert false

(* The greedy's state: [placed.(i)] is input job [i] as currently pinned,
   and the coverage of the pinned jobs is kept over their endpoints.
   Invariant: [pts.(0 .. len-1)] are the distinct endpoints of the placed
   intervals in increasing order, [refs.(k)] counts the endpoints at
   [pts.(k)], and [cnt.(k)] is the number of placed intervals covering
   [\[pts.(k), pts.(k+1))] (0 for the last point). The union of the placed
   jobs is the run of segments with [cnt > 0]. Placing or lifting a job
   touches its two endpoints and the segments its interval covers; at
   most [2n] points are live, so the arrays never grow. *)
type state = {
  placed : B.t array;
  pts : Q.t array;
  refs : int array;
  cnt : int array;
  mutable len : int;
}

let copy s =
  {
    placed = Array.copy s.placed;
    pts = Array.copy s.pts;
    refs = Array.copy s.refs;
    cnt = Array.copy s.cnt;
    len = s.len;
  }

(* index of the first point >= x, or [len] *)
let locate s x =
  let lo = ref 0 and hi = ref s.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Q.compare s.pts.(mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* add one endpoint at [x]; a new point splits its segment, inheriting
   the segment's count *)
let insert s x =
  let k = locate s x in
  if k < s.len && Q.equal s.pts.(k) x then s.refs.(k) <- s.refs.(k) + 1
  else begin
    let tail = s.len - k in
    Array.blit s.pts k s.pts (k + 1) tail;
    Array.blit s.refs k s.refs (k + 1) tail;
    Array.blit s.cnt k s.cnt (k + 1) tail;
    s.pts.(k) <- x;
    s.refs.(k) <- 1;
    s.cnt.(k) <- (if k = 0 then 0 else s.cnt.(k - 1));
    s.len <- s.len + 1
  end;
  k

(* drop one endpoint at index [k]; a point no interval ends at any more
   has equal counts on both sides, so it merges away *)
let release s k =
  s.refs.(k) <- s.refs.(k) - 1;
  if s.refs.(k) = 0 then begin
    let tail = s.len - k - 1 in
    Array.blit s.pts (k + 1) s.pts k tail;
    Array.blit s.refs (k + 1) s.refs k tail;
    Array.blit s.cnt (k + 1) s.cnt k tail;
    s.len <- s.len - 1
  end

let cover s (p : B.t) =
  let a = insert s p.B.release in
  let b = insert s p.B.deadline in
  for k = a to b - 1 do
    s.cnt.(k) <- s.cnt.(k) + 1
  done

let uncover s (p : B.t) =
  let a = locate s p.B.release and b = locate s p.B.deadline in
  for k = a to b - 1 do
    s.cnt.(k) <- s.cnt.(k) - 1
  done;
  release s b;
  release s a

let measure s =
  let total = ref Q.zero in
  for k = 0 to s.len - 2 do
    if s.cnt.(k) > 0 then total := Q.add !total (Q.sub s.pts.(k + 1) s.pts.(k))
  done;
  !total

(* The union of the placed jobs clipped to a job's window [lo, hi].
   [place_best] on it picks the same start as on the whole union: anchors
   outside the window are clamped away, the clipped ends add only [lo]
   and [hi] minus the job's length (both candidates already), and the
   marginal span of an in-window interval sees only in-window coverage.
   The walk starts at the segment holding [lo] (or ending at it, which
   clips to empty and [U.of_list] drops). *)
let window_union s lo hi =
  let rec go k acc =
    if k >= s.len - 1 || Q.compare s.pts.(k) hi >= 0 then U.of_list acc
    else if s.cnt.(k) = 0 then go (k + 1) acc
    else go (k + 1) (I.make (Q.max lo s.pts.(k)) (Q.min hi s.pts.(k + 1)) :: acc)
  in
  go (max 0 (locate s lo - 1)) []

let greedy ?(passes = 3) jobs =
  Bundle.ensure_unique_ids "Placement.greedy" jobs;
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let place s i =
    let j = jobs.(i) in
    let p = place_best (window_union s j.B.release j.B.deadline) j in
    s.placed.(i) <- p;
    cover s p
  in
  let s =
    {
      placed = Array.copy jobs;
      pts = Array.make (2 * n) Q.zero;
      refs = Array.make (2 * n) 0;
      cnt = Array.make (2 * n) 0;
      len = 0;
    }
  in
  let by_length =
    List.stable_sort (fun a b -> Q.compare jobs.(b).B.length jobs.(a).B.length) (List.init n Fun.id)
  in
  List.iter (place s) by_length;
  (* local search: re-place each job given all the others, on a copy, so
     that a pass that does not shrink the span leaves [s] as it was *)
  let rec loop s k =
    if k = 0 then s
    else begin
      let s' = copy s in
      for i = 0 to n - 1 do
        uncover s' s'.placed.(i);
        place s' i
      done;
      if Q.compare (measure s') (measure s) < 0 then loop s' (k - 1) else s
    end
  in
  List.sort (fun (a : B.t) (b : B.t) -> compare a.B.id b.B.id) (Array.to_list (loop s passes).placed)

(* Exact minimum-span placement for integer-data instances. *)
let exact jobs =
  Bundle.ensure_unique_ids "Placement.exact" jobs;
  List.iter
    (fun j ->
      if not (is_integer_job j) then invalid_arg "Placement.exact: non-integer job data")
    jobs;
  let incumbent = ref (greedy jobs) in
  let best = ref (span_of !incumbent) in
  (* order jobs by window start for a left-to-right search *)
  let sorted = List.sort (fun (a : B.t) (b : B.t) -> Q.compare a.B.release b.B.release) jobs in
  let rec dfs placed union = function
    | [] ->
        let s = U.measure union in
        if Q.compare s !best < 0 then begin
          best := s;
          incumbent := List.rev placed
        end
    | (j : B.t) :: rest ->
        if Q.compare (U.measure union) !best < 0 then begin
          let lo = Q.floor_int j.B.release and hi = Q.floor_int (B.latest_start j) in
          (* try starts in an order that looks at snapped positions first *)
          let starts = List.init (hi - lo + 1) (fun i -> Q.of_int (lo + i)) in
          let scored =
            List.map
              (fun s ->
                let iv = I.make s (Q.add s j.B.length) in
                (U.marginal union iv, s))
              starts
          in
          let ordered = List.sort (fun (a, _) (b, _) -> Q.compare a b) scored in
          List.iter
            (fun (_, s) ->
              let p = B.place j s in
              dfs (p :: placed) (U.add union (B.interval_of p)) rest)
            ordered
        end
  in
  dfs [] U.empty sorted;
  List.sort (fun (a : B.t) (b : B.t) -> compare a.B.id b.B.id) !incumbent

(* Convenience: minimal span value. *)
let optimum_span jobs = span_of (exact jobs)
