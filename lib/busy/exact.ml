(* Exact optimal bundling of interval jobs (small n): branch-and-bound over
   set partitions. Jobs are inserted one at a time (sorted by release) into
   an existing bundle (if capacity allows) or a fresh bundle; the partial
   cost (sum of bundle spans so far) prunes against the incumbent, seeded
   by the better of FirstFit and GreedyTracking.

   Search kernel:

   - The bundle vector is mutated IN PLACE with O(1) undo on backtrack
     (each bundle keeps its member list and its interval union; the saved
     immutable union is the undo record), instead of rebuilding the whole
     list-of-lists per insertion. Insertion deltas come from
     [Intervals.Union.marginal] on the bundle's cached union.

   - Symmetry breaking: for the job being placed (release r, all later
     jobs release >= r), two bundles are interchangeable iff the multisets
     of their member intervals clipped to [r, horizon) are equal — future
     fits and span marginals depend only on the clipped contents. Only the
     first bundle of each equivalence class is tried; in particular a
     fresh bundle is opened only when no existing bundle is "dead" (clips
     to nothing), since inserting into a dead bundle is equivalent.

   - Suffix lower bound: with U the union of current bundle regions and R
     the (precomputed) union of remaining job intervals, any completion
     pays at least measure(R \ U) on top of the current cost — the region
     R \ U must be covered, and covering it from any bundle grows that
     bundle's span by at least the part it covers.

   Used by the tests and benches to measure true approximation ratios; the
   busy time problem is NP-hard for interval jobs even at g = 2 [14], so
   this is inherently exponential. With a budget the search is metered
   (one tick per node, leaves included) and has no job cap: the fuel, not
   the instance size, bounds the work, and the incumbent returned on
   exhaustion is at worst the FirstFit/GreedyTracking seed. Without a
   budget a 14-job cap guards against accidental unbounded searches. *)

module Q = Rational
module B = Workload.Bjob
module I = Intervals.Interval
module U = Intervals.Union

(* Mutable search state; [members]/[unions] are the in-place bundle
   vector (first [nb] entries live), [covered] the union of all bundle
   regions for the suffix bound. *)
type state = {
  jobs : B.t array; (* sorted by release *)
  ivs : I.t array;
  g : int;
  n : int;
  suffix : U.t array; (* suffix.(i) = union of intervals i..n-1 *)
  horizon : Q.t; (* max interval endpoint, for clipping *)
  mutable nb : int;
  members : B.t list array;
  unions : U.t array;
  mutable covered : U.t;
}

let make_state ~g (sorted : B.t list) =
  let jobs = Array.of_list sorted in
  let n = Array.length jobs in
  let ivs = Array.map B.interval_of jobs in
  let horizon = Array.fold_left (fun acc (iv : I.t) -> Q.max acc iv.I.hi) Q.zero ivs in
  let suffix = Array.make (n + 1) U.empty in
  for i = n - 1 downto 0 do
    suffix.(i) <- U.add suffix.(i + 1) ivs.(i)
  done;
  {
    jobs;
    ivs;
    g;
    n;
    suffix;
    horizon;
    nb = 0;
    members = Array.make (Stdlib.max n 1) [];
    unions = Array.make (Stdlib.max n 1) U.empty;
    covered = U.empty;
  }

let current_packing st = Array.to_list (Array.sub st.members 0 st.nb)

(* measure(suffix.(idx) \ covered): busy time any completion must still pay *)
let uncovered st idx =
  List.fold_left
    (fun acc comp ->
      List.fold_left (fun acc gap -> Q.add acc (I.length gap)) acc (U.gaps st.covered comp))
    Q.zero
    (U.components st.suffix.(idx))

(* Member intervals clipped to [r, horizon), sorted: the canonical
   signature under which bundles are interchangeable for all jobs with
   release >= r (equal signatures => equal clipped unions and clipped
   demands => equal future marginals and fits). *)
let clip_sig st i r =
  if Q.compare r st.horizon >= 0 then []
  else begin
    let win = I.make r st.horizon in
    List.sort I.compare
      (List.filter_map (fun (b : B.t) -> I.intersect (B.interval_of b) win) st.members.(i))
  end

let sig_equal = List.equal I.equal

(* In-place DFS; [best]/[best_packing] hold the incumbent. *)
let rec dfs st ~budget ~nodes ~best ~best_packing idx cost =
  Budget.tick budget;
  incr nodes;
  if idx = st.n then begin
    if Q.compare cost !best < 0 then begin
      best := cost;
      best_packing := current_packing st
    end
  end
  else if Q.compare (Q.add cost (uncovered st idx)) !best < 0 then begin
    let j = st.jobs.(idx) and iv = st.ivs.(idx) in
    let r = iv.I.lo in
    let seen = ref [] in
    let dead_exists = ref false in
    for i = 0 to st.nb - 1 do
      let sg = clip_sig st i r in
      let dup = List.exists (sig_equal sg) !seen in
      seen := sg :: !seen;
      if sg = [] then dead_exists := true;
      if (not dup) && Bundle.fits ~g:st.g st.members.(i) j then begin
        let cost' = Q.add cost (U.marginal st.unions.(i) iv) in
        if Q.compare cost' !best < 0 then begin
          let saved_m = st.members.(i) and saved_u = st.unions.(i) and saved_c = st.covered in
          st.members.(i) <- j :: saved_m;
          st.unions.(i) <- U.add saved_u iv;
          st.covered <- U.add saved_c iv;
          dfs st ~budget ~nodes ~best ~best_packing (idx + 1) cost';
          st.members.(i) <- saved_m;
          st.unions.(i) <- saved_u;
          st.covered <- saved_c
        end
      end
    done;
    (* fresh bundle, unless a dead bundle makes it symmetric *)
    if not !dead_exists then begin
      let cost' = Q.add cost j.B.length in
      if Q.compare cost' !best < 0 then begin
        let i = st.nb and saved_c = st.covered in
        st.members.(i) <- [ j ];
        st.unions.(i) <- U.add U.empty iv;
        st.covered <- U.add saved_c iv;
        st.nb <- st.nb + 1;
        dfs st ~budget ~nodes ~best ~best_packing (idx + 1) cost';
        st.nb <- st.nb - 1;
        st.members.(i) <- [];
        st.unions.(i) <- U.empty;
        st.covered <- saved_c
      end
    end
  end

let solve ?budget ?(obs = Obs.null) ~g jobs =
  if g < 1 then invalid_arg "Exact.solve: g < 1";
  (match budget with
  | None when List.length jobs > 14 ->
      invalid_arg "Exact.solve: too many jobs for exhaustive search"
  | _ -> ());
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  List.iter
    (fun (j : B.t) -> if not (B.is_interval j) then invalid_arg "Exact.solve: flexible job")
    jobs;
  Obs.span obs "busy.exact" @@ fun () ->
  (* sort by release: inserting left to right keeps partial spans stable
     and makes the clipped-signature symmetry argument sound *)
  let sorted = List.sort (fun (a : B.t) (b : B.t) -> Q.compare a.B.release b.B.release) jobs in
  let seed =
    let a = First_fit.solve ~obs ~g jobs and b = Greedy_tracking.solve ~obs ~g jobs in
    if Q.compare (Bundle.total_busy a) (Bundle.total_busy b) <= 0 then a else b
  in
  let best = ref (Bundle.total_busy seed) in
  let best_packing = ref seed in
  let nodes = ref 0 in
  let st = make_state ~g sorted in
  let finish () = Obs.add obs "busy.exact.nodes" !nodes in
  try
    dfs st ~budget ~nodes ~best ~best_packing 0 Q.zero;
    finish ();
    Budget.Complete !best_packing
  with Budget.Out_of_fuel ->
    finish ();
    Budget.Exhausted { spent = Budget.spent budget; incumbent = !best_packing }

let exact ~g jobs =
  match solve ~g jobs with
  | Budget.Complete p -> p
  | Budget.Exhausted _ -> assert false (* unlimited fuel never exhausts *)

let optimum ~g jobs = Bundle.total_busy (exact ~g jobs)
