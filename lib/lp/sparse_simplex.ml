(* Bounded-variable primal/dual simplex over the sparse LU basis algebra
   (Slu), generic in the scalar (Scalar.S). Instantiated twice by Lp: at
   Rational with zero tolerances it is the exact revised engine; at
   float with epsilon tolerances it is the float engine's pivoting hot
   path (whose proposed basis Lp certifies exactly afterwards).

   Unlike a dense tableau simplex there is no maintained tableau, only
   a maintained reduced-cost row: it is priced once per phase by one
   BTRAN (y = B^-T c_B) plus one sparse dot product per column, then
   updated after each pivot from one tableau row (rho = B^-T e_r,
   alpha_rj = rho . A_j, d_j -= theta alpha_rj). That update is
   row-wise: it walks a row-wise copy of the constraint matrix over the
   rows where rho is nonzero and touches only the nonbasic columns those
   rows reach. A primal pivot reads the post-pivot row (theta = d_q); a
   dual pivot reads the pre-pivot row of its leaving variable, runs its
   ratio test over the columns that row reaches and updates d from the
   same row (theta = d_q / alpha_rq). A warm start prices once, and the
   dual-feasibility check, the dual repair and phase 2 all read that
   row; one that resumes from an earlier optimum of the same problem,
   grown by rows and under moved bounds, prices nothing: it keeps that
   optimum's reduced costs, moves its basic values by one FTRAN of the
   moved columns' change and, when no row was added, keeps its LU
   factors. The pivot column is one hypersparse FTRAN (w = B^-1 a_q); the
   primal ratio test, the basic-value update and the eta append loop
   over w's nonzero positions. So a pivot costs the nonzeros it touches
   plus one pass over the columns in pricing and one pull-form BTRAN,
   not O(m·n). Basis changes are product-form eta updates with periodic
   refactorization (Slu.should_refactor).

   Pivot rules: Dantzig pricing switching to Bland's rule after
   [degen_threshold] consecutive degenerate pivots, ratio-test ties to
   the smallest basic column index, bound flips preferred on equal step
   length; the dual simplex leaves by the most violated row (ties to
   the smallest basic column index) and enters by the least ratio (ties
   to the smallest column index). Dantzig is the only pricing rule: candidate-list partial
   pricing and devex reference weights never beat it in wall time
   (EXPERIMENTS E26). *)

type vstat = Vlo | Vhi | Vbas

(* Instance description at the Q level, shared by both scalar
   instantiations (each converts via Scalar.S.of_q). Column layout:
   structurals, then one slack per Le/Ge row in row order, then, for a
   cold start, one artificial per infeasible-start row in row order.
   The matrix is given by rows: row i's columns, ascending, and their
   nonzero coefficients. [Make.of_spec] lists each column's entries in
   descending row order: the order in which both the per-column dot
   product and the row-wise reduced-cost update sum them, so float
   sums agree between the two. *)
type spec = {
  sp_nrows : int;
  sp_ncols : int;
  sp_row_cols : int array array;
  sp_row_vals : Rational.t array array;
  sp_lo : Rational.t array;
  sp_hi : Rational.t option array;
  sp_obj : Rational.t array; (* minimization costs; zero beyond structurals *)
  sp_fixed : bool array; (* lower = upper: never enters *)
  sp_rhs : Rational.t array; (* raw row rhs, for warm restores *)
}

(* A cold start's phase-1 basis: the columns from [st_art] on are the
   artificials (st_art = sp_ncols when there are none). *)
type start = {
  st_art : int;
  st_stat : vstat array;
  st_basis : int array; (* initial basic column per row *)
  st_xb : Rational.t array; (* initial basic values per row *)
}

type 'a config = {
  dtol : 'a; (* reduced-cost / degeneracy tolerance (exact: 0) *)
  ptol : 'a; (* minimum acceptable |pivot| in ratio tests (exact: 0) *)
  ztol : 'a; (* phase-1 objective above this => infeasible (exact: 0) *)
  step_cap : int option; (* pivots+flips before giving up (float cap) *)
  bland_always : bool;
  exact : bool;
      (* which obs counters to report: the exact engine counts the
         lp.pivots family and lp.priced_columns; the float engine counts
         lp.float_pivots only (its pivots are disposable — certification
         decides what they are worth) *)
  count_warm : bool; (* a successful warm start counts in lp.warm_starts *)
}

(* matches Lp.degenerate_pivot_threshold *)
let degen_threshold = 64

module Make (S : Scalar.S) = struct
  module F = Slu.Make (S)

  type problem = {
    pm : int;
    pn : int;
    pcols : F.col array;
    prow_cols : int array array; (* row-wise copy: columns of row i, ascending *)
    prow_vals : S.t array array;
    plo : S.t array;
    phi : S.t option array;
    pobj : S.t array;
    pfixed : bool array;
    prhs : S.t array;
  }

  (* One pass over the rows counts each column's entries, a second
     fills the columns from the last row up. *)
  let of_spec (sp : spec) : problem =
    let m = sp.sp_nrows and n = sp.sp_ncols in
    let prow_cols = sp.sp_row_cols in
    let prow_vals = Array.map (Array.map S.of_q) sp.sp_row_vals in
    let len = Array.make n 0 in
    Array.iter (Array.iter (fun j -> len.(j) <- len.(j) + 1)) prow_cols;
    let pcols = Array.map (fun k -> { F.rows = Array.make k 0; vals = Array.make k S.zero }) len in
    Array.fill len 0 n 0;
    for i = m - 1 downto 0 do
      let cols = prow_cols.(i) and vals = prow_vals.(i) in
      for idx = 0 to Array.length cols - 1 do
        let j = cols.(idx) in
        pcols.(j).F.rows.(len.(j)) <- i;
        pcols.(j).F.vals.(len.(j)) <- vals.(idx);
        len.(j) <- len.(j) + 1
      done
    done;
    {
      pm = m;
      pn = n;
      pcols;
      prow_cols;
      prow_vals;
      plo = Array.map S.of_q sp.sp_lo;
      phi = Array.map (Option.map S.of_q) sp.sp_hi;
      pobj = Array.map S.of_q sp.sp_obj;
      pfixed = Array.copy sp.sp_fixed;
      prhs = Array.map S.of_q sp.sp_rhs;
    }

  let prepend x a =
    let b = Array.make (Array.length a + 1) x in
    Array.blit a 0 b 1 (Array.length a);
    b

  (* [add_rows pb ~ncols rows] is [pb] with [rows] appended: row
     [pb.pm + k] is [rows.(k) = (cols, coefs, rhs)], its columns
     ascending with nonzero coefficients, as [spec] gives a row. The
     columns from [pb.pn] to [ncols - 1] are new slacks, with bounds
     [0, inf) and cost 0. The result is what [of_spec] builds from the
     grown spec: only the columns the new rows reach are rebuilt, each
     with the new entries in front; every other column and row is
     shared. Only a problem without artificials can grow this way. *)
  let add_rows (pb : problem) ~ncols rows =
    let nslack = ncols - pb.pn in
    let pcols = Array.append pb.pcols (Array.make nslack { F.rows = [||]; vals = [||] }) in
    let vals = Array.map (fun (_, coefs, _) -> Array.map S.of_q coefs) rows in
    Array.iteri
      (fun k (cols, _, _) ->
        for idx = 0 to Array.length cols - 1 do
          let c = pcols.(cols.(idx)) in
          pcols.(cols.(idx)) <-
            { F.rows = prepend (pb.pm + k) c.F.rows; vals = prepend vals.(k).(idx) c.F.vals }
        done)
      rows;
    {
      pm = pb.pm + Array.length rows;
      pn = ncols;
      pcols;
      prow_cols = Array.append pb.prow_cols (Array.map (fun (cols, _, _) -> cols) rows);
      prow_vals = Array.append pb.prow_vals vals;
      plo = Array.append pb.plo (Array.make nslack S.zero);
      phi = Array.append pb.phi (Array.make nslack None);
      pobj = Array.append pb.pobj (Array.make nslack S.zero);
      pfixed = Array.append pb.pfixed (Array.make nslack false);
      prhs = Array.append pb.prhs (Array.map (fun (_, _, rhs) -> S.of_q rhs) rows);
    }

  (* What an optimum leaves: the point, the statuses, the basic column
     of each basis position, the reduced costs, each nonbasic column's
     value and the final basis's factors, eta file included. A later
     warm solve of the same problem, grown by rows and under moved
     bounds, can resume from it ([solve_warm ?from]). *)
  type optimum = {
    o_z : S.t;
    o_stat : vstat array;
    o_basis : int array;
    o_xb : S.t array;
    o_d : S.t array;
    o_xn : S.t array; (* nonbasic columns' values; zero on basics *)
    o_fact : F.fact;
  }

  type outcome = Opt of optimum | Infeas | Unbd

  exception Gave_up
  exception Warm_failed

  type state = {
    pb : problem;
    cfg : S.t config;
    budget : Budget.t;
    obs : Obs.t;
    pivots : int ref;
    ops : int ref;
    stat : vstat array;
    basis : int array;
    xb : S.t array;
    hi : S.t option array; (* copy: artificials get pinned to [0,0] *)
    enterable : bool array;
    cost : S.t array; (* current phase costs *)
    d : S.t array; (* maintained reduced costs (zero on basics) *)
    priced : int ref; (* columns whose reduced cost was (re)computed *)
    (* [pivot_row] workspaces: [alpha] all zero and [seen] all false
       between calls *)
    alpha : S.t array;
    seen : bool array;
    touched : int array;
    mutable fact : F.fact;
    mutable z : S.t;
    mutable steps : int;
  }

  let make_state cfg pb ~budget ~obs ~pivots ~ops ~stat ~basis ~xb ~cost ~d ~fact =
    let n = pb.pn in
    {
      pb;
      cfg;
      budget;
      obs;
      pivots;
      ops;
      stat;
      basis;
      xb;
      hi = Array.copy pb.phi;
      enterable = Array.init n (fun j -> not pb.pfixed.(j));
      cost;
      d;
      priced = ref 0;
      alpha = Array.make n S.zero;
      seen = Array.make n false;
      touched = Array.make n 0;
      fact;
      z = S.zero;
      steps = 0;
    }

  let flush_pricing st =
    if st.cfg.exact && !(st.priced) > 0 then
      Obs.add st.obs "lp.priced_columns" !(st.priced)

  let factor_basis ~ops ~obs pb basis =
    let fact = F.factor ~ops ~nrows:pb.pm ~cols:pb.pcols ~basis in
    Obs.incr obs "lp.refactorizations";
    Obs.add obs "lp.fill_nonzeros" (F.lu_nnz fact);
    fact

  let refactor st = st.fact <- factor_basis ~ops:st.ops ~obs:st.obs st.pb st.basis

  let count_pivot st = Obs.incr st.obs (if st.cfg.exact then "lp.pivots" else "lp.float_pivots")

  let nb_value st j =
    match st.stat.(j) with
    | Vhi -> ( match st.hi.(j) with Some u -> u | None -> st.pb.plo.(j))
    | _ -> st.pb.plo.(j)

  (* y . A_j over the sparse column *)
  let dot_col st (y : S.t array) j =
    let c = st.pb.pcols.(j) in
    let acc = ref S.zero in
    for idx = 0 to Array.length c.F.rows - 1 do
      let yi = y.(c.F.rows.(idx)) in
      if not (S.is_zero yi) then begin
        incr st.ops;
        acc := S.add !acc (S.mul yi c.F.vals.(idx))
      end
    done;
    !acc

  (* w = B^-1 a_j, sparse; valid until the next ftran *)
  let ftran_col st j = F.ftran st.fact st.pb.pcols.(j)

  (* y = B^-T c_B; like [btran_unit], valid until the next btran *)
  let dual st =
    F.btran st.fact (F.col_of_array (Array.init st.pb.pm (fun p -> st.cost.(st.basis.(p)))))

  (* rho = B^-T e_r: row r of B^-1 *)
  let btran_unit st r = F.btran st.fact { F.rows = [| r |]; vals = [| S.one |] }

  (* The pivot row alpha_rj = rho . A_j of every nonbasic column,
     accumulated into [st.alpha] over the rows where rho is nonzero, in
     descending row order (the order [dot_col] sums a column in). Only
     the columns those rows reach are touched, [st.touched.(0 .. k-1)]
     for the returned k; alpha is zero on every other nonbasic column.
     [reduce_row] or [clear_row] restores the workspaces. *)
  let pivot_row st (rho : S.t array) =
    let alpha = st.alpha and seen = st.seen and touched = st.touched in
    let nt = ref 0 in
    for i = st.pb.pm - 1 downto 0 do
      let ri = rho.(i) in
      if not (S.is_zero ri) then begin
        let cols = st.pb.prow_cols.(i) and vals = st.pb.prow_vals.(i) in
        for idx = 0 to Array.length cols - 1 do
          let j = cols.(idx) in
          if st.stat.(j) <> Vbas then begin
            if not seen.(j) then begin
              seen.(j) <- true;
              touched.(!nt) <- j;
              incr nt
            end;
            incr st.ops;
            alpha.(j) <- S.add alpha.(j) (S.mul ri vals.(idx))
          end
        done
      end
    done;
    !nt

  (* restore [pivot_row]'s workspaces after it touched [nt] columns *)
  let clear_row st nt =
    for t = 0 to nt - 1 do
      let j = st.touched.(t) in
      st.alpha.(j) <- S.zero;
      st.seen.(j) <- false
    done

  (* d_j -= theta alpha_j over the [nt] columns [pivot_row] touched,
     then clear its workspaces *)
  let reduce_row st nt theta =
    for t = 0 to nt - 1 do
      let j = st.touched.(t) in
      incr st.priced;
      let a = st.alpha.(j) in
      if not (S.is_zero a) then begin
        incr st.ops;
        st.d.(j) <- S.submul st.d.(j) theta a
      end
    done;
    clear_row st nt

  (* price every column once per phase: d_j = c_j - y . A_j; kept
     current across pivots by the row updates of run_primal and
     dual_repair *)
  let compute_reduced st =
    let y = dual st in
    for j = 0 to st.pb.pn - 1 do
      if st.stat.(j) = Vbas then st.d.(j) <- S.zero
      else begin
        incr st.priced;
        st.d.(j) <- S.sub st.cost.(j) (dot_col st y j)
      end
    done

  (* entering column: nonbasic, enterable, profitable in its feasible
     direction; Dantzig largest |d| (first on ties) or Bland first *)
  let price st ~bland =
    let neg_dtol = S.neg st.cfg.dtol in
    let best = ref None in
    (try
       for j = 0 to st.pb.pn - 1 do
         if st.enterable.(j) && st.stat.(j) <> Vbas then begin
           let d = st.d.(j) in
           let eligible =
             match st.stat.(j) with
             | Vlo -> S.compare d neg_dtol < 0
             | Vhi -> S.compare d st.cfg.dtol > 0
             | Vbas -> false
           in
           if eligible then
             if bland then begin
               best := Some (j, d, S.abs d);
               raise Exit
             end
             else
               let score = S.abs d in
               match !best with
               | Some (_, _, s) when S.compare s score >= 0 -> ()
               | _ -> best := Some (j, d, score)
         end
       done
     with Exit -> ());
    Option.map (fun (j, d, _) -> (j, d)) !best

  (* append the eta for the basis change at [pos]; refactorize when the
     eta pivot is unusable or the eta file has grown past the policy *)
  let post_pivot st ~pos ~w =
    if F.update st.fact ~pos ~w then begin
      Obs.incr st.obs "lp.eta_updates";
      if F.should_refactor st.fact then refactor st
    end
    else refactor st

  let step_tick st =
    st.steps <- st.steps + 1;
    (match st.cfg.step_cap with
    | Some cap when st.steps > cap -> raise Gave_up
    | _ -> ());
    Budget.tick st.budget

  type r_outcome = O_opt | O_unbd

  let run_primal st ~phase1 =
    let bland = ref st.cfg.bland_always in
    let stalled = ref 0 in
    let outcome = ref None in
    while !outcome = None do
      match price st ~bland:!bland with
      | None -> outcome := Some O_opt
      | Some (q, d) ->
          let sigma = match st.stat.(q) with Vlo -> 1 | _ -> -1 in
          let span = Option.map (fun u -> S.sub u st.pb.plo.(q)) st.hi.(q) in
          let w = ftran_col st q in
          let wx = w.F.x in
          let best = ref None in
          for t = 0 to w.F.nnz - 1 do
            let p = w.F.nz.(t) in
            let coef = wx.(p) in
            if S.compare (S.abs coef) st.cfg.ptol > 0 then begin
              let e = if sigma > 0 then coef else S.neg coef in
              let k = st.basis.(p) in
              let limit =
                if S.compare e S.zero > 0 then
                  Some (S.div (S.sub st.xb.(p) st.pb.plo.(k)) e, false)
                else
                  match st.hi.(k) with
                  | Some u -> Some (S.div (S.sub u st.xb.(p)) (S.neg e), true)
                  | None -> None
              in
              match limit with
              | None -> ()
              | Some (ti, to_upper) -> (
                  match !best with
                  | None -> best := Some (p, ti, to_upper)
                  | Some (bp, bt, _) ->
                      let c = S.compare ti bt in
                      if c < 0 || (c = 0 && st.basis.(p) < st.basis.(bp)) then
                        best := Some (p, ti, to_upper))
            end
          done;
          let flip =
            match (span, !best) with
            | None, None -> None (* unbounded *)
            | Some s, None -> Some s
            | Some s, Some (_, bt, _) -> if S.compare s bt <= 0 then Some s else None
            | None, Some _ -> None
          in
          (match (flip, !best) with
          | Some s, _ ->
              step_tick st;
              if st.cfg.exact then Obs.incr st.obs "lp.bound_flips";
              let signed = if sigma > 0 then s else S.neg s in
              for t = 0 to w.F.nnz - 1 do
                let p = w.F.nz.(t) in
                incr st.ops;
                st.xb.(p) <- S.submul st.xb.(p) wx.(p) signed
              done;
              st.z <- S.add st.z (S.mul d signed);
              st.stat.(q) <- (match st.stat.(q) with Vlo -> Vhi | _ -> Vlo)
          | None, None -> outcome := Some O_unbd
          | None, Some (r, tstep, to_upper) ->
              step_tick st;
              let k = st.basis.(r) in
              let signed = if sigma > 0 then tstep else S.neg tstep in
              let vq = S.add (nb_value st q) signed in
              for t = 0 to w.F.nnz - 1 do
                let p = w.F.nz.(t) in
                if p <> r then begin
                  incr st.ops;
                  st.xb.(p) <- S.submul st.xb.(p) wx.(p) signed
                end
              done;
              st.z <- S.add st.z (S.mul d signed);
              st.xb.(r) <- vq;
              st.stat.(k) <- (if to_upper then Vhi else Vlo);
              st.stat.(q) <- Vbas;
              st.basis.(r) <- q;
              post_pivot st ~pos:r ~w;
              (* maintain the reduced-cost row from the post-pivot
                 tableau row r, d_j -= d alpha_rj (covers the leaving
                 column: its old d was zero) *)
              reduce_row st (pivot_row st (btran_unit st r)) d;
              st.d.(q) <- S.zero;
              incr st.pivots;
              count_pivot st;
              if phase1 && st.cfg.exact then Obs.incr st.obs "lp.phase1_pivots";
              if S.compare tstep st.cfg.dtol <= 0 then begin
                incr stalled;
                if st.cfg.exact then Obs.incr st.obs "lp.degenerate_pivots";
                if !stalled > degen_threshold then bland := true
              end
              else stalled := 0)
    done;
    Option.get !outcome

  (* objective value at the current point for the current costs *)
  let recompute_z st =
    let z = ref S.zero in
    for p = 0 to st.pb.pm - 1 do
      let c = st.cost.(st.basis.(p)) in
      if not (S.is_zero c) then z := S.add !z (S.mul c st.xb.(p))
    done;
    for j = 0 to st.pb.pn - 1 do
      if st.stat.(j) <> Vbas && not (S.is_zero st.cost.(j)) then
        z := S.add !z (S.mul st.cost.(j) (nb_value st j))
    done;
    st.z <- !z

  let extract st =
    let xn = Array.init st.pb.pn (fun j -> if st.stat.(j) = Vbas then S.zero else nb_value st j) in
    Opt
      {
        o_z = st.z;
        o_stat = st.stat;
        o_basis = st.basis;
        o_xb = st.xb;
        o_d = st.d;
        o_xn = xn;
        o_fact = st.fact;
      }

  (* How far [x], the value of column [k], lies outside its bounds
     beyond the tolerance: [Some (v, true)] below, [Some (v, false)]
     above. A value within its bounds is only compared, never
     subtracted from them. *)
  let violation st k x =
    let lo = st.pb.plo.(k) in
    let below = if S.compare x lo < 0 then S.sub lo x else S.zero in
    if S.compare below st.cfg.dtol > 0 then Some (below, true)
    else
      match st.hi.(k) with
      | Some u when S.compare x u > 0 ->
          let above = S.sub x u in
          if S.compare above st.cfg.dtol > 0 then Some (above, false) else None
      | _ -> None

  (* Dual simplex repairing primal feasibility from a dual-feasible
     basis after a bound change, keeping [st.d] current. Each pivot is
     one BTRAN rho = B^-T e_r for the leaving row r; the pivot row
     alpha_rj = rho . A_j is accumulated row-wise ([pivot_row]) over the
     nonbasic columns rho's rows reach, and the ratio test runs over
     those: the least |d_j / alpha_rj| among the eligible ones, ties to
     the smallest column index. Then d_j -= theta alpha_rj with theta =
     d_q / alpha_rq, the leaving column's d becomes -theta (its alpha is
     1) and d_q = 0. Raises Warm_failed at the pivot cap, returns false
     when the LP is primal infeasible. *)
  let dual_repair st =
    let cfg = st.cfg and pb = st.pb in
    let m = pb.pm and n = pb.pn in
    let cap = (4 * (m + n)) + degen_threshold in
    let steps = ref 0 in
    let feasible = ref true in
    let continue_ = ref true in
    while !continue_ && !feasible do
      (* leaving row: most violated basic value, ties to smallest index *)
      let worst = ref None in
      for p = 0 to m - 1 do
        let k = st.basis.(p) in
        match violation st k st.xb.(p) with
        | None -> ()
        | Some (v, below) -> (
            match !worst with
            | Some (bp, _, bv)
              when S.compare bv v > 0 || (S.compare bv v = 0 && st.basis.(bp) <= k) ->
                ()
            | _ -> worst := Some (p, below, v))
      done;
      match !worst with
      | None -> continue_ := false (* primal feasible again *)
      | Some (r, below, _) ->
          if !steps >= cap then raise Warm_failed;
          let nt = pivot_row st (btran_unit st r) in
          let best = ref (-1) and best_ratio = ref S.zero in
          for t = 0 to nt - 1 do
            let j = st.touched.(t) in
            let arj = st.alpha.(j) in
            if st.enterable.(j) && S.compare (S.abs arj) cfg.ptol > 0 then begin
              let eligible =
                match (st.stat.(j), below) with
                | Vlo, true | Vhi, false -> S.compare arj S.zero < 0
                | Vhi, true | Vlo, false -> S.compare arj S.zero > 0
                | Vbas, _ -> false
              in
              if eligible then begin
                let ratio = S.div (S.abs st.d.(j)) (S.abs arj) in
                let c = if !best < 0 then -1 else S.compare ratio !best_ratio in
                if c < 0 || (c = 0 && j < !best) then begin
                  best := j;
                  best_ratio := ratio
                end
              end
            end
          done;
          if !best < 0 then begin
            clear_row st nt;
            feasible := false (* dual unbounded: primal infeasible *)
          end
          else begin
            let q = !best and k = st.basis.(r) in
            let dq = st.d.(q) in
            let theta = S.div dq st.alpha.(q) in
            reduce_row st nt theta;
            st.d.(q) <- S.zero;
            st.d.(k) <- S.neg theta;
            Budget.tick st.budget;
            incr steps;
            let beta = if below then pb.plo.(k) else Option.get st.hi.(k) in
            let w = ftran_col st q in
            let wx = w.F.x in
            let delta = S.div (S.sub st.xb.(r) beta) wx.(r) in
            let vq = S.add (nb_value st q) delta in
            for t = 0 to w.F.nnz - 1 do
              let p = w.F.nz.(t) in
              if p <> r then begin
                incr st.ops;
                st.xb.(p) <- S.submul st.xb.(p) wx.(p) delta
              end
            done;
            st.z <- S.add st.z (S.mul dq delta);
            st.xb.(r) <- vq;
            st.stat.(k) <- (if below then Vlo else Vhi);
            st.stat.(q) <- Vbas;
            st.basis.(r) <- q;
            post_pivot st ~pos:r ~w;
            incr st.pivots;
            count_pivot st
          end
    done;
    !feasible

  let solve_cold (cfg : S.t config) (pb : problem) (start : start) ~budget ~obs ~pivots ~ops =
    let m = pb.pm and n = pb.pn and part = start.st_art in
    let basis = Array.copy start.st_basis in
    let st =
      make_state cfg pb ~budget ~obs ~pivots ~ops ~stat:(Array.copy start.st_stat) ~basis
        ~xb:(Array.map S.of_q start.st_xb) ~cost:(Array.make n S.zero) ~d:(Array.make n S.zero)
        ~fact:(factor_basis ~ops ~obs pb basis)
    in
    Fun.protect ~finally:(fun () -> flush_pricing st) @@ fun () ->
    let infeasible = ref false in
    if part < n then begin
      (* phase 1: minimize the sum of the artificials *)
      for j = part to n - 1 do
        st.cost.(j) <- S.one
      done;
      compute_reduced st;
      let z1 = ref S.zero in
      for p = 0 to m - 1 do
        if st.basis.(p) >= part then z1 := S.add !z1 st.xb.(p)
      done;
      st.z <- !z1;
      (match Obs.span obs "lp.phase1" (fun () -> run_primal st ~phase1:true) with
      | O_unbd -> raise Gave_up (* impossible exactly; float noise only *)
      | O_opt -> if S.compare st.z cfg.ztol > 0 then infeasible := true);
      if not !infeasible then begin
        (* pin artificials to zero and forbid them from re-entering *)
        for j = part to n - 1 do
          st.enterable.(j) <- false;
          st.hi.(j) <- Some S.zero
        done;
        (* drive remaining (zero-valued) basic artificials out *)
        for p = 0 to m - 1 do
          if st.basis.(p) >= part then begin
            let rho = btran_unit st p in
            let found = ref (-1) in
            (try
               for j = 0 to part - 1 do
                 if st.stat.(j) <> Vbas then begin
                   let a = dot_col st rho j in
                   if S.compare (S.abs a) cfg.ptol > 0 then begin
                     found := j;
                     raise Exit
                   end
                 end
               done
             with Exit -> ());
            if !found >= 0 then begin
              (* zero-length pivot: the artificial leaves at 0 *)
              let j = !found in
              let w = ftran_col st j in
              let art = st.basis.(p) in
              st.xb.(p) <- nb_value st j;
              st.stat.(art) <- Vlo;
              st.stat.(j) <- Vbas;
              st.basis.(p) <- j;
              post_pivot st ~pos:p ~w
            end
            (* else: redundant row, artificial stays basic pinned at 0 *)
          end
        done
      end
    end;
    if !infeasible then Infeas
    else begin
      Array.blit pb.pobj 0 st.cost 0 n;
      compute_reduced st;
      recompute_z st;
      match Obs.span obs "lp.phase2" (fun () -> run_primal st ~phase1:false) with
      | O_unbd -> Unbd
      | O_opt -> extract st
    end

  (* A warm state built afresh: factor the basis of [stat], solve x_B
     and price every column. *)
  let refactored cfg pb ~stat ~budget ~obs ~pivots ~ops =
    let m = pb.pm and n = pb.pn in
    let nb = ref 0 in
    Array.iter (fun s -> if s = Vbas then incr nb) stat;
    if !nb <> m then raise Warm_failed;
    let basis = Array.make m 0 in
    let bi = ref 0 in
    for j = 0 to n - 1 do
      if stat.(j) = Vbas then begin
        basis.(!bi) <- j;
        incr bi
      end
    done;
    let fact =
      try factor_basis ~ops ~obs pb basis with F.Singular -> raise Warm_failed
    in
    let st =
      make_state cfg pb ~budget ~obs ~pivots ~ops ~stat:(Array.copy stat) ~basis
        ~xb:(Array.make m S.zero) ~cost:(Array.copy pb.pobj) ~d:(Array.make n S.zero) ~fact
    in
    (* x_B = B^-1 (b - sum over nonbasic of A_j x_j) *)
    let rhs = Array.copy pb.prhs in
    for j = 0 to n - 1 do
      if st.stat.(j) <> Vbas then begin
        let v = nb_value st j in
        if not (S.is_zero v) then begin
          let c = pb.pcols.(j) in
          for idx = 0 to Array.length c.F.rows - 1 do
            incr ops;
            rhs.(c.F.rows.(idx)) <- S.submul rhs.(c.F.rows.(idx)) c.F.vals.(idx) v
          done
        end
      end
    done;
    let xb = F.ftran st.fact (F.col_of_array rhs) in
    Array.blit xb.F.x 0 st.xb 0 m;
    recompute_z st;
    (* priced once: the dual-feasibility check reads d, the dual repair
       keeps it current and phase 2 starts from it *)
    compute_reduced st;
    st

  (* [stat] is [o]'s basis with a basic slack for each row added since,
     and each of those rows has a slack *)
  let resumable pb (o : optimum) stat =
    let m0 = Array.length o.o_basis and n0 = Array.length o.o_stat in
    pb.pm >= m0
    && pb.pn - n0 = pb.pm - m0
    &&
    let same = ref true in
    for j = 0 to pb.pn - 1 do
      if stat.(j) <> if j < n0 then o.o_stat.(j) else Vbas then same := false
    done;
    !same

  (* The warm state [o] left, grown by the rows [pb] gained since and
     moved to the current bounds. The new rows' slacks join the basis at
     the new positions. With no new row the basis is [o]'s, and so are
     its factors, which this solve takes over and charges; otherwise the
     grown basis is factored. The reduced costs carry over: a bound does
     not enter them, and the new rows' duals are zero (their slacks are
     basic at cost 0). A nonbasic column whose bound value moved by
     delta_j moves x_B by B^-1 A_j delta_j: one FTRAN of their sum over
     the old rows updates the old basic values (no new column reaches an
     old row) and z moves by d_j delta_j. Each new slack's value is then
     read off its own row. [o] is used up: its factors change with this
     solve's pivots. *)
  let resumed cfg pb (o : optimum) ~stat ~budget ~obs ~pivots ~ops =
    let m0 = Array.length o.o_basis and n0 = Array.length o.o_stat in
    let grow a = Array.append a (Array.make (pb.pm - m0) S.zero) in
    let basis = Array.init pb.pm (fun p -> if p < m0 then o.o_basis.(p) else n0 + p - m0) in
    let fact =
      if pb.pm = m0 then begin
        o.o_fact.F.ops <- ops;
        o.o_fact
      end
      else try factor_basis ~ops ~obs pb basis with F.Singular -> raise Warm_failed
    in
    let st =
      make_state cfg pb ~budget ~obs ~pivots ~ops ~stat:(Array.copy stat) ~basis
        ~xb:(grow o.o_xb) ~cost:(Array.copy pb.pobj) ~d:(grow o.o_d) ~fact
    in
    st.z <- o.o_z;
    (* rhs = -(sum of A_j delta_j) over the old rows *)
    let rhs = Array.make pb.pm S.zero and moved = ref false in
    for j = 0 to n0 - 1 do
      if st.stat.(j) <> Vbas then begin
        let v = nb_value st j in
        if S.compare v o.o_xn.(j) <> 0 then begin
          let delta = S.sub v o.o_xn.(j) in
          moved := true;
          st.z <- S.add st.z (S.mul st.d.(j) delta);
          let c = pb.pcols.(j) in
          for idx = 0 to Array.length c.F.rows - 1 do
            let r = c.F.rows.(idx) in
            if r < m0 then begin
              incr ops;
              rhs.(r) <- S.submul rhs.(r) c.F.vals.(idx) delta
            end
          done
        end
      end
    done;
    if !moved then begin
      let w = F.ftran st.fact (F.col_of_array rhs) in
      for t = 0 to w.F.nnz - 1 do
        let p = w.F.nz.(t) in
        if p < m0 then st.xb.(p) <- S.add st.xb.(p) w.F.x.(p)
      done
    end;
    let pos = Array.make n0 (-1) in
    Array.iteri (fun p j -> pos.(j) <- p) o.o_basis;
    (* row p: a.x + delta s = b, s its slack, basic at position p *)
    for p = m0 to pb.pm - 1 do
      let cols = pb.prow_cols.(p) and vals = pb.prow_vals.(p) in
      let acc = ref pb.prhs.(p) and delta = ref S.one in
      Array.iteri
        (fun idx j ->
          if j >= n0 then delta := vals.(idx)
          else
            let x = if pos.(j) >= 0 then st.xb.(pos.(j)) else nb_value st j in
            if not (S.is_zero x) then begin
              incr ops;
              acc := S.submul !acc vals.(idx) x
            end)
        cols;
      incr ops;
      st.xb.(p) <- S.div !acc !delta
    done;
    st

  (* Warm start from per-column statuses against a problem without
     artificials. It resumes from [from], the optimum an earlier warm
     solve of this problem left, when [stat] is that optimum's basis
     with a basic slack for every row added since ([resumable]),
     whatever bounds moved since; otherwise it factors the basis of
     [stat], solves x_B and prices every column. Then it goes straight
     to phase 2 when still primal feasible, or runs the dual repair when
     only primal feasibility was lost. The pivots, the vertex and the returned statuses do not
     depend on which way it started. Raises Warm_failed whenever the
     statuses cannot be reused. *)
  let solve_warm ?from (cfg : S.t config) (pb : problem) ~(stat : vstat array) ~budget ~obs
      ~pivots ~ops =
    if Array.length stat <> pb.pn then raise Warm_failed;
    let st =
      match from with
      | Some o when resumable pb o stat -> resumed cfg pb o ~stat ~budget ~obs ~pivots ~ops
      | _ -> refactored cfg pb ~stat ~budget ~obs ~pivots ~ops
    in
    let m = pb.pm and n = pb.pn in
    Fun.protect ~finally:(fun () -> flush_pricing st) @@ fun () ->
    let primal_feasible =
      let ok = ref true in
      for p = 0 to m - 1 do
        if Option.is_some (violation st st.basis.(p) st.xb.(p)) then ok := false
      done;
      !ok
    in
    let proceed =
      if primal_feasible then true
      else begin
        (* dual feasible? (the usual case: only bounds changed or rows
           were added) *)
        let neg_dtol = S.neg cfg.dtol in
        for j = 0 to n - 1 do
          if st.enterable.(j) then
            match st.stat.(j) with
            | Vlo -> if S.compare st.d.(j) neg_dtol < 0 then raise Warm_failed
            | Vhi -> if S.compare st.d.(j) cfg.dtol > 0 then raise Warm_failed
            | Vbas -> ()
        done;
        dual_repair st
      end
    in
    if not proceed then Infeas
    else begin
      if cfg.count_warm then Obs.incr obs "lp.warm_starts";
      match Obs.span obs "lp.phase2" (fun () -> run_primal st ~phase1:false) with
      | O_unbd -> Unbd
      | O_opt -> extract st
    end
end
