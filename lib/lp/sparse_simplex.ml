(* Bounded-variable primal/dual simplex over the sparse LU basis algebra
   (Slu), generic in the scalar (Scalar.S). Instantiated twice by Lp: at
   Rational with zero tolerances it is the exact revised engine; at
   float with epsilon tolerances it is the float engine's pivoting hot
   path (whose proposed basis Lp certifies exactly afterwards).

   Unlike a dense tableau simplex there is no maintained tableau, only
   a maintained reduced-cost row: it is priced once per phase by one
   BTRAN (y = B^-T c_B) plus one sparse dot product per column, then
   updated after each pivot from the post-pivot tableau row
   (rho = B^-T e_r, alpha_rj = rho . A_j, d_j -= d_q alpha_rj). That
   update is row-wise: it walks a row-wise copy of the constraint matrix
   over the rows where rho is nonzero and touches only the nonbasic
   columns those rows reach. The pivot column is one hypersparse FTRAN
   (w = B^-1 a_q); the ratio test, the basic-value update and the eta
   append loop over w's nonzero positions. So a pivot costs the nonzeros
   it touches plus one pass over the columns in pricing and one pull-form
   BTRAN, not O(m·n). Basis changes are product-form eta updates with
   periodic refactorization (Slu.should_refactor).

   Pivot rules: Dantzig pricing switching to Bland's rule after
   [degen_threshold] consecutive degenerate pivots, ratio-test ties to
   the smallest basic column index, bound flips preferred on equal step
   length. Dantzig is the only pricing rule: candidate-list partial
   pricing and devex reference weights never beat it in wall time
   (EXPERIMENTS E26). *)

type vstat = Vlo | Vhi | Vbas

(* Instance description at the Q level, shared by both scalar
   instantiations (each converts via Scalar.S.of_q). Column layout:
   structurals, then one slack per Le/Ge row in row order, then, for a
   cold start, one artificial per infeasible-start row in row order.
   Each column lists its entries in descending row order: the order in
   which both the per-column dot product and the row-wise reduced-cost
   update sum them, so float sums agree between the two. *)
type spec = {
  sp_nrows : int;
  sp_ncols : int;
  sp_cols : (int * Rational.t) list array;
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

(* Which obs counters an instantiation reports. The exact engine uses
   the lp.pivots family; the float engine counts lp.float_pivots only
   (its pivots are disposable — certification decides what they are
   worth). [c_price] gates lp.priced_columns the same way. *)
type counters = {
  c_pivots : string;
  c_phase1 : bool;
  c_flips : bool;
  c_degen : bool;
  c_warm : bool;
  c_price : bool;
}

type 'a config = {
  dtol : 'a; (* reduced-cost / degeneracy tolerance (exact: 0) *)
  ptol : 'a; (* minimum acceptable |pivot| in ratio tests (exact: 0) *)
  ztol : 'a; (* phase-1 objective above this => infeasible (exact: 0) *)
  eta_cap : int; (* refactorize after this many eta updates *)
  step_cap : int option; (* pivots+flips before giving up (float cap) *)
  bland_always : bool;
  counters : counters;
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

  let of_spec (sp : spec) : problem =
    let m = sp.sp_nrows in
    let pcols =
      Array.map (fun l -> F.col_of_list (List.map (fun (r, q) -> (r, S.of_q q)) l)) sp.sp_cols
    in
    let len = Array.make m 0 in
    Array.iter (fun c -> Array.iter (fun r -> len.(r) <- len.(r) + 1) c.F.rows) pcols;
    let prow_cols = Array.map (fun k -> Array.make k 0) len in
    let prow_vals = Array.map (fun k -> Array.make k S.zero) len in
    Array.fill len 0 m 0;
    Array.iteri
      (fun j c ->
        Array.iteri
          (fun idx r ->
            prow_cols.(r).(len.(r)) <- j;
            prow_vals.(r).(len.(r)) <- c.F.vals.(idx);
            len.(r) <- len.(r) + 1)
          c.F.rows)
      pcols;
    {
      pm = m;
      pn = sp.sp_ncols;
      pcols;
      prow_cols;
      prow_vals;
      plo = Array.map S.of_q sp.sp_lo;
      phi = Array.map (Option.map S.of_q) sp.sp_hi;
      pobj = Array.map S.of_q sp.sp_obj;
      pfixed = Array.copy sp.sp_fixed;
      prhs = Array.map S.of_q sp.sp_rhs;
    }

  (* [add_rows pb rows] is [pb] with [rows] appended: row [pb.pm + k] is
     [rows.(k) = (terms, slack, rhs)], its structural [terms] as
     (column, coefficient), and [slack] the coefficient of its new slack
     column ([None] for an equality), added after every existing column
     with bounds [0, inf) and cost 0. The result is what [of_spec] builds
     from the grown spec, sharing every column and row the new rows leave
     alone. Only a problem without artificials can grow this way. *)
  let add_rows (pb : problem) rows =
    let k = Array.length rows in
    let m = pb.pm + k in
    let nslack = Array.fold_left (fun acc (_, slack, _) -> if slack = None then acc else acc + 1) 0 rows in
    let n = pb.pn + nslack in
    let pcols = Array.append pb.pcols (Array.make nslack { F.rows = [||]; vals = [||] }) in
    let prow_cols = Array.append pb.prow_cols (Array.make k [||]) in
    let prow_vals = Array.append pb.prow_vals (Array.make k [||]) in
    (* new entries of the existing columns, highest row first *)
    let extra = Array.make pb.pn [] in
    let next = ref pb.pn in
    Array.iteri
      (fun r (terms, slack, _) ->
        let i = pb.pm + r in
        let entries =
          List.filter_map
            (fun (j, q) ->
              let v = S.of_q q in
              if S.is_zero v then None else Some (j, v))
            (List.sort (fun (a, _) (b, _) -> compare a b) terms)
        in
        List.iter (fun (j, v) -> extra.(j) <- (i, v) :: extra.(j)) entries;
        let entries =
          match slack with
          | None -> entries
          | Some q ->
              let j = !next in
              incr next;
              pcols.(j) <- F.col_of_list [ (i, S.of_q q) ];
              entries @ [ (j, S.of_q q) ]
        in
        prow_cols.(i) <- Array.of_list (List.map fst entries);
        prow_vals.(i) <- Array.of_list (List.map snd entries))
      rows;
    Array.iteri
      (fun j e ->
        if e <> [] then begin
          let c = pb.pcols.(j) in
          pcols.(j) <-
            {
              F.rows = Array.append (Array.of_list (List.map fst e)) c.F.rows;
              vals = Array.append (Array.of_list (List.map snd e)) c.F.vals;
            }
        end)
      extra;
    {
      pm = m;
      pn = n;
      pcols;
      prow_cols;
      prow_vals;
      plo = Array.append pb.plo (Array.make nslack S.zero);
      phi = Array.append pb.phi (Array.make nslack None);
      pobj = Array.append pb.pobj (Array.make nslack S.zero);
      pfixed = Array.append pb.pfixed (Array.make nslack false);
      prhs = Array.append pb.prhs (Array.map (fun (_, _, rhs) -> S.of_q rhs) rows);
    }

  type outcome =
    | Opt of { o_z : S.t; o_stat : vstat array; o_basis : int array; o_xb : S.t array }
    | Infeas
    | Unbd

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
    (* [update_reduced] workspaces: [alpha] all zero and [seen] all false
       between calls *)
    alpha : S.t array;
    seen : bool array;
    touched : int array;
    mutable fact : F.fact;
    mutable z : S.t;
    mutable steps : int;
  }

  let flush_pricing st =
    if st.cfg.counters.c_price && !(st.priced) > 0 then
      Obs.add st.obs "lp.priced_columns" !(st.priced)

  let factor_basis ~ops ~obs pb basis =
    let fact = F.factor ~ops ~nrows:pb.pm ~cols:pb.pcols ~basis in
    Obs.incr obs "lp.refactorizations";
    Obs.add obs "lp.fill_nonzeros" (F.lu_nnz fact);
    fact

  let refactor st = st.fact <- factor_basis ~ops:st.ops ~obs:st.obs st.pb st.basis

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

  (* After a pivot with entering reduced cost [dq]: d_j -= dq alpha_rj
     for every nonbasic j, where alpha_rj = rho . A_j. Accumulates alpha
     only over the rows where rho is nonzero, in descending row order
     (the order [dot_col] sums a column in), and updates only the
     columns those rows reach: alpha is zero everywhere else. *)
  let update_reduced st (rho : S.t array) dq =
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
    for t = 0 to !nt - 1 do
      let j = touched.(t) in
      incr st.priced;
      let a = alpha.(j) in
      if not (S.is_zero a) then begin
        incr st.ops;
        st.d.(j) <- S.submul st.d.(j) dq a
      end;
      alpha.(j) <- S.zero;
      seen.(j) <- false
    done

  (* price every column once per phase: d_j = c_j - y . A_j; kept
     current across pivots by the post-pivot row update in run_primal *)
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
      if F.should_refactor st.fact ~eta_cap:st.cfg.eta_cap then refactor st
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
              if st.cfg.counters.c_flips then Obs.incr st.obs "lp.bound_flips";
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
                 tableau row r (covers the leaving column: its old d was
                 zero) *)
              update_reduced st (btran_unit st r) d;
              st.d.(q) <- S.zero;
              incr st.pivots;
              Obs.incr st.obs st.cfg.counters.c_pivots;
              if phase1 && st.cfg.counters.c_phase1 then
                Obs.incr st.obs "lp.phase1_pivots";
              if S.compare tstep st.cfg.dtol <= 0 then begin
                incr stalled;
                if st.cfg.counters.c_degen then Obs.incr st.obs "lp.degenerate_pivots";
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
    Opt { o_z = st.z; o_stat = st.stat; o_basis = st.basis; o_xb = st.xb }

  (* Dual simplex repairing primal feasibility from a dual-feasible
     basis after a bound change. Mirrors Lp.dual_repair; raises
     Warm_failed at the pivot cap, returns false when the LP is primal
     infeasible. *)
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
        let viol =
          let below = S.sub pb.plo.(k) st.xb.(p) in
          if S.compare below cfg.dtol > 0 then Some (below, true)
          else
            match st.hi.(k) with
            | Some u when S.compare (S.sub st.xb.(p) u) cfg.dtol > 0 ->
                Some (S.sub st.xb.(p) u, false)
            | _ -> None
        in
        match viol with
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
      | Some (r, below, _) -> (
          if !steps >= cap then raise Warm_failed;
          (* copied: [dual]'s btran reuses the result vector *)
          let rho = Array.copy (btran_unit st r) in
          let y = dual st in
          let best = ref None in
          for j = 0 to n - 1 do
            if st.enterable.(j) && st.stat.(j) <> Vbas then begin
              let arj = dot_col st rho j in
              if S.compare (S.abs arj) cfg.ptol > 0 then begin
                let eligible =
                  match (st.stat.(j), below) with
                  | Vlo, true -> S.compare arj S.zero < 0
                  | Vhi, true -> S.compare arj S.zero > 0
                  | Vlo, false -> S.compare arj S.zero > 0
                  | Vhi, false -> S.compare arj S.zero < 0
                  | Vbas, _ -> false
                in
                if eligible then begin
                  let d = S.sub st.cost.(j) (dot_col st y j) in
                  let ratio = S.div (S.abs d) (S.abs arj) in
                  match !best with
                  | Some (_, _, br) when S.compare br ratio <= 0 -> ()
                  | _ -> best := Some (j, d, ratio)
                end
              end
            end
          done;
          match !best with
          | None -> feasible := false (* dual unbounded: primal infeasible *)
          | Some (q, dq, _) ->
              Budget.tick st.budget;
              incr steps;
              let k = st.basis.(r) in
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
              Obs.incr st.obs st.cfg.counters.c_pivots)
    done;
    !feasible

  let solve_cold (cfg : S.t config) (pb : problem) (start : start) ~budget ~obs ~pivots ~ops =
    let m = pb.pm and n = pb.pn and part = start.st_art in
    let basis = Array.copy start.st_basis in
    let fact = factor_basis ~ops ~obs pb basis in
    let st =
      {
        pb;
        cfg;
        budget;
        obs;
        pivots;
        ops;
        stat = Array.copy start.st_stat;
        basis;
        xb = Array.map S.of_q start.st_xb;
        hi = Array.copy pb.phi;
        enterable = Array.init n (fun j -> not pb.pfixed.(j));
        cost = Array.make n S.zero;
        d = Array.make n S.zero;
        priced = ref 0;
        alpha = Array.make n S.zero;
        seen = Array.make n false;
        touched = Array.make n 0;
        fact;
        z = S.zero;
        steps = 0;
      }
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

  (* Warm start from per-column statuses against a problem without
     artificials: sparse refactorization of the snapshot basis,
     straight to phase 2 when still primal feasible, dual repair when
     only primal feasibility was lost. Raises Warm_failed whenever the
     snapshot cannot be reused. *)
  let solve_warm (cfg : S.t config) (pb : problem) ~(stat : vstat array) ~budget
      ~obs ~pivots ~ops =
    let m = pb.pm and n = pb.pn in
    if Array.length stat <> n then raise Warm_failed;
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
      {
        pb;
        cfg;
        budget;
        obs;
        pivots;
        ops;
        stat = Array.copy stat;
        basis;
        xb = Array.make m S.zero;
        hi = Array.copy pb.phi;
        enterable = Array.init n (fun j -> not pb.pfixed.(j));
        cost = Array.copy pb.pobj;
        d = Array.make n S.zero;
        priced = ref 0;
        alpha = Array.make n S.zero;
        seen = Array.make n false;
        touched = Array.make n 0;
        fact;
        z = S.zero;
        steps = 0;
      }
    in
    Fun.protect ~finally:(fun () -> flush_pricing st) @@ fun () ->
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
    let primal_feasible =
      let ok = ref true in
      for p = 0 to m - 1 do
        let k = st.basis.(p) in
        if S.compare (S.sub pb.plo.(k) st.xb.(p)) cfg.dtol > 0 then ok := false
        else
          match st.hi.(k) with
          | Some u when S.compare (S.sub st.xb.(p) u) cfg.dtol > 0 -> ok := false
          | _ -> ()
      done;
      !ok
    in
    let proceed =
      if primal_feasible then true
      else begin
        (* dual feasible? (the usual case: only bounds changed) *)
        let y = dual st in
        let dual_ok = ref true in
        for j = 0 to n - 1 do
          if st.enterable.(j) && st.stat.(j) <> Vbas then begin
            let d = S.sub st.cost.(j) (dot_col st y j) in
            match st.stat.(j) with
            | Vlo -> if S.compare d (S.neg cfg.dtol) < 0 then dual_ok := false
            | Vhi -> if S.compare d cfg.dtol > 0 then dual_ok := false
            | Vbas -> ()
          end
        done;
        if not !dual_ok then raise Warm_failed;
        dual_repair st
      end
    in
    if not proceed then Infeas
    else begin
      if cfg.counters.c_warm then Obs.incr obs "lp.warm_starts";
      compute_reduced st;
      match Obs.span obs "lp.phase2" (fun () -> run_primal st ~phase1:false) with
      | O_unbd -> Unbd
      | O_opt -> extract st
    end
end
