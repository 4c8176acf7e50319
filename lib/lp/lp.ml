module Q = Rational

type sense = Le | Ge | Eq
type objective_direction = Minimize | Maximize
type var = int

type row = { terms : (Q.t * var) list; sense : sense; rhs : Q.t }

(* The sparse basis algebra at Rational (the exact revised engine) and
   at float (the float engine's pivoting). *)
module RS = Sparse_simplex.Make (Scalar.Rat)
module FS = Sparse_simplex.Make (Scalar.Flt)

(* The revised engine's warm problem for a model: its first [c_rows]
   rows compiled into sparse columns, the row-wise copy and the rhs.
   Only the rows, variables and objective shape it; the bounds are
   re-read on every solve. *)
type compiled = {
  c_rows : int;
  c_pb : RS.problem;
  c_slack_of_row : int array; (* slack column of each row, -1 for Eq *)
}

(* Model columns live in growable arrays (doubling push) built once at
   add_var / add_constraint time, so solving never has to reverse or
   re-materialize them and var_name is O(1). *)
type model = {
  mutable names : string array;
  mutable lower : Q.t array;
  mutable upper : Q.t option array;
  mutable nvars : int;
  mutable rows : row array;
  mutable nrows : int;
  mutable obj_dir : objective_direction;
  mutable obj : (Q.t * var) list;
  (* built by the first warm or [?start] revised solve; dropped by
     [add_var] and [set_objective], grown by the rows added since *)
  mutable compiled : compiled option;
  (* what the last warm or [?start] revised solve left, when it ended
     optimal: a later one resumes from it (Sparse_simplex.solve_warm),
     whatever bounds moved since; cleared as each such solve starts and
     dropped with [compiled] *)
  mutable live : RS.optimum option;
}

module Basis = struct
  type status = Lower | Upper | Basic

  type t = {
    b_nvars : int;
    b_nrows : int;
    vstat : status array; (* structural columns *)
    sstat : status array; (* slack of each row; [Lower] for Eq rows *)
  }

  let make ~vstat ~sstat =
    {
      b_nvars = Array.length vstat;
      b_nrows = Array.length sstat;
      vstat = Array.copy vstat;
      sstat = Array.copy sstat;
    }
end

(* The three simplex engines, dispatched by one match in [solve]. *)
type engine = Revised | Dense | Float_certified

(* How the returned objective was established: [Exact] — every pivot ran
   in rational arithmetic; [Certified] — a float simplex found the basis
   and one exact refactorization proved it optimal; [Fallback] — float
   certification failed and the exact Revised engine re-solved cold. *)
type certification = Exact | Certified | Fallback

type solution = {
  objective : Q.t;
  var_values : Q.t array;
  sol_names : string array;
  sol_pivots : int;
  sol_cells : int; (* working-tableau area, rows * columns *)
  sol_basis : Basis.t option;
  sol_certification : certification;
}

type result = Optimal of solution | Infeasible | Unbounded

let dummy_row = { terms = []; sense = Eq; rhs = Q.zero }

let create () =
  {
    names = [||];
    lower = [||];
    upper = [||];
    nvars = 0;
    rows = [||];
    nrows = 0;
    obj_dir = Minimize;
    obj = [];
    compiled = None;
    live = None;
  }

let grow arr len dummy =
  if len < Array.length arr then arr
  else begin
    let arr' = Array.make (max 8 (2 * Array.length arr)) dummy in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let add_var ?(lower = Q.zero) ?upper m name =
  (match upper with
  | Some u when Q.compare u lower < 0 -> invalid_arg "Lp.add_var: upper < lower"
  | _ -> ());
  let v = m.nvars in
  m.names <- grow m.names v "";
  m.lower <- grow m.lower v Q.zero;
  m.upper <- grow m.upper v None;
  m.names.(v) <- name;
  m.lower.(v) <- lower;
  m.upper.(v) <- upper;
  m.nvars <- v + 1;
  m.compiled <- None;
  m.live <- None;
  v

let var_name m v =
  if v < 0 || v >= m.nvars then invalid_arg "Lp.var_name: unknown variable";
  m.names.(v)

let num_vars m = m.nvars
let num_constraints m = m.nrows

let set_bounds m v ~lower ~upper =
  if v < 0 || v >= m.nvars then invalid_arg "Lp.set_bounds: unknown variable";
  (match upper with
  | Some u when Q.compare u lower < 0 -> invalid_arg "Lp.set_bounds: upper < lower"
  | _ -> ());
  (* the live state stays: a resumed solve moves it to the new bounds *)
  m.lower.(v) <- lower;
  m.upper.(v) <- upper

(* Sum duplicate variables so the tableau sees each column once per row:
   the terms come out increasing by variable, with no zero coefficient.
   A list already in that form, as LP1's rows are, passes through. *)
let combine_terms terms =
  let rec normal prev = function
    | [] -> true
    | (c, v) :: rest -> v > prev && (not (Q.is_zero c)) && normal v rest
  in
  if normal (-1) terms then terms
  else
    let rec merge acc = function
      | [] -> List.rev acc
      | (c, v) :: rest -> (
          match acc with
          | (c', v') :: done_ when v' = v -> merge ((Q.add c' c, v) :: done_) rest
          | _ -> merge ((c, v) :: acc) rest)
    in
    List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) terms
    |> merge []
    |> List.filter (fun (c, _) -> not (Q.is_zero c))

let add_constraint m terms sense rhs =
  List.iter
    (fun (_, v) -> if v < 0 || v >= m.nvars then invalid_arg "Lp.add_constraint: unknown variable")
    terms;
  let r = m.nrows in
  m.rows <- grow m.rows r dummy_row;
  m.rows.(r) <- { terms = combine_terms terms; sense; rhs };
  m.nrows <- r + 1

let set_objective m dir terms =
  List.iter
    (fun (_, v) -> if v < 0 || v >= m.nvars then invalid_arg "Lp.set_objective: unknown variable")
    terms;
  m.obj_dir <- dir;
  m.obj <- combine_terms terms;
  m.compiled <- None;
  m.live <- None

(* Pricing rule: Dantzig (most negative reduced cost) with a fallback
   to Bland's rule after [Sparse_simplex.degen_threshold] consecutive
   degenerate pivots, or pure Bland. Exposed for the pivot-rule
   ablation. *)
type pivot_rule = Dantzig_with_fallback | Pure_bland

(* Minimization form shared by both engines. *)
let minimize_objective m =
  match m.obj_dir with Minimize -> m.obj | Maximize -> List.map (fun (c, v) -> (Q.neg c, v)) m.obj

let finish_objective m raw = match m.obj_dir with Minimize -> raw | Maximize -> Q.neg raw

(* ====================================================================== *)
(* Dense engine: two-phase primal simplex on a dense rational tableau     *)
(* with every upper bound expanded into an explicit Le row. Kept as the   *)
(* reference implementation for the Revised engine's observational-       *)
(* equivalence battery (prop_engines_agree, fuzz differential, e21).      *)
(* ====================================================================== *)

type tableau = {
  a : Q.t array array; (* nrows x (ncols + 1); last column = rhs *)
  mutable obj_row : Q.t array; (* length ncols *)
  mutable obj_val : Q.t;
  basis : int array; (* basic column of each row *)
  ncols : int;
  allowed : bool array; (* columns allowed to enter (artificials excluded in phase 2) *)
  mutable dcells : int; (* tableau cells actually updated by pivoting *)
}

let pivot tab ~prow ~pcol =
  let arr = tab.a in
  let n = tab.ncols in
  let cells = ref tab.dcells in
  let prow_arr = arr.(prow) in
  let pelem = prow_arr.(pcol) in
  if not (Q.equal pelem Q.one) then
    for j = 0 to n do
      if not (Q.is_zero prow_arr.(j)) then begin
        incr cells;
        prow_arr.(j) <- Q.div prow_arr.(j) pelem
      end
    done;
  Array.iteri
    (fun i row ->
      if i <> prow && not (Q.is_zero row.(pcol)) then begin
        let f = row.(pcol) in
        for j = 0 to n do
          if not (Q.is_zero prow_arr.(j)) then begin
            incr cells;
            row.(j) <- Q.sub row.(j) (Q.mul f prow_arr.(j))
          end
        done
      end)
    arr;
  let f = tab.obj_row.(pcol) in
  if not (Q.is_zero f) then begin
    for j = 0 to n - 1 do
      if not (Q.is_zero prow_arr.(j)) then begin
        incr cells;
        tab.obj_row.(j) <- Q.sub tab.obj_row.(j) (Q.mul f prow_arr.(j))
      end
    done;
    (* v' = v + r_q * theta, theta = normalized pivot-row rhs *)
    tab.obj_val <- Q.add tab.obj_val (Q.mul f prow_arr.(n))
  end;
  tab.dcells <- !cells;
  tab.basis.(prow) <- pcol

(* Entering column: Dantzig (most negative reduced cost) or Bland (first
   negative). Returns None at optimality. *)
let entering tab ~bland =
  let best = ref None in
  (try
     for j = 0 to tab.ncols - 1 do
       if tab.allowed.(j) && Q.compare tab.obj_row.(j) Q.zero < 0 then
         if bland then begin
           best := Some j;
           raise Exit
         end
         else
           match !best with
           | Some k when Q.compare tab.obj_row.(k) tab.obj_row.(j) <= 0 -> ()
           | _ -> best := Some j
     done
   with Exit -> ());
  !best

(* Leaving row by ratio test; ties broken by smallest basic variable index
   (Bland-compatible). Returns None when the column is unbounded below. *)
let leaving tab ~pcol =
  let m = Array.length tab.a in
  let n = tab.ncols in
  let best = ref None in
  for i = 0 to m - 1 do
    let aij = tab.a.(i).(pcol) in
    if Q.compare aij Q.zero > 0 then begin
      let ratio = Q.div tab.a.(i).(n) aij in
      match !best with
      | None -> best := Some (i, ratio)
      | Some (bi, br) ->
          let c = Q.compare ratio br in
          if c < 0 || (c = 0 && tab.basis.(i) < tab.basis.(bi)) then best := Some (i, ratio)
    end
  done;
  Option.map fst !best

type simplex_outcome = S_optimal | S_unbounded

let run_simplex ~rule ~phase1 ~budget ~obs ~pivots tab =
  let bland = ref (rule = Pure_bland) in
  let stalled = ref 0 in
  let outcome = ref None in
  while !outcome = None do
    match entering tab ~bland:!bland with
    | None -> outcome := Some S_optimal
    | Some pcol -> (
        match leaving tab ~pcol with
        | None -> outcome := Some S_unbounded
        | Some prow ->
            Budget.tick budget;
            let before = tab.obj_val in
            pivot tab ~prow ~pcol;
            incr pivots;
            Obs.incr obs "lp.pivots";
            if phase1 then Obs.incr obs "lp.phase1_pivots";
            if Q.equal before tab.obj_val then begin
              incr stalled;
              Obs.incr obs "lp.degenerate_pivots";
              if !stalled > Sparse_simplex.degen_threshold then bland := true
            end
            else stalled := 0)
  done;
  Option.get !outcome

let solve_dense ~rule ~budget ~obs m =
  let pivots = ref 0 in
  (* Shift variables by their lower bounds: work with z = x - l >= 0. *)
  let lower = m.lower and upper = m.upper in
  let rows0 = Array.to_list (Array.sub m.rows 0 m.nrows) in
  (* upper bounds become rows over z *)
  let upper_rows =
    List.concat
      (List.init m.nvars (fun v ->
           match upper.(v) with
           | None -> []
           | Some u -> [ { terms = [ (Q.one, v) ]; sense = Le; rhs = Q.sub u lower.(v) } ]))
  in
  let shift_row r =
    let shift = List.fold_left (fun acc (c, v) -> Q.add acc (Q.mul c lower.(v))) Q.zero r.terms in
    { r with rhs = Q.sub r.rhs shift }
  in
  let rows = List.map shift_row rows0 @ upper_rows in
  let nrows = List.length rows in
  (* objective over z, with constant offset for the lower-bound shift *)
  let minimize_obj = minimize_objective m in
  let obj_offset = List.fold_left (fun acc (c, v) -> Q.add acc (Q.mul c lower.(v))) Q.zero minimize_obj in
  (* columns: structural z (nvars) | slacks (one per Le/Ge row) | artificials (one per row) *)
  let nslack = List.fold_left (fun acc r -> match r.sense with Eq -> acc | Le | Ge -> acc + 1) 0 rows in
  let ncols = m.nvars + nslack + nrows in
  let a = Array.init nrows (fun _ -> Array.make (ncols + 1) Q.zero) in
  let basis = Array.make nrows 0 in
  let allowed = Array.make ncols true in
  let slack_idx = ref m.nvars in
  List.iteri
    (fun i r ->
      let neg = Q.compare r.rhs Q.zero < 0 in
      let put c v = a.(i).(v) <- Q.add a.(i).(v) (if neg then Q.neg c else c) in
      List.iter (fun (c, v) -> put c v) r.terms;
      (match r.sense with
      | Le ->
          put Q.one !slack_idx;
          incr slack_idx
      | Ge ->
          put Q.minus_one !slack_idx;
          incr slack_idx
      | Eq -> ());
      a.(i).(ncols) <- Q.abs r.rhs;
      (* artificial variable for this row *)
      let art = m.nvars + nslack + i in
      a.(i).(art) <- Q.one;
      basis.(i) <- art)
    rows;
  (* Phase 1: minimize sum of artificials. Canonical reduced costs with the
     artificial basis: r_j = -sum_i a_ij for structural/slack columns. *)
  let obj_row = Array.make ncols Q.zero in
  for j = 0 to m.nvars + nslack - 1 do
    let s = ref Q.zero in
    for i = 0 to nrows - 1 do
      s := Q.add !s a.(i).(j)
    done;
    obj_row.(j) <- Q.neg !s
  done;
  let rhs_sum = ref Q.zero in
  for i = 0 to nrows - 1 do
    rhs_sum := Q.add !rhs_sum a.(i).(ncols)
  done;
  let tab = { a; obj_row; obj_val = !rhs_sum; basis; ncols; allowed; dcells = 0 } in
  match Obs.span obs "lp.phase1" (fun () -> run_simplex ~rule ~phase1:true ~budget ~obs ~pivots tab) with
  | S_unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
  | S_optimal ->
      if Q.compare tab.obj_val Q.zero > 0 then begin
        Obs.add obs "lp.exact_cells" tab.dcells;
        Infeasible
      end
      else begin
        (* Drive remaining artificials out of the basis where possible. *)
        let art_start = m.nvars + nslack in
        for i = 0 to nrows - 1 do
          if tab.basis.(i) >= art_start then begin
            let found = ref None in
            for j = 0 to art_start - 1 do
              if !found = None && not (Q.is_zero tab.a.(i).(j)) then found := Some j
            done;
            match !found with
            | Some j -> pivot tab ~prow:i ~pcol:j
            | None -> () (* redundant row: all-zero; harmless to keep *)
          end
        done;
        (* Forbid artificials from re-entering. *)
        for j = art_start to ncols - 1 do
          tab.allowed.(j) <- false
        done;
        (* Phase 2: original objective. Recompute reduced costs w.r.t. the
           current basis: r_j = c_j - sum_i c_B(i) * a_ij. *)
        let c = Array.make ncols Q.zero in
        List.iter (fun (coef, v) -> c.(v) <- Q.add c.(v) coef) minimize_obj;
        for j = 0 to ncols - 1 do
          let s = ref c.(j) in
          for i = 0 to nrows - 1 do
            let cb = if tab.basis.(i) < ncols then c.(tab.basis.(i)) else Q.zero in
            if not (Q.is_zero cb) then s := Q.sub !s (Q.mul cb tab.a.(i).(j))
          done;
          tab.obj_row.(j) <- !s
        done;
        let v = ref Q.zero in
        for i = 0 to nrows - 1 do
          let cb = c.(tab.basis.(i)) in
          if not (Q.is_zero cb) then v := Q.add !v (Q.mul cb tab.a.(i).(ncols))
        done;
        tab.obj_val <- !v;
        match Obs.span obs "lp.phase2" (fun () -> run_simplex ~rule ~phase1:false ~budget ~obs ~pivots tab) with
        | S_unbounded ->
            Obs.add obs "lp.exact_cells" tab.dcells;
            Unbounded
        | S_optimal ->
            Obs.add obs "lp.exact_cells" tab.dcells;
            let z = Array.make m.nvars Q.zero in
            Array.iteri (fun i bv -> if bv < m.nvars then z.(bv) <- tab.a.(i).(ncols)) tab.basis;
            let x = Array.init m.nvars (fun i -> Q.add z.(i) lower.(i)) in
            let objective = finish_objective m (Q.add tab.obj_val obj_offset) in
            Optimal
              {
                objective;
                var_values = x;
                sol_names = Array.sub m.names 0 m.nvars;
                sol_pivots = !pivots;
                sol_cells = tab.dcells;
                sol_basis = None;
                sol_certification = Exact;
              }
      end

(* Residual of row [i] with every structural variable at its initial
   status value. *)
let row_residual values r =
  List.fold_left (fun acc (c, v) -> Q.sub acc (Q.mul c values.(v))) r.rhs r.terms

(* ====================================================================== *)
(* Sparse basis algebra: the exact revised engine and the float engine's *)
(* pivoting both run on the shared sparse LU + eta driver                *)
(* (Sparse_simplex over the Slu kernels), instantiated at Rational and   *)
(* at float. The constraint matrix is held once as sparse columns; each  *)
(* (re)factorization is a sparse LU with a fill-minimizing static        *)
(* ordering, and each pivot appends a product-form eta, refactorizing    *)
(* when the eta file outgrows the factors. RS and FS are declared with  *)
(* the model type above, which keeps the revised engine's compiled form. *)
(* ====================================================================== *)

let vstat_of_status = function
  | Basis.Lower -> Sparse_simplex.Vlo
  | Basis.Upper -> Sparse_simplex.Vhi
  | Basis.Basic -> Sparse_simplex.Vbas

let status_of_vstat = function
  | Sparse_simplex.Vlo -> Basis.Lower
  | Sparse_simplex.Vhi -> Basis.Upper
  | Sparse_simplex.Vbas -> Basis.Basic

(* lower = upper: the column never enters *)
let is_fixed m v = match m.upper.(v) with Some u -> Q.equal u m.lower.(v) | None -> false

(* Row [r] as the sparse engines take it: its columns, ascending, and
   their coefficients. Its terms are already increasing and zero-free
   ([combine_terms]); its slack column [slack] ([-1] for an Eq row)
   comes last. *)
let row_arrays r ~slack =
  let nt = List.length r.terms in
  let k = if slack < 0 then nt else nt + 1 in
  let cols = Array.make k slack and vals = Array.make k Q.one in
  List.iteri
    (fun idx (c, v) ->
      cols.(idx) <- v;
      vals.(idx) <- c)
    r.terms;
  if r.sense = Ge then vals.(nt) <- Q.minus_one;
  (cols, vals)

(* The sparse instance description shared by both scalar
   instantiations, without artificials: structural columns, then one
   slack per Le/Ge row in row order. Returns the spec and the slack
   column of each row (-1 for Eq rows). *)
let sparse_spec m =
  let nv = m.nvars in
  let slack_of_row = Array.make m.nrows (-1) in
  let row_cols = Array.make m.nrows [||] and row_vals = Array.make m.nrows [||] in
  let n = ref nv in
  for i = 0 to m.nrows - 1 do
    let r = m.rows.(i) in
    if r.sense <> Eq then begin
      slack_of_row.(i) <- !n;
      incr n
    end;
    let cols, vals = row_arrays r ~slack:slack_of_row.(i) in
    row_cols.(i) <- cols;
    row_vals.(i) <- vals
  done;
  let n = !n in
  let lo = Array.make n Q.zero in
  let hi = Array.make n None in
  let obj = Array.make n Q.zero in
  let fixed = Array.make n false in
  for v = 0 to nv - 1 do
    lo.(v) <- m.lower.(v);
    hi.(v) <- m.upper.(v);
    fixed.(v) <- is_fixed m v
  done;
  List.iter (fun (c, v) -> obj.(v) <- Q.add obj.(v) c) (minimize_objective m);
  ( {
      Sparse_simplex.sp_nrows = m.nrows;
      sp_ncols = n;
      sp_row_cols = row_cols;
      sp_row_vals = row_vals;
      sp_lo = lo;
      sp_hi = hi;
      sp_obj = obj;
      sp_fixed = fixed;
      sp_rhs = Array.init m.nrows (fun i -> m.rows.(i).rhs);
    },
    slack_of_row )

(* [sparse_spec] plus the cold start: one artificial per row whose slack
   cannot start basic at the lower bounds, appended in row order.
   Artificial columns are [sign(residual) * e_i], so the initial basic
   value is |residual| and no row needs a sign flip. *)
let cold_spec m =
  let spec, slack_of_row = sparse_spec m in
  let n0 = spec.Sparse_simplex.sp_ncols in
  let row_cols = spec.Sparse_simplex.sp_row_cols and row_vals = spec.Sparse_simplex.sp_row_vals in
  let init_val = Array.init m.nvars (fun v -> m.lower.(v)) in
  let stat = ref [] in
  let basis = Array.make m.nrows (-1) in
  let xb = Array.make m.nrows Q.zero in
  let nart = ref 0 in
  for i = 0 to m.nrows - 1 do
    let r = m.rows.(i) in
    let residual = row_residual init_val r in
    let need =
      match r.sense with
      | Le -> Q.compare residual Q.zero < 0
      | Ge -> Q.compare residual Q.zero > 0
      | Eq -> true
    in
    if need then begin
      let sgn = if Q.compare residual Q.zero < 0 then Q.minus_one else Q.one in
      row_cols.(i) <- Array.append row_cols.(i) [| n0 + !nart |];
      row_vals.(i) <- Array.append row_vals.(i) [| sgn |];
      basis.(i) <- n0 + !nart;
      xb.(i) <- Q.abs residual;
      incr nart
    end
    else begin
      (* a Le or Ge row: its slack starts basic *)
      basis.(i) <- slack_of_row.(i);
      stat := slack_of_row.(i) :: !stat;
      xb.(i) <- (match r.sense with Ge -> Q.neg residual | _ -> residual)
    end
  done;
  let nart = !nart in
  let n = n0 + nart in
  let st_stat = Array.make n Sparse_simplex.Vlo in
  List.iter (fun j -> st_stat.(j) <- Sparse_simplex.Vbas) !stat;
  for j = n0 to n - 1 do
    st_stat.(j) <- Sparse_simplex.Vbas
  done;
  let extend a x = Array.append a (Array.make nart x) in
  ( {
      spec with
      Sparse_simplex.sp_ncols = n;
      sp_lo = extend spec.Sparse_simplex.sp_lo Q.zero;
      sp_hi = extend spec.Sparse_simplex.sp_hi None;
      sp_obj = extend spec.Sparse_simplex.sp_obj Q.zero;
      sp_fixed = extend spec.Sparse_simplex.sp_fixed false;
    },
    { Sparse_simplex.st_art = n0; st_stat; st_basis = basis; st_xb = xb },
    slack_of_row )

(* [reuse]: the warm basis is an earlier optimum, so a successful
   restore counts in [lp.warm_starts]; a caller's [?start] does not. *)
let scfg ~rule ~reuse = { Sparse_simplex.bland_always = rule = Pure_bland; count_warm = reuse }

(* Map a sparse driver outcome back to the solver result; [x] comes from
   the statuses (nonbasic at a bound) and the final basic values. *)
let extract_sparse ~m ~slack_of_row ~pivots ~ops outcome =
  match outcome with
  | RS.Infeas -> Infeasible
  | RS.Unbd -> Unbounded
  | RS.Opt { o_z; o_stat; o_basis; o_xb; _ } ->
      let nv = m.nvars in
      let x = Array.make nv Q.zero in
      for v = 0 to nv - 1 do
        if o_stat.(v) <> Sparse_simplex.Vbas then
          x.(v) <-
            (match o_stat.(v) with
            | Sparse_simplex.Vhi -> (
                match m.upper.(v) with Some u -> u | None -> m.lower.(v))
            | _ -> m.lower.(v))
      done;
      for p = 0 to m.nrows - 1 do
        if o_basis.(p) < nv then x.(o_basis.(p)) <- o_xb.(p)
      done;
      let basis =
        {
          Basis.b_nvars = nv;
          b_nrows = m.nrows;
          vstat = Array.init nv (fun v -> status_of_vstat o_stat.(v));
          sstat =
            Array.init m.nrows (fun i ->
                if slack_of_row.(i) < 0 then Basis.Lower
                else status_of_vstat o_stat.(slack_of_row.(i)));
        }
      in
      Optimal
        {
          objective = finish_objective m o_z;
          var_values = x;
          sol_names = Array.sub m.names 0 nv;
          sol_pivots = !pivots;
          sol_cells = !ops;
          sol_basis = Some basis;
          sol_certification = Exact;
        }

let solve_sparse_cold ~rule ~budget ~obs ~pivots m =
  let spec, start, slack_of_row = cold_spec m in
  let pb = RS.of_spec spec in
  let ops = ref 0 in
  let outcome = RS.solve_cold (scfg ~rule ~reuse:false) pb start ~budget ~obs ~pivots ~ops in
  Obs.add obs "lp.exact_cells" !ops;
  extract_sparse ~m ~slack_of_row ~pivots ~ops outcome

(* Per-column warm statuses from a basis snapshot, sanitized against the
   current bounds exactly as the revised warm start does. *)
let sparse_warm_stat m ~slack_of_row ~ncols (w : Basis.t) =
  let stat = Array.make ncols Sparse_simplex.Vlo in
  for v = 0 to m.nvars - 1 do
    stat.(v) <-
      (match w.Basis.vstat.(v) with
      | Basis.Upper when m.upper.(v) = None -> Sparse_simplex.Vlo
      | s -> vstat_of_status s)
  done;
  for i = 0 to m.nrows - 1 do
    if slack_of_row.(i) >= 0 then
      stat.(slack_of_row.(i)) <-
        (match w.Basis.sstat.(i) with
        | Basis.Upper -> Sparse_simplex.Vlo (* slacks have no upper bound *)
        | s -> vstat_of_status s)
  done;
  stat

(* The model's compiled warm problem, brought up to date: compiled on
   first use, grown by the rows added since, its structural bounds
   refreshed in place. *)
let compile m =
  let c =
    match m.compiled with
    | Some c when c.c_rows = m.nrows -> c
    | Some c ->
        let n = ref c.c_pb.RS.pn in
        let slack_of_row = Array.make (m.nrows - c.c_rows) (-1) in
        let rows =
          Array.init (m.nrows - c.c_rows) (fun k ->
              let r = m.rows.(c.c_rows + k) in
              if r.sense <> Eq then begin
                slack_of_row.(k) <- !n;
                incr n
              end;
              let cols, vals = row_arrays r ~slack:slack_of_row.(k) in
              (cols, vals, r.rhs))
        in
        {
          c_rows = m.nrows;
          c_pb = RS.add_rows c.c_pb ~ncols:!n rows;
          c_slack_of_row = Array.append c.c_slack_of_row slack_of_row;
        }
    | None ->
        let spec, slack_of_row = sparse_spec m in
        { c_rows = m.nrows; c_pb = RS.of_spec spec; c_slack_of_row = slack_of_row }
  in
  m.compiled <- Some c;
  let pb = c.c_pb in
  for v = 0 to m.nvars - 1 do
    pb.RS.plo.(v) <- m.lower.(v);
    pb.RS.phi.(v) <- m.upper.(v);
    pb.RS.pfixed.(v) <- is_fixed m v
  done;
  c

(* The model's live state is taken as the solve starts and stored
   again only when it ends optimal: an abort, a fallback to phase 1 or
   an infeasible or unbounded answer leaves none. *)
let solve_sparse_warm ~rule ~reuse ~budget ~obs ~pivots m (w : Basis.t) =
  let from = m.live in
  m.live <- None;
  if w.Basis.b_nvars <> m.nvars || w.Basis.b_nrows <> m.nrows then raise RS.Warm_failed;
  let { c_pb = pb; c_slack_of_row = slack_of_row; _ } = compile m in
  let stat = sparse_warm_stat m ~slack_of_row ~ncols:pb.RS.pn w in
  let ops = ref 0 in
  let outcome =
    RS.solve_warm ?from (scfg ~rule ~reuse) pb ~stat ~budget ~obs ~pivots ~ops
  in
  Obs.add obs "lp.exact_cells" !ops;
  (match outcome with RS.Opt o -> m.live <- Some o | RS.Infeas | RS.Unbd -> ());
  extract_sparse ~m ~slack_of_row ~pivots ~ops outcome

(* The revised engine: warm from [warm] when given, cold when there is
   none or the basis cannot be used. *)
let solve_revised ~rule ~warm ~reuse ~budget ~obs m =
  let pivots = ref 0 in
  match warm with
  | None -> solve_sparse_cold ~rule ~budget ~obs ~pivots m
  | Some w -> (
      try solve_sparse_warm ~rule ~reuse ~budget ~obs ~pivots m w
      with RS.Warm_failed -> solve_sparse_cold ~rule ~budget ~obs ~pivots m)

(* ====================================================================== *)
(* Float engine: double-precision bounded-variable simplex that finds a  *)
(* candidate basis fast, then one exact rational refactorization of that *)
(* basis proves (or refutes) primal feasibility, dual feasibility and    *)
(* the objective. Certification succeeding, the solution extracted from  *)
(* the exact refactorization is bit-identical to what the exact engines  *)
(* return; certification failing — wrong vertex, singular basis, pivot   *)
(* cap, or a float infeasible/unbounded claim we do not certify — the    *)
(* solve falls back to the exact Revised engine, so results never depend *)
(* on floating point. *)
(* ====================================================================== *)

(* the float phase aborts (pivot cap, unusable tableau) and requests the
   exact fallback without attempting certification *)
exception Float_gave_up

(* What the float phase claims about the model. Only [F_opt] carries
   enough structure (the final statuses) to be certified; the other two
   claims always take the exact fallback. *)
type float_claim =
  | F_opt of Basis.status array * Basis.status array (* vstat, sstat *)
  | F_infeas
  | F_unbd

(* Float phase on the sparse driver: runs at double precision over the
   same column layout the exact engines use. [warm] restores a basis
   snapshot (sparse refactorization, then dual repair or phase 2); any
   warm-start trouble retries cold — only the final claim matters, since
   certification decides what it is worth. A refactorization that finds
   the basis singular at double precision counts as such trouble: warm,
   it retries cold; cold, the float phase gives up. *)
let solve_float ~rule ~warm ~reuse ~budget ~obs ~fpivots ~fops m =
  let claim_of_outcome slack_of_row = function
    | FS.Infeas -> F_infeas
    | FS.Unbd -> F_unbd
    | FS.Opt { o_stat; _ } ->
        let vstat = Array.init m.nvars (fun v -> status_of_vstat o_stat.(v)) in
        let sstat =
          Array.init m.nrows (fun i ->
              if slack_of_row.(i) < 0 then Basis.Lower
              else status_of_vstat o_stat.(slack_of_row.(i)))
        in
        F_opt (vstat, sstat)
  in
  let cold () =
    let spec, start, slack_of_row = cold_spec m in
    let pb = FS.of_spec spec in
    match FS.solve_cold (scfg ~rule ~reuse:false) pb start ~budget ~obs ~pivots:fpivots ~ops:fops with
    | outcome -> claim_of_outcome slack_of_row outcome
    | exception (FS.Gave_up | FS.F.Singular) -> raise Float_gave_up
  in
  match warm with
  | None -> cold ()
  | Some (w : Basis.t) ->
      if w.Basis.b_nvars <> m.nvars || w.Basis.b_nrows <> m.nrows then cold ()
      else begin
        let spec, slack_of_row = sparse_spec m in
        let pb = FS.of_spec spec in
        let stat = sparse_warm_stat m ~slack_of_row ~ncols:spec.Sparse_simplex.sp_ncols w in
        match FS.solve_warm (scfg ~rule ~reuse) pb ~stat ~budget ~obs ~pivots:fpivots ~ops:fops with
        | FS.Opt _ as o -> claim_of_outcome slack_of_row o
        (* infeasible/unbounded claims out of a warm start are not worth
           certifying against: retry from scratch before deciding *)
        | FS.Infeas | FS.Unbd -> cold ()
        | exception (FS.Warm_failed | FS.Gave_up | FS.F.Singular) -> cold ()
      end

(* ------------------------------------------------- exact certification -- *)

exception Certify_failed

(* Certify the float engine's final statuses exactly: one sparse
   rational LU of the claimed basis B (shared by the primal solve
   B x_B = b - N x_N, via FTRAN, and the dual solve B^T y = c_B, via
   BTRAN), check every basic value against its bounds and every nonbasic
   reduced cost against its status, and recompute the objective from the
   certified vertex. Cost is counted in [ops] (rational
   multiplications/divisions actually performed — the e23 work metric);
   raises [Certify_failed] on any violation. *)
let certify ~ops m ~vstat ~sstat =
  let nv = m.nvars and nr = m.nrows in
  let mul a b =
    incr ops;
    Q.mul a b
  in
  (* basic columns, structural first then row slacks, both in index order *)
  let cols =
    let acc = ref [] in
    for i = nr - 1 downto 0 do
      if sstat.(i) = Basis.Basic then acc := `Slack i :: !acc
    done;
    for v = nv - 1 downto 0 do
      if vstat.(v) = Basis.Basic then acc := `Var v :: !acc
    done;
    Array.of_list !acc
  in
  if Array.length cols <> nr then raise Certify_failed;
  let xn v =
    match vstat.(v) with
    | Basis.Lower -> m.lower.(v)
    | Basis.Upper -> ( match m.upper.(v) with Some u -> u | None -> raise Certify_failed)
    | Basis.Basic -> assert false
  in
  let vcol = Array.make nv (-1) and scol = Array.make nr (-1) in
  Array.iteri
    (fun k -> function `Var v -> vcol.(v) <- k | `Slack i -> scol.(i) <- k)
    cols;
  let slack_coeff i =
    match m.rows.(i).sense with Le -> Q.one | Ge -> Q.minus_one | Eq -> raise Certify_failed
  in
  (* one sparse LU of the claimed basis, position k = basic column k *)
  let fact =
    let entries = Array.make nr [] in
    for i = nr - 1 downto 0 do
      List.iter
        (fun (c, v) ->
          if vcol.(v) >= 0 then entries.(vcol.(v)) <- (i, c) :: entries.(vcol.(v)))
        m.rows.(i).terms;
      if scol.(i) >= 0 then entries.(scol.(i)) <- (i, slack_coeff i) :: entries.(scol.(i))
    done;
    let bcols = Array.map RS.F.col_of_list entries in
    try RS.F.factor ~ops ~nrows:nr ~cols:bcols ~basis:(Array.init nr (fun k -> k))
    with RS.F.Singular -> raise Certify_failed
  in
  (* primal: B x_B = b - N x_N *)
  let rhs =
    Array.init nr (fun i ->
        List.fold_left
          (fun acc (c, v) ->
            if vstat.(v) = Basis.Basic then acc
            else
              let xv = xn v in
              if Q.is_zero xv then acc else Q.sub acc (mul c xv))
          m.rows.(i).rhs m.rows.(i).terms)
  in
  let xb = (RS.F.ftran fact (RS.F.col_of_array rhs)).RS.F.x in
  Array.iteri
    (fun k col ->
      let x = xb.(k) in
      match col with
      | `Var v ->
          if Q.compare x m.lower.(v) < 0 then raise Certify_failed;
          (match m.upper.(v) with
          | Some u when Q.compare x u > 0 -> raise Certify_failed
          | _ -> ())
      | `Slack _ -> if Q.compare x Q.zero < 0 then raise Certify_failed)
    cols;
  (* dual: B^T y = c_B, then d_j = c_j - y . A_j for every nonbasic j *)
  let minimize_obj = minimize_objective m in
  let c = Array.make nv Q.zero in
  List.iter (fun (coef, v) -> c.(v) <- Q.add c.(v) coef) minimize_obj;
  let cb =
    Array.map (function `Var v -> c.(v) | `Slack _ -> Q.zero) cols
  in
  let y = RS.F.btran fact (RS.F.col_of_array cb) in
  let u = Array.make nv Q.zero in
  for i = 0 to nr - 1 do
    if not (Q.is_zero y.(i)) then
      List.iter
        (fun (coef, v) ->
          if not (Q.is_zero coef) then u.(v) <- Q.add u.(v) (mul coef y.(i)))
        m.rows.(i).terms
  done;
  for v = 0 to nv - 1 do
    if vstat.(v) <> Basis.Basic then begin
      let fixed = match m.upper.(v) with Some up -> Q.equal up m.lower.(v) | None -> false in
      if not fixed then begin
        let d = Q.sub c.(v) u.(v) in
        match vstat.(v) with
        | Basis.Lower -> if Q.compare d Q.zero < 0 then raise Certify_failed
        | Basis.Upper -> if Q.compare d Q.zero > 0 then raise Certify_failed
        | Basis.Basic -> ()
      end
    end
  done;
  for i = 0 to nr - 1 do
    match m.rows.(i).sense with
    | Eq -> ()
    | Le | Ge ->
        if sstat.(i) <> Basis.Basic then begin
          (* slack cost 0, column +/- e_i: d = -/+ y_i must be >= 0 at Lower *)
          if sstat.(i) <> Basis.Lower then raise Certify_failed;
          let sgn = match m.rows.(i).sense with Le -> -1 | _ -> 1 in
          if sgn * Q.compare y.(i) Q.zero < 0 then raise Certify_failed
        end
  done;
  (* certified vertex and its exact objective *)
  let x = Array.init nv (fun v -> if vstat.(v) = Basis.Basic then Q.zero else xn v) in
  Array.iteri (fun k col -> match col with `Var v -> x.(v) <- xb.(k) | `Slack _ -> ()) cols;
  let z =
    List.fold_left
      (fun acc (coef, v) -> if Q.is_zero x.(v) then acc else Q.add acc (mul coef x.(v)))
      Q.zero minimize_obj
  in
  let basis =
    { Basis.b_nvars = nv; b_nrows = nr; vstat = Array.copy vstat; sstat = Array.copy sstat }
  in
  (finish_objective m z, x, basis)

let solve_float_certified ~rule ~warm ~reuse ~budget ~obs m =
  let fallback () =
    Obs.incr obs "lp.fallbacks";
    let pivots = ref 0 in
    match solve_sparse_cold ~rule ~budget ~obs ~pivots m with
    | Optimal s -> Optimal { s with sol_certification = Fallback }
    | r -> r
  in
  let fpivots = ref 0 in
  let fops = ref 0 in
  match solve_float ~rule ~warm ~reuse ~budget ~obs ~fpivots ~fops m with
  | exception Float_gave_up -> fallback ()
  | F_infeas | F_unbd -> fallback () (* claims we do not certify: re-solve exactly *)
  | F_opt (vstat, sstat) -> (
      let ops = ref 0 in
      match certify ~ops m ~vstat ~sstat with
      | objective, x, basis ->
          Obs.add obs "lp.certify_ops" !ops;
          Obs.add obs "lp.exact_cells" !ops;
          Obs.incr obs "lp.certify_ok";
          Optimal
            {
              objective;
              var_values = x;
              sol_names = Array.sub m.names 0 m.nvars;
              sol_pivots = !fpivots;
              sol_cells = !fops + !ops;
              sol_basis = Some basis;
              sol_certification = Certified;
            }
      | exception Certify_failed ->
          Obs.add obs "lp.certify_ops" !ops;
          Obs.add obs "lp.exact_cells" !ops;
          Obs.incr obs "lp.certify_fail";
          fallback ())

let solve ?(rule = Dantzig_with_fallback) ?(engine = Revised) ?warm ?start ?budget
    ?(obs = Obs.null) m =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  Obs.incr obs "lp.solves";
  (* an earlier optimum takes precedence; [start] only replaces phase 1 *)
  let warm, reuse = match warm with Some _ -> (warm, true) | None -> (start, false) in
  match engine with
  | Revised -> solve_revised ~rule ~warm ~reuse ~budget ~obs m
  | Dense -> solve_dense ~rule ~budget ~obs m
  | Float_certified -> solve_float_certified ~rule ~warm ~reuse ~budget ~obs m

let objective_value s = s.objective
let value s v = s.var_values.(v)
let values s = Array.to_list (Array.mapi (fun i n -> (n, s.var_values.(i))) s.sol_names)
let pivots s = s.sol_pivots
let tableau_cells s = s.sol_cells
let basis s = s.sol_basis
let certification s = s.sol_certification
