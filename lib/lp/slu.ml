(* Sparse LU basis factorization with product-form eta updates.

   The basis B is a selection of columns from a compressed sparse column
   matrix. [factor] computes P_r B P_c = L U by left-looking elimination
   with a static Markowitz-style ordering: columns are processed
   cheapest-first (fewest nonzeros), and within a column the pivot row is
   the stability-acceptable candidate with the fewest static nonzeros in
   the basis (ties to the smallest row index). Each simplex basis change
   is appended to an eta file (product-form inverse): B' = B·E where E is
   the identity with column [pos] replaced by w = B^-1 a_q, so
   B'^-1 = E^-1 B^-1.

   Coordinate spaces: right-hand sides and dual vectors live in original
   ROW space; basic-variable coefficient vectors live in POSITION space
   (index p into the caller's basis array). Internally the factors use a
   stage space (elimination order k) with maps [prow] (stage -> row) and
   [cpos] (stage -> basis position); callers never see stages.

   There is one solve kernel per direction. [ftran] is hypersparse: it
   visits only the stages reachable from its right-hand side's rows and
   returns the result's nonzero positions, so a pivot column costs what
   it touches rather than O(m). [btran] keeps pull-form loops over every
   stage. Both work in workspace arrays owned by the factorization, which
   are all-zero between calls, and write their result into a reused
   vector of the factorization: neither allocates per call.

   Every scalar multiply/divide performed is tallied into the [ops] ref
   supplied at factorization time — this is the "touched cells" measure
   behind the solution's [sol_cells] and the work ratios [test_lp]
   checks. A later solve that takes the factors over points [ops] at
   its own ref, so each solve counts the work it does. *)

module Make (S : Scalar.S) = struct
  (* a sparse matrix column: parallel (row index, value) arrays *)
  type col = { rows : int array; vals : S.t array }

  let col_of_list entries =
    let entries = List.filter (fun (_, v) -> not (S.is_zero v)) entries in
    let n = List.length entries in
    let rows = Array.make n 0 and vals = Array.make n S.zero in
    List.iteri
      (fun k (r, v) ->
        rows.(k) <- r;
        vals.(k) <- v)
      entries;
    { rows; vals }

  let col_nnz c = Array.length c.rows

  type eta = {
    e_pos : int;                  (* basis position replaced *)
    e_piv : S.t;                  (* w at that position *)
    e_rows : int array;           (* other positions with nonzero w *)
    e_vals : S.t array;
  }

  (* A sparse vector in a dense carrier: [x] is zero outside
     [nz.(0 .. nnz - 1)], its nonzero positions in ascending order. *)
  type sparse = { x : S.t array; nz : int array; mutable nnz : int }

  type fact = {
    m : int;
    mutable ops : int ref;        (* the solve using the factors *)
    prow : int array;             (* stage -> original row *)
    stage_of_row : int array;
    cpos : int array;             (* stage -> basis position *)
    lcols : (int array * S.t array) array;
        (* unit-lower column per stage, entries indexed by original row *)
    ucols : (int array * S.t array) array;
        (* strict-upper column per stage, entries indexed by stage *)
    udiag : S.t array;
    lu_nnz : int;
    mutable etas : eta array;     (* insertion order; grown by doubling *)
    mutable eta_count : int;
    mutable eta_nnz : int;
    (* solve workspaces: [fw] and [bx] are all zero, [reached] and
       [marked] all false between calls; [heap], [order] and [bw] are
       written before they are read *)
    fw : S.t array;               (* ftran, row space *)
    reached : bool array;         (* ftran, stage space *)
    heap : int array;             (* ftran, stages or positions *)
    order : int array;            (* ftran, reached stages *)
    marked : bool array;          (* ftran, position space *)
    bx : S.t array;               (* btran, position space *)
    bw : S.t array;               (* btran, stage space *)
    (* results, valid until the next call of the same kernel *)
    fout : sparse;                (* ftran, position space *)
    by : S.t array;               (* btran, row space *)
  }

  exception Singular

  (* [factor ~ops ~nrows ~cols ~basis] factorizes the matrix whose
     position-p column is [cols.(basis.(p))]. Raises Singular. *)
  let factor ~ops ~nrows ~(cols : col array) ~(basis : int array) =
    let m = nrows in
    if Array.length basis <> m then invalid_arg "Slu.factor: basis size";
    (* static column order: fewest nonzeros first, stable on position *)
    let order = Array.init m (fun p -> p) in
    let nnz p = col_nnz cols.(basis.(p)) in
    Array.sort
      (fun a b ->
        let c = compare (nnz a) (nnz b) in
        if c <> 0 then c else compare a b)
      order;
    (* static row counts within the basis, for Markowitz tie-breaking *)
    let rownnz = Array.make m 0 in
    Array.iter
      (fun cid ->
        let c = cols.(cid) in
        Array.iter (fun r -> rownnz.(r) <- rownnz.(r) + 1) c.rows)
      (Array.map (fun p -> basis.(p)) order);
    let pivoted = Array.make m false in
    let stage_of_row = Array.make m (-1) in
    let prow = Array.make m (-1) in
    let cpos = Array.make m (-1) in
    let lcols = Array.make m ([||], [||]) in
    let ucols = Array.make m ([||], [||]) in
    let udiag = Array.make m S.zero in
    let lu_nnz = ref 0 in
    (* elimination scratch: the column being eliminated, scattered over
       rows, and which rows it touches; both are cleared after each
       column *)
    let work = Array.make m S.zero and intab = Array.make m false in
    let touched = Array.make m 0 in
    let ntouch = ref 0 in
    let clear () =
      for t = 0 to !ntouch - 1 do
        let r = touched.(t) in
        work.(r) <- S.zero;
        intab.(r) <- false
      done;
      ntouch := 0
    in
    for k = 0 to m - 1 do
      let p = order.(k) in
      let c = cols.(basis.(p)) in
      (* scatter the column into the dense workspace *)
      for idx = 0 to Array.length c.rows - 1 do
        let r = c.rows.(idx) in
        work.(r) <- c.vals.(idx);
        if not intab.(r) then begin
          intab.(r) <- true;
          touched.(!ntouch) <- r;
          incr ntouch
        end
      done;
      (* left-looking: eliminate against finished stages in order *)
      for j = 0 to k - 1 do
        let f = work.(prow.(j)) in
        if not (S.is_zero f) then begin
          let lr, lv = lcols.(j) in
          for idx = 0 to Array.length lr - 1 do
            let r = lr.(idx) in
            if not intab.(r) then begin
              intab.(r) <- true;
              touched.(!ntouch) <- r;
              incr ntouch
            end;
            incr ops;
            work.(r) <- S.submul work.(r) f lv.(idx)
          done
        end
      done;
      (* pivot among not-yet-pivoted rows: stability-acceptable,
         fewest static row nonzeros, smallest index *)
      let colmax = ref S.zero in
      for t = 0 to !ntouch - 1 do
        let r = touched.(t) in
        if not pivoted.(r) then begin
          let a = S.abs work.(r) in
          if S.compare a !colmax > 0 then colmax := a
        end
      done;
      let best = ref (-1) in
      for t = 0 to !ntouch - 1 do
        let r = touched.(t) in
        if
          (not pivoted.(r))
          && (not (S.is_zero work.(r)))
          && S.stable_pivot work.(r) ~colmax:!colmax
        then
          if !best < 0 then best := r
          else
            let c = compare rownnz.(r) rownnz.(!best) in
            if c < 0 || (c = 0 && r < !best) then best := r
      done;
      if !best < 0 then raise Singular;
      let pr = !best in
      pivoted.(pr) <- true;
      stage_of_row.(pr) <- k;
      prow.(k) <- pr;
      cpos.(k) <- p;
      let piv = work.(pr) in
      udiag.(k) <- piv;
      (* gather: pivoted rows -> U column, the rest -> L column *)
      let un = ref 0 and ln = ref 0 in
      for t = 0 to !ntouch - 1 do
        let r = touched.(t) in
        if r <> pr && not (S.is_zero work.(r)) then
          if pivoted.(r) then incr un else incr ln
      done;
      let ur = Array.make !un 0 and uv = Array.make !un S.zero in
      let lr = Array.make !ln 0 and lv = Array.make !ln S.zero in
      let ui = ref 0 and li = ref 0 in
      for t = 0 to !ntouch - 1 do
        let r = touched.(t) in
        if r <> pr && not (S.is_zero work.(r)) then
          if pivoted.(r) then begin
            ur.(!ui) <- stage_of_row.(r);
            uv.(!ui) <- work.(r);
            incr ui
          end
          else begin
            incr ops;
            lr.(!li) <- r;
            lv.(!li) <- S.div work.(r) piv;
            incr li
          end
      done;
      lcols.(k) <- (lr, lv);
      ucols.(k) <- (ur, uv);
      lu_nnz := !lu_nnz + !un + !ln + 1;
      clear ()
    done;
    {
      m;
      ops;
      prow;
      stage_of_row;
      cpos;
      lcols;
      ucols;
      udiag;
      lu_nnz = !lu_nnz;
      etas = [||];
      eta_count = 0;
      eta_nnz = 0;
      fw = Array.make m S.zero;
      reached = Array.make m false;
      heap = Array.make m 0;
      order = Array.make m 0;
      marked = Array.make m false;
      bx = Array.make m S.zero;
      bw = Array.make m S.zero;
      fout = { x = Array.make m S.zero; nz = Array.make m 0; nnz = 0 };
      by = Array.make m S.zero;
    }

  (* binary min-heap of ints in [h.(0 .. !n - 1)] *)
  let heap_push (h : int array) (n : int ref) (v : int) =
    let i = ref !n in
    incr n;
    while !i > 0 && h.((!i - 1) / 2) > v do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- v

  let heap_pop (h : int array) (n : int ref) =
    let top = h.(0) in
    decr n;
    let v = h.(!n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !n then sifting := false
      else begin
        let c = if l + 1 < !n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < v then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- v;
    top

  (* the nonzero entries of a dense vector, as a sparse column *)
  let col_of_array a = col_of_list (List.mapi (fun i v -> (i, v)) (Array.to_list a))

  (* [ftran f b]: solve B x = b for a row-space [b] given by its entries
     (distinct rows). Only the stages reachable from b's rows are
     visited: L forward in increasing stage order, U backward in
     decreasing stage order, each drawn from a heap, which performs the
     operations of a dense sweep in the same order. The result is
     position-space, in [f]'s result vector, valid until the next
     [ftran] on [f]. *)
  let ftran (f : fact) (b : col) =
    let ops = f.ops and m = f.m in
    let w = f.fw and reached = f.reached and heap = f.heap and order = f.order in
    let out = f.fout in
    let x = out.x and nz = out.nz in
    for t = 0 to out.nnz - 1 do
      x.(nz.(t)) <- S.zero
    done;
    out.nnz <- 0;
    let hn = ref 0 in
    for idx = 0 to Array.length b.rows - 1 do
      let r = b.rows.(idx) in
      w.(r) <- b.vals.(idx);
      let k = f.stage_of_row.(r) in
      if not reached.(k) then begin
        reached.(k) <- true;
        heap_push heap hn k
      end
    done;
    (* L y = b; y_k lives at w.(prow k). L's column k reaches rows of
       later stages only, so the heap pops stages in increasing order. *)
    let nreached = ref 0 in
    while !hn > 0 do
      let k = heap_pop heap hn in
      order.(!nreached) <- k;
      incr nreached;
      let y = w.(f.prow.(k)) in
      if not (S.is_zero y) then begin
        let lr, lv = f.lcols.(k) in
        for idx = 0 to Array.length lr - 1 do
          let r = lr.(idx) in
          incr ops;
          w.(r) <- S.submul w.(r) y lv.(idx);
          let k' = f.stage_of_row.(r) in
          if not reached.(k') then begin
            reached.(k') <- true;
            heap_push heap hn k'
          end
        done
      end
    done;
    (* U z = y, column-sweep back substitution; heap keys are m-1-k so
       stages pop in decreasing order (U's column k reaches earlier
       stages only). z_k lands at position cpos k. *)
    for t = !nreached - 1 downto 0 do
      heap_push heap hn (m - 1 - order.(t))
    done;
    while !hn > 0 do
      let k = m - 1 - heap_pop heap hn in
      let y = w.(f.prow.(k)) in
      if not (S.is_zero y) then begin
        incr ops;
        let zk = S.div y f.udiag.(k) in
        let p = f.cpos.(k) in
        x.(p) <- zk;
        nz.(out.nnz) <- p;
        out.nnz <- out.nnz + 1;
        let ur, uv = f.ucols.(k) in
        for idx = 0 to Array.length ur - 1 do
          incr ops;
          let j = ur.(idx) in
          w.(f.prow.(j)) <- S.submul w.(f.prow.(j)) uv.(idx) zk;
          if not reached.(j) then begin
            reached.(j) <- true;
            order.(!nreached) <- j;
            incr nreached;
            heap_push heap hn (m - 1 - j)
          end
        done
      end
    done;
    for t = 0 to !nreached - 1 do
      let k = order.(t) in
      w.(f.prow.(k)) <- S.zero;
      reached.(k) <- false
    done;
    (* the eta file oldest-first: x := E^-1 x, with
       x_p' = x_p / piv and x_i' = x_i - w_i x_p' *)
    let marked = f.marked in
    if f.eta_count > 0 then
      for t = 0 to out.nnz - 1 do
        marked.(nz.(t)) <- true
      done;
    for i = 0 to f.eta_count - 1 do
      let e = f.etas.(i) in
      let xp = x.(e.e_pos) in
      if not (S.is_zero xp) then begin
        incr ops;
        let xp' = S.div xp e.e_piv in
        x.(e.e_pos) <- xp';
        for idx = 0 to Array.length e.e_rows - 1 do
          let p = e.e_rows.(idx) in
          incr ops;
          x.(p) <- S.submul x.(p) e.e_vals.(idx) xp';
          if not marked.(p) then begin
            marked.(p) <- true;
            nz.(out.nnz) <- p;
            out.nnz <- out.nnz + 1
          end
        done
      end
    done;
    (* positions in ascending order (heap sort), dropping cancellations *)
    for t = 0 to out.nnz - 1 do
      heap_push heap hn nz.(t)
    done;
    out.nnz <- 0;
    while !hn > 0 do
      let p = heap_pop heap hn in
      marked.(p) <- false;
      if S.is_zero x.(p) then x.(p) <- S.zero
      else begin
        nz.(out.nnz) <- p;
        out.nnz <- out.nnz + 1
      end
    done;
    out

  (* y := E^-T y:  y_p' = (y_p - sum_{i<>p} w_i y_i) / piv *)
  let apply_eta_transposed ops (e : eta) (y : S.t array) =
    let acc = ref y.(e.e_pos) in
    for idx = 0 to Array.length e.e_rows - 1 do
      let yi = y.(e.e_rows.(idx)) in
      if not (S.is_zero yi) then begin
        incr ops;
        acc := S.submul !acc e.e_vals.(idx) yi
      end
    done;
    (* an eta disjoint from the vector's support is a no-op: skip the
       division (0 / piv = 0) so its cost stays proportional to overlap *)
    if not (S.is_zero !acc) then begin
      incr ops;
      y.(e.e_pos) <- S.div !acc e.e_piv
    end
    else y.(e.e_pos) <- S.zero

  (* [btran f c]: solve B^T y = c for a position-space [c] given by its
     entries (distinct positions). The result is row-space, in [f]'s
     result vector, valid until the next [btran] on [f]. Pull form: each
     stage gathers its dot product, in the same order as the transposed
     factors' columns, so float sums never depend on the support. *)
  let btran (f : fact) (c : col) =
    let ops = f.ops and m = f.m in
    let x = f.bx in
    for idx = 0 to Array.length c.rows - 1 do
      x.(c.rows.(idx)) <- c.vals.(idx)
    done;
    (* eta file newest-first: B^-T = B0^-T E1^-T ... Et^-T *)
    for i = f.eta_count - 1 downto 0 do
      apply_eta_transposed ops f.etas.(i) x
    done;
    (* U^T w = x in stage order:
       w_k = (x_{cpos k} - sum_{(j,u) in ucol k} u w_j) / d_k *)
    let w = f.bw in
    for k = 0 to m - 1 do
      let acc = ref x.(f.cpos.(k)) in
      let ur, uv = f.ucols.(k) in
      for idx = 0 to Array.length ur - 1 do
        let wj = w.(ur.(idx)) in
        if not (S.is_zero wj) then begin
          incr ops;
          acc := S.submul !acc uv.(idx) wj
        end
      done;
      if not (S.is_zero !acc) then begin
        incr ops;
        w.(k) <- S.div !acc f.udiag.(k)
      end
      else w.(k) <- S.zero
    done;
    (* only c's positions and the eta pivots were written *)
    for idx = 0 to Array.length c.rows - 1 do
      x.(c.rows.(idx)) <- S.zero
    done;
    for i = 0 to f.eta_count - 1 do
      x.(f.etas.(i).e_pos) <- S.zero
    done;
    (* L^T y = w, backward; y indexed by original row *)
    let y = f.by in
    for k = m - 1 downto 0 do
      let acc = ref w.(k) in
      let lr, lv = f.lcols.(k) in
      for idx = 0 to Array.length lr - 1 do
        let yi = y.(lr.(idx)) in
        if not (S.is_zero yi) then begin
          incr ops;
          acc := S.submul !acc lv.(idx) yi
        end
      done;
      y.(f.prow.(k)) <- !acc
    done;
    y

  (* [update f ~pos ~w]: append the eta for replacing the basic column at
     [pos] by the column whose ftran image is [w]. Returns false — caller
     must refactorize — when w.(pos) is not an acceptable eta pivot. *)
  let update (f : fact) ~pos ~(w : sparse) =
    let piv = w.x.(pos) in
    if not (S.eta_pivot_ok piv) then false
    else begin
      (* an acceptable pivot is nonzero, so [pos] is one of w's nonzeros *)
      let n = w.nnz - 1 in
      let er = Array.make n 0 and ev = Array.make n S.zero in
      let j = ref 0 in
      for t = 0 to w.nnz - 1 do
        let i = w.nz.(t) in
        if i <> pos then begin
          er.(!j) <- i;
          ev.(!j) <- w.x.(i);
          incr j
        end
      done;
      let e = { e_pos = pos; e_piv = piv; e_rows = er; e_vals = ev } in
      if f.eta_count >= Array.length f.etas then begin
        let cap = max 8 (2 * Array.length f.etas) in
        let etas = Array.make cap e in
        Array.blit f.etas 0 etas 0 f.eta_count;
        f.etas <- etas
      end;
      f.etas.(f.eta_count) <- e;
      f.eta_count <- f.eta_count + 1;
      f.eta_nnz <- f.eta_nnz + n + 1;
      true
    end

  let num_etas f = f.eta_count
  let lu_nnz f = f.lu_nnz

  (* refactorize when the eta file holds 64 etas or has accumulated
     more fill than the factors themselves *)
  let should_refactor f = f.eta_count >= 64 || f.eta_nnz > max (4 * f.m) (2 * f.lu_nnz)
end
