(* LP rounding for active time (Theorem 2): a 2-approximation.

   Pipeline, following Sections 3.1-3.4:

   1. Solve LP1 exactly ({!Lp_model}).
   2. Right-shift (Lemma 3): within each block (t_{d_{i-1}}, t_{d_i}]
      between consecutive distinct deadlines, the block mass
      Y_i = sum of y_t is packed against the right end: floor(Y_i) fully
      open slots ending at t_{d_i}, plus one fractional slot. Only the
      block sums matter from here on, so the shift is implicit: the
      sweep reads the blocks and their masses off
      {!Lp_model.blocks}, as {!Lp_model.right_shift} does.
   3. Sweep deadlines left to right. Per block: open the floor(Y_i)
      right-shifted fully-open slots; merge any proxy carried from the
      previous iteration into the fractional mass (moving its pointer
      rightward when a real slot is available, which is safe for
      later-deadline jobs); then
        - fractional mass >= 1/2 ("half open"): open its slot outright
          (charges its own LP mass at most twice);
        - 0 < mass < 1/2 ("barely open"): max-flow test whether every job
          with deadline processed so far fits in the slots opened so far;
          if yes, keep the slot closed and carry the mass as a proxy
          (pointer + value); if no, open the pointer slot (the paper's
          dependent/trio/filler argument, Lemma 6, shows the charge is
          always available - here that machinery is analysis only and the
          invariant is asserted instead).

   Invariants asserted after every iteration (they are the content of
   Lemmas 5/6): the processed jobs fit integrally in the opened slots, and
   #opened <= 2 * (LP mass up to the current deadline). [stats] reports
   them; the property tests fuzz them. *)

module S = Workload.Slotted
module Q = Rational

(* debug tracing: enable with Logs.Src.set_level (e.g. via atbt -v) *)
let src = Logs.Src.create "abt.rounding" ~doc:"LP rounding deadline sweep"

module Log = (val Logs.src_log src : Logs.LOG)

type stats = {
  lp_cost : Q.t;
  rounded_cost : int;
  fallback_used : bool; (* defensive re-opening was needed (never expected) *)
}

exception Infeasible_instance

let solve ?lp1 ?budget ?(obs = Obs.null) (inst : S.t) =
  Obs.span obs "active.rounding" @@ fun () ->
  let lp1 = match lp1 with Some lp1 -> lp1 | None -> Lp_model.create inst in
  (* the cut loop's separation network serves the sweep's oracle and
     the final schedule once the loop has returned; checked here, before
     any work, to be [inst]'s *)
  let net = Feasibility.network_for ~net:(Lp_model.network lp1) inst in
  match Lp_model.resolve ?budget ~obs lp1 with
  | None -> None
  | Some lp ->
      let slots = S.relevant_slots inst in
      if slots = [] then Some ({ Solution.open_slots = []; schedule = [] }, { lp_cost = Q.zero; rounded_cost = 0; fallback_used = false })
      else begin
        let blocks = Lp_model.blocks inst lp in
        (* mass strictly after the last deadline would have no x-support *)
        let _, last, _ = List.nth blocks (List.length blocks - 1) in
        assert (List.for_all (fun (s, v) -> s <= last || Q.is_zero v) lp.Lp_model.y);
        (* One warm oracle for the whole sweep. The sweep only ever opens
           slots and activates jobs (both monotone capacity increases), so
           every feasibility test is a pure re-augmentation — no drains. *)
        let ora = Feasibility.Oracle.create ~obs ~open_all:false ~activate_all:false net in
        let opened = ref [] in
        let open_slot s =
          assert (not (List.mem s !opened));
          Obs.incr obs "active.rounding.opened";
          Feasibility.Oracle.set_slot ~obs ora ~slot:s ~open_:true;
          opened := s :: !opened
        in
        let proxy = ref None in
        let cum_mass = ref Q.zero in
        let fallback = ref false in
        List.iter
          (fun (b_prev, b, yi) ->
            Obs.incr obs "active.rounding.blocks";
            cum_mass := Q.add !cum_mass yi;
            let base = Q.floor_int yi in
            let frac = Q.sub yi (Q.of_int base) in
            for s = b - base + 1 to b do
              open_slot s
            done;
            (* merge proxy into the fractional mass *)
            let frac_mass, pointer =
              match !proxy with
              | None -> (frac, b - base)
              | Some (p, v) ->
                  if Q.compare (Q.add v frac) Q.one <= 0 then
                    let p' = if b - base > b_prev then b - base else p in
                    (Q.add v frac, p')
                  else begin
                    (* v + frac > 1: frac > 1/2, so slot b - base exists;
                       it becomes fully open *)
                    open_slot (b - base);
                    let p' = if b - base - 1 > b_prev then b - base - 1 else p in
                    (Q.sub (Q.add v frac) Q.one, p')
                  end
            in
            proxy := None;
            Array.iteri
              (fun idx (j : S.job) ->
                if j.S.deadline = b then Feasibility.Oracle.set_job ~obs ora idx ~active:true)
              inst.S.jobs;
            Log.debug (fun m ->
                m "deadline %d: Y=%s base=%d frac_mass=%s pointer=%d" b (Q.to_string yi) base
                  (Q.to_string frac_mass) pointer);
            if Q.compare frac_mass Q.zero > 0 then begin
              if Q.compare frac_mass Q.half >= 0 then begin
                Log.debug (fun m -> m "  half-open: opening slot %d" pointer);
                open_slot pointer
              end
              else if
                (Obs.incr obs "active.rounding.flow_tests";
                 Feasibility.Oracle.check ~obs ora)
              then begin
                Log.debug (fun m -> m "  barely open: carrying proxy (%s at %d)" (Q.to_string frac_mass) pointer);
                Obs.incr obs "active.rounding.proxy_carries";
                proxy := Some (pointer, frac_mass)
              end
              else begin
                Log.debug (fun m -> m "  barely open: flow forced slot %d open" pointer);
                open_slot pointer
              end
            end;
            (* Lemma 5/6 invariants: the processed jobs, the active ones,
               fit. Should they not (never expected), the rightmost
               closed slots open on the oracle until they do. *)
            if not (Feasibility.Oracle.check ~obs ora) then begin
              fallback := true;
              let rec reopen = function
                | [] -> raise Infeasible_instance
                | s :: rest ->
                    open_slot s;
                    if not (Feasibility.Oracle.check ~obs ora) then reopen rest
              in
              reopen (List.rev (List.filter (fun s -> not (List.mem s !opened)) slots))
            end;
            assert (Q.compare (Q.of_int (List.length !opened)) (Q.mul Q.two !cum_mass) <= 0 || !fallback))
          blocks;
        let open_slots = List.sort compare !opened in
        match Solution.of_open_slots ~net inst ~open_slots with
        | None -> raise Infeasible_instance (* contradicts the invariant *)
        | Some sol ->
            Some (sol, { lp_cost = lp.Lp_model.cost; rounded_cost = Solution.cost sol; fallback_used = !fallback })
      end
