(* FIRSTFIT (Flammini et al. [5]): the 4-approximate baseline for interval
   jobs. Consider jobs in non-increasing order of length; put each job in
   the first bundle whose capacity it does not violate, opening a new
   bundle when none fits. *)

module Q = Rational
module B = Workload.Bjob

let solve ?(obs = Obs.null) ~g jobs =
  if g < 1 then invalid_arg "First_fit.solve: g < 1";
  List.iter
    (fun (j : B.t) ->
      if not (B.is_interval j) then invalid_arg "First_fit.solve: flexible job (convert first)")
    jobs;
  Obs.span obs "busy.first_fit" @@ fun () ->
  Bundle.first_fit ~obs ~fits:(Bundle.fits ~g)
    (List.stable_sort (fun (a : B.t) (b : B.t) -> Q.compare b.B.length a.B.length) jobs)
