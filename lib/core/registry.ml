let kind_order = function
  | Instance.Active_slotted -> 0
  | Instance.Busy_interval -> 1
  | Instance.Busy_flexible -> 2
  | Instance.Busy_preemptive -> 3

let by_kind_name (a : Solver.t) (b : Solver.t) =
  match compare (kind_order a.Solver.kind) (kind_order b.Solver.kind) with
  | 0 -> compare a.Solver.name b.Solver.name
  | c -> c

let all = List.sort by_kind_name (Active_solvers.solvers @ Busy_solvers.solvers)

let of_kind kind = List.filter (fun (s : Solver.t) -> s.Solver.kind = kind) all

let find kind name =
  List.find_opt (fun (s : Solver.t) -> s.Solver.name = name) (of_kind kind)

let names kind = List.map (fun (s : Solver.t) -> s.Solver.name) (of_kind kind)

let find_exn kind name =
  match find kind name with
  | Some s -> s
  | None ->
      raise
        (Solver.Unsupported
           (Printf.sprintf "unknown algorithm %s for %s instances (valid: %s)" name
              (Instance.kind_name kind)
              (String.concat "|" (names kind))))

let by_rank_name (a : Solver.t) (b : Solver.t) =
  match compare a.Solver.rank b.Solver.rank with
  | 0 -> compare a.Solver.name b.Solver.name
  | c -> c

let exact kind =
  of_kind kind
  |> List.filter (fun (s : Solver.t) -> s.Solver.quality = Solver.Exact && not s.Solver.composite)
  |> List.sort by_rank_name

let approx kind =
  of_kind kind
  |> List.filter (fun (s : Solver.t) ->
         (match s.Solver.quality with Solver.Approx _ -> true | _ -> false)
         && (not s.Solver.composite) && not s.Solver.online)
  |> List.sort (fun (a : Solver.t) (b : Solver.t) ->
         let ratio (s : Solver.t) =
           match s.Solver.quality with Solver.Approx r -> r | _ -> Rational.zero
         in
         (* worst ratio first; ties broken by rank then name *)
         match Rational.compare (ratio b) (ratio a) with
         | 0 -> by_rank_name a b
         | c -> c)

let run (s : Solver.t) ?budget ?obs ?params inst =
  let r = s.Solver.solve ?budget ?obs ?params inst in
  let fail what = Option.iter (fun problem -> raise (Solver.Bad_result (what ^ problem))) in
  (match (r.Result.status, r.Result.witness, inst) with
  | Result.Solved, Some (Result.Opened { open_slots; schedule }), Instance.Slotted i ->
      fail "invalid solution: " (Active.Solution.verify i { Active.Solution.open_slots; schedule })
  | Result.Solved, Some (Result.Packing p), Instance.Interval { g; jobs } ->
      fail "invalid packing: " (Busy.Bundle.check ~g jobs p)
  | _ -> ());
  r
