module Q = Rational

module Interval = struct
  type t = { lo : Q.t; hi : Q.t }

  let make lo hi =
    if Q.compare hi lo < 0 then invalid_arg "Intervals.Interval.make: hi < lo";
    { lo; hi }

  let of_ints a b = make (Q.of_int a) (Q.of_int b)
  let length t = Q.sub t.hi t.lo
  let is_empty t = Q.equal t.lo t.hi
  let contains t x = Q.compare t.lo x <= 0 && Q.compare x t.hi < 0
  let overlaps a b = Q.compare a.lo b.hi < 0 && Q.compare b.lo a.hi < 0
  let subset a b = is_empty a || (Q.compare b.lo a.lo <= 0 && Q.compare a.hi b.hi <= 0)

  let intersect a b =
    let lo = Q.max a.lo b.lo and hi = Q.min a.hi b.hi in
    if Q.compare lo hi < 0 then Some { lo; hi } else None

  let equal a b = Q.equal a.lo b.lo && Q.equal a.hi b.hi

  let compare a b =
    let c = Q.compare a.lo b.lo in
    if c <> 0 then c else Q.compare a.hi b.hi

  let to_string t = Printf.sprintf "[%s, %s)" (Q.to_string t.lo) (Q.to_string t.hi)
  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

module Union = struct
  (* components sorted by lo; pairwise disjoint and non-adjacent; nonempty *)
  type t = Interval.t list

  let empty = []
  let components t = t

  let of_list intervals =
    let intervals = List.filter (fun iv -> not (Interval.is_empty iv)) intervals in
    let sorted = List.sort Interval.compare intervals in
    let rec merge acc = function
      | [] -> List.rev acc
      | iv :: rest -> (
          match acc with
          | (prev : Interval.t) :: acc_rest when Q.compare iv.Interval.lo prev.Interval.hi <= 0 ->
              let merged = Interval.make prev.Interval.lo (Q.max prev.Interval.hi iv.Interval.hi) in
              merge (merged :: acc_rest) rest
          | _ -> merge (iv :: acc) rest)
    in
    merge [] sorted

  let measure t = List.fold_left (fun acc iv -> Q.add acc (Interval.length iv)) Q.zero t
  let add t iv = of_list (iv :: t)
  let union a b = of_list (a @ b)
  let contains_point t x = List.exists (fun iv -> Interval.contains iv x) t

  let gaps t (within : Interval.t) =
    let rec go cursor comps acc =
      if Q.compare cursor within.Interval.hi >= 0 then List.rev acc
      else
        match comps with
        | [] -> List.rev (Interval.make cursor within.Interval.hi :: acc)
        | (c : Interval.t) :: rest ->
            if Q.compare c.Interval.hi cursor <= 0 then go cursor rest acc
            else if Q.compare c.Interval.lo within.Interval.hi >= 0 then
              List.rev (Interval.make cursor within.Interval.hi :: acc)
            else begin
              let acc =
                if Q.compare cursor c.Interval.lo < 0 then Interval.make cursor c.Interval.lo :: acc else acc
              in
              go (Q.max cursor c.Interval.hi) rest acc
            end
    in
    if Interval.is_empty within then [] else go within.Interval.lo t []

  let marginal t iv =
    if Interval.is_empty iv then Q.zero
    else List.fold_left (fun acc g -> Q.add acc (Interval.length g)) Q.zero (gaps t iv)

  let equal a b = List.length a = List.length b && List.for_all2 Interval.equal a b

  let pp fmt t =
    Format.fprintf fmt "{%s}" (String.concat " u " (List.map Interval.to_string t))
end

let span intervals = Union.measure (Union.of_list intervals)

module Demand = struct
  type cell = { cell : Interval.t; raw : int }

  let cells intervals =
    let intervals = List.filter (fun iv -> not (Interval.is_empty iv)) intervals in
    if intervals = [] then []
    else begin
      let events =
        List.sort_uniq Q.compare
          (List.concat_map (fun (iv : Interval.t) -> [ iv.Interval.lo; iv.Interval.hi ]) intervals)
      in
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      List.map
        (fun (a, bq) ->
          let cell = Interval.make a bq in
          let raw =
            List.fold_left (fun acc iv -> if Interval.overlaps iv cell then acc + 1 else acc) 0 intervals
          in
          { cell; raw })
        (pairs events)
    end

  let support intervals = List.filter (fun c -> c.raw > 0) (cells intervals)

  let raw_at intervals x =
    List.fold_left (fun acc iv -> if Interval.contains iv x then acc + 1 else acc) 0 intervals

  let max_raw intervals = List.fold_left (fun acc c -> Stdlib.max acc c.raw) 0 (cells intervals)

  let profile_cost ~g intervals =
    if g <= 0 then invalid_arg "Intervals.Demand.profile_cost: g <= 0";
    List.fold_left
      (fun acc c ->
        let levels = (c.raw + g - 1) / g in
        Q.add acc (Q.mul (Q.of_int levels) (Interval.length c.cell)))
      Q.zero (cells intervals)

  let mass_bound ~g intervals =
    if g <= 0 then invalid_arg "Intervals.Demand.mass_bound: g <= 0";
    let total = List.fold_left (fun acc iv -> Q.add acc (Interval.length iv)) Q.zero intervals in
    Q.div total (Q.of_int g)
end

module Track = struct
  let is_track ~interval items =
    let rec go = function
      | [] -> true
      | x :: rest -> List.for_all (fun y -> not (Interval.overlaps (interval x) (interval y))) rest && go rest
    in
    go items

  let max_weight_disjoint ~interval ~weight items =
    (* each item's interval is computed once: [interval] may allocate or
       validate, and the sort and the searches below would call it
       O(n log n) times *)
    let arr = Array.map (fun x -> (interval x, x)) (Array.of_list items) in
    Array.sort (fun (a, _) (bq, _) -> Q.compare a.Interval.hi bq.Interval.hi) arr;
    let n = Array.length arr in
    if n = 0 then ([], Q.zero)
    else begin
      (* pred.(i): largest j < i with hi_j <= lo_i, or -1 *)
      let pred = Array.make n (-1) in
      for i = 0 to n - 1 do
        let lo_i = (fst arr.(i)).Interval.lo in
        (* binary search over sorted hi values *)
        let lo = ref 0 and hi = ref (i - 1) and res = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if Q.compare (fst arr.(mid)).Interval.hi lo_i <= 0 then begin
            res := mid;
            lo := mid + 1
          end
          else hi := mid - 1
        done;
        pred.(i) <- !res
      done;
      let dp = Array.make (n + 1) Q.zero in
      let take = Array.make n false in
      for i = 1 to n do
        let w = weight (snd arr.(i - 1)) in
        let with_i = Q.add w dp.(pred.(i - 1) + 1) in
        if Q.compare with_i dp.(i - 1) > 0 then begin
          dp.(i) <- with_i;
          take.(i - 1) <- true
        end
        else dp.(i) <- dp.(i - 1)
      done;
      let rec collect i acc = if i < 0 then acc else if take.(i) then collect pred.(i) (snd arr.(i) :: acc) else collect (i - 1) acc in
      (collect (n - 1) [], dp.(n))
    end
end
