exception Unsupported of string
exception Bad_result of string

type quality = Exact | Approx of Rational.t | Bound | Heuristic

let quality_to_string = function
  | Exact -> "exact"
  | Approx r -> Printf.sprintf "approx(%s)" (Rational.to_string r)
  | Bound -> "bound"
  | Heuristic -> "heuristic"

type t = {
  name : string;
  kind : Instance.kind;
  quality : quality;
  online : bool;
  preemptive : bool;
  supports_budget : bool;
  composite : bool;
  restriction : string option;
  guard : Instance.t -> string option;
  cascade_tier : (int * string) option;
  rank : int;
  exhausted_hint : string;
  paper : string;
  impl : string;
  solve :
    ?budget:Budget.t ->
    ?obs:Obs.t ->
    ?params:(string * string) list ->
    Instance.t ->
    Result.t;
}

let make ~name ~kind ~quality ?(online = false) ?(preemptive = false)
    ?(supports_budget = false) ?(composite = false) ?restriction
    ?(guard = fun _ -> None) ?cascade_tier ?(rank = max_int)
    ?(exhausted_hint = "search ran out of budget") ~paper ~impl ~solve () =
  let guard inst =
    let got = Instance.kind inst in
    if got <> kind then
      Some
        (Printf.sprintf "%s expects %s %s instance, got %s" name
           (if kind = Instance.Active_slotted then "an" else "a")
           (Instance.kind_name kind) (Instance.kind_name got))
    else guard inst
  in
  let solve ?budget ?obs ?params inst =
    match guard inst with
    | None -> solve ?budget ?obs ?params inst
    | Some why -> raise (Unsupported why)
  in
  {
    name;
    kind;
    quality;
    online;
    preemptive;
    supports_budget;
    composite;
    restriction;
    guard;
    cascade_tier;
    rank;
    exhausted_hint;
    paper;
    impl;
    solve;
  }

let flags_to_string s =
  let flags =
    List.filter_map
      (fun x -> x)
      [
        (if s.online then Some "online" else None);
        (if s.preemptive then Some "preemptive" else None);
        (if s.supports_budget then Some "budget" else None);
        (if s.composite then Some "composite" else None);
        Option.map (fun (i, _) -> Printf.sprintf "tier:%d" i) s.cascade_tier;
        (if s.restriction <> None then Some "restricted" else None);
      ]
  in
  match flags with [] -> "-" | _ -> String.concat "," flags
