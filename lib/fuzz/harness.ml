(* The sweep driver: deterministic case generation per seed (both models,
   several structure families), parallel execution on Parallel.Pool,
   shrinking of failures, and a counterexample corpus (write + replay).

   Everything is a pure function of (seed, fuel, planted_bug): no clocks,
   no global randomness, so a CI failure replays locally bit-for-bit. *)

module B = Workload.Bjob
module Io = Workload.Io
module G = Workload.Generate

type case = { name : string; g : int; instance : Io.instance }

type counterexample = {
  case : string;  (* family-seed label, e.g. "busy-interval-seed0042" *)
  cg : int;  (* capacity for busy instances *)
  failure : Oracle.failure;
  instance : Io.instance;  (* already shrunk *)
}

type report = { seeds : int; cases : int; failures : counterexample list }

let cases_for_seed seed =
  let slotted =
    let params =
      {
        G.n = 5 + (seed mod 4);
        horizon = 10 + (2 * (seed mod 4));
        max_length = 3;
        slack = seed mod 5;
        g = 2 + (seed mod 2);
      }
    in
    { name = "slotted"; g = params.G.g; instance = Io.Slotted_instance (G.slotted ~params ~seed ()) }
  in
  let slotted_unit =
    let g = 2 + (seed mod 3) in
    {
      name = "slotted-unit";
      g;
      instance =
        Io.Slotted_instance (G.slotted_unit ~horizon:(6 + (seed mod 5)) ~g ~n:(6 + (seed mod 5)) ~seed ());
    }
  in
  let sparse_wide =
    (* block-diagonal LP1 family: keeps the lp-engine differential honest
       on the sparse LU's home turf *)
    let g = 2 + (seed mod 2) in
    {
      name = "slotted-sparse-wide";
      g;
      instance =
        Io.Slotted_instance
          (Workload.Gadgets.sparse_wide ~g ~blocks:(1 + (seed mod 3)) ~width:(2 + (seed mod 4)));
    }
  in
  let interval =
    let g = 2 + (seed mod 3) in
    {
      name = "busy-interval";
      g;
      instance = Io.Busy_instance (G.interval_jobs ~n:(5 + (seed mod 4)) ~horizon:12 ~max_length:4 ~seed ());
    }
  in
  let structured =
    let g = 2 + (seed mod 2) in
    let name, jobs =
      match seed mod 3 with
      | 0 -> ("busy-proper", G.proper_interval_jobs ~n:(5 + (seed mod 3)) ~seed ())
      | 1 -> ("busy-clique", G.clique_interval_jobs ~n:(5 + (seed mod 3)) ~seed ())
      | _ -> ("busy-laminar", G.laminar_interval_jobs ~depth:(2 + (seed mod 2)) ~seed ())
    in
    { name; g; instance = Io.Busy_instance jobs }
  in
  let flexible =
    let g = 2 + (seed mod 2) in
    {
      name = "busy-flexible";
      g;
      instance =
        Io.Busy_instance
          (G.flexible_jobs ~n:(4 + (seed mod 3)) ~horizon:12 ~max_length:3 ~slack_factor:2 ~seed ());
    }
  in
  [ slotted; slotted_unit; sparse_wide; interval; structured; flexible ]

let check ?(planted_bug = false) ~fuel (case : case) =
  match case.instance with
  | Io.Slotted_instance inst -> Oracle.check_slotted ~fuel inst
  | Io.Busy_instance jobs ->
      if List.for_all B.is_interval jobs then Oracle.check_busy ~planted_bug ~fuel ~g:case.g jobs
      else Oracle.check_flexible ~planted_bug ~fuel ~g:case.g jobs

let shrink_case ~planted_bug ~fuel (case : case) =
  let failing c = c <> None in
  match case.instance with
  | Io.Slotted_instance inst ->
      let fails i = failing (Oracle.check_slotted ~fuel i) in
      { case with instance = Io.Slotted_instance (Shrink.slotted ~fails inst) }
  | Io.Busy_instance jobs ->
      (* pinning the last flexible job flips the list to the interval
         oracle; the predicate follows the current shape *)
      let fails js =
        failing
          (if List.for_all B.is_interval js then Oracle.check_busy ~planted_bug ~fuel ~g:case.g js
           else Oracle.check_flexible ~planted_bug ~fuel ~g:case.g js)
      in
      { case with instance = Io.Busy_instance (Shrink.busy ~fails jobs) }

let run ?(planted_bug = false) ?domains ~seeds ~fuel () =
  let per_seed seed =
    let cases = cases_for_seed seed in
    let failures =
      List.filter_map
        (fun case ->
          match check ~planted_bug ~fuel case with
          | None -> None
          | Some failure ->
              let shrunk = shrink_case ~planted_bug ~fuel case in
              (* the minimized instance may fail a different (earlier)
                 check; report what it fails now *)
              let failure = Option.value (check ~planted_bug ~fuel shrunk) ~default:failure in
              Some
                {
                  case = Printf.sprintf "%s-seed%04d" case.name seed;
                  cg = case.g;
                  failure;
                  instance = shrunk.instance;
                })
        cases
    in
    (List.length cases, failures)
  in
  let results = Parallel.Pool.init ?domains seeds per_seed in
  {
    seeds;
    cases = List.fold_left (fun acc (c, _) -> acc + c) 0 results;
    failures = List.concat_map snd results;
  }

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let one_line s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let write_corpus ~dir cxs =
  ensure_dir dir;
  List.map
    (fun cx ->
      let path = Filename.concat dir (cx.case ^ ".txt") in
      let header =
        Printf.sprintf "# fuzz counterexample\n# check: %s\n# detail: %s\n# fuzz-g: %d\n"
          (one_line cx.failure.Oracle.check)
          (one_line cx.failure.Oracle.detail)
          cx.cg
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (header ^ Io.to_string cx.instance));
      path)
    cxs

(* the capacity comment survives Io's comment stripping; recover it here *)
let corpus_g text =
  let prefix = "# fuzz-g:" in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.length line >= String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then
           int_of_string_opt
             (String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix)))
         else None)

let replay ?(planted_bug = false) ~fuel ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    (* parser-* counterexamples are raw request lines, not instances;
       Parser_fuzz.replay owns them *)
    |> List.filter (fun f ->
           Filename.check_suffix f ".txt" && not (Parser_fuzz.is_parser_file f))
    |> List.sort compare
    |> List.filter_map (fun f ->
           let path = Filename.concat dir f in
           let text = In_channel.with_open_text path In_channel.input_all in
           match Io.parse_string text with
           | instance ->
               let g = Option.value (corpus_g text) ~default:2 in
               let case = { name = Filename.remove_extension f; g; instance } in
               Option.map (fun failure -> (f, failure)) (check ~planted_bug ~fuel case)
           | exception Io.Parse_error (l, m) ->
               Some (f, { Oracle.check = "replay-parse"; detail = Printf.sprintf "line %d: %s" l m }))
