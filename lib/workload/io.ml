(* Plain-text instance files.

   Slotted (active-time) instances:

     slotted
     g 3
     job 0 0 6 3        # job <id> <release> <deadline> <length>

   Busy-time instances (rational coordinates allowed: "5/2", "0.25"):

     busy
     job 0 0 5/2 1

   '#' starts a comment; blank lines are ignored. *)

module Q = Rational

type instance = Slotted_instance of Slotted.t | Busy_instance of Bjob.t list

let strip_comment line = match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line

(* Split on any whitespace run (spaces, tabs, carriage returns), so
   tab-separated instance files parse the same as space-separated ones. *)
let tokens_of_line line =
  let line = strip_comment line in
  let n = String.length line in
  let is_space = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_space line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_space line.[!j]) do
        incr j
      done;
      go !j (String.sub line i (!j - i) :: acc)
    end
  in
  go 0 []

exception Parse_error of int * string

let parse_error lineno fmt = Printf.ksprintf (fun msg -> raise (Parse_error (lineno, msg))) fmt

(* Shared line-by-line parser. [on_error] decides the failure policy:
   the strict entry points re-raise (first bad line aborts), the lenient
   ones record the error and keep going — the same per-item error
   discipline the serve daemon applies to its request stream, so one
   typo in a large instance file degrades to a warning instead of
   aborting the whole run. Whole-file problems (missing header, missing
   capacity) stay fatal in both modes: there is nothing to continue
   with. [ids] holds the ids of the jobs accepted so far: solvers key
   jobs by id, so a repeated id is an error on its line. *)
let parse_line ~kind ~g ~slotted_jobs ~busy_jobs ~ids ~arrivals ~lineno line =
  match tokens_of_line line with
      | [] -> ()
      | [ "slotted" ] -> kind := Some `Slotted
      | [ "busy" ] -> kind := Some `Busy
      | [ "g"; v ] -> (
          match int_of_string_opt v with
          | Some n when n >= 1 -> g := Some n
          | _ -> parse_error lineno "invalid capacity %S" v)
      | "job" :: rest -> (
          (* Optional trailing [arrival <t>] pair: when the job appears in
             the online stream (rolling-horizon replay) rather than being
             known at time 0. Integer slots, like the epoch clock. *)
          let rest, arrival =
            match rest with
            | [ id; r; d; p; "arrival"; t ] -> (
                match int_of_string_opt t with
                | Some a when a >= 0 -> ([ id; r; d; p ], Some a)
                | _ -> parse_error lineno "invalid arrival %S (want a nonnegative integer)" t)
            | _ -> (rest, None)
          in
          let fresh id =
            if Hashtbl.mem ids id then parse_error lineno "duplicate job id %d" id;
            Hashtbl.replace ids id ()
          in
          let record id = match arrival with Some a -> arrivals := (id, a) :: !arrivals | None -> () in
          match (!kind, rest) with
          | None, _ -> parse_error lineno "job before header ('slotted' or 'busy')"
          | Some `Slotted, [ id; r; d; p ] -> (
              match (int_of_string_opt id, int_of_string_opt r, int_of_string_opt d, int_of_string_opt p) with
              | Some id, Some release, Some deadline, Some length -> (
                  try
                    let j = Slotted.job ~id ~release ~deadline ~length in
                    fresh id;
                    slotted_jobs := j :: !slotted_jobs;
                    record id
                  with Invalid_argument msg -> parse_error lineno "%s" msg)
              | _ -> parse_error lineno "slotted jobs need four integers")
          | Some `Busy, [ id; r; d; p ] -> (
              match int_of_string_opt id with
              | None -> parse_error lineno "invalid job id %S" id
              | Some id -> (
                  try
                    let j =
                      Bjob.make ~id ~release:(Q.of_string r) ~deadline:(Q.of_string d) ~length:(Q.of_string p)
                    in
                    fresh id;
                    busy_jobs := j :: !busy_jobs;
                    record id
                  with
                  | Invalid_argument msg | Failure msg -> parse_error lineno "%s" msg
                  | Division_by_zero ->
                      (* Rational.of_string rejects "1/0" as Invalid_argument,
                         but keep the arithmetic escape hatch covered too: a
                         bad coordinate must never abort the caller *)
                      parse_error lineno "zero denominator in job coordinates"))
          | Some _, _ -> parse_error lineno "jobs need four fields: id release deadline length")
      | tok :: _ -> parse_error lineno "unknown directive %S" tok

let parse_lines_gen ~on_error lines =
  let kind = ref None in
  let g = ref None in
  let slotted_jobs = ref [] in
  let busy_jobs = ref [] in
  let ids = Hashtbl.create 64 in
  let arrivals = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      try parse_line ~kind ~g ~slotted_jobs ~busy_jobs ~ids ~arrivals ~lineno line
      with Parse_error (l, msg) -> on_error l msg)
    lines;
  match !kind with
  | None -> raise (Parse_error (0, "missing header ('slotted' or 'busy')"))
  | Some `Slotted ->
      let g = match !g with Some g -> g | None -> raise (Parse_error (0, "slotted instances need 'g <capacity>'")) in
      (Slotted_instance (Slotted.make ~g (List.rev !slotted_jobs)), List.rev !arrivals)
  | Some `Busy -> (Busy_instance (List.rev !busy_jobs), List.rev !arrivals)

let parse_lines lines =
  fst (parse_lines_gen ~on_error:(fun l msg -> raise (Parse_error (l, msg))) lines)

let parse_lines_timed lines =
  parse_lines_gen ~on_error:(fun l msg -> raise (Parse_error (l, msg))) lines

let parse_lines_lenient lines =
  let errors = ref [] in
  match parse_lines_gen ~on_error:(fun l msg -> errors := (l, msg) :: !errors) lines with
  | instance, _ -> Ok (instance, List.rev !errors)
  | exception Parse_error (l, msg) -> Error (l, msg)

let arrival arrivals id = match List.assoc_opt id arrivals with Some a -> a | None -> 0
let parse_string s = parse_lines (String.split_on_char '\n' s)
let parse_string_timed s = parse_lines_timed (String.split_on_char '\n' s)
let parse_string_lenient s = parse_lines_lenient (String.split_on_char '\n' s)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let parse_file path = parse_lines (read_lines path)
let parse_file_timed path = parse_lines_timed (read_lines path)
let parse_file_lenient path = parse_lines_lenient (read_lines path)

let to_string ?(arrivals = []) instance =
  let suffix id = match List.assoc_opt id arrivals with
    | Some a when a > 0 -> Printf.sprintf " arrival %d" a
    | _ -> ""
  in
  match instance with
  | Slotted_instance inst ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "slotted\n";
      Buffer.add_string buf (Printf.sprintf "g %d\n" inst.Slotted.g);
      Array.iter
        (fun (j : Slotted.job) ->
          Buffer.add_string buf
            (Printf.sprintf "job %d %d %d %d%s\n" j.Slotted.id j.Slotted.release j.Slotted.deadline
               j.Slotted.length (suffix j.Slotted.id)))
        inst.Slotted.jobs;
      Buffer.contents buf
  | Busy_instance jobs ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "busy\n";
      List.iter
        (fun (j : Bjob.t) ->
          Buffer.add_string buf
            (Printf.sprintf "job %d %s %s %s%s\n" j.Bjob.id (Q.to_string j.Bjob.release)
               (Q.to_string j.Bjob.deadline) (Q.to_string j.Bjob.length) (suffix j.Bjob.id)))
        jobs;
      Buffer.contents buf
