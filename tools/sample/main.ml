(* A SIGPROF call-stack sampler: where an op's CPU time goes.

   It draws ops shaped like perfbench's workloads, from the same
   parameters, without linking perfbench/:

   - active_lp: parse a rendered slotted instance (n/T 12/20, 20/30 and
     28/40, max length 5, slack 6, g 3, interleaved), round LP1
     (Theorem 2) and verify the schedule;
   - sim_rolling: replay a timed trace (n 12, horizon 24, max length 4,
     slack 8, g 3, jobs known 12 slots ahead) with Sim.Rolling's default
     configuration.

   It replays them, pass after pass, until the time is up, with
   [Unix.setitimer ITIMER_PROF] asking for a signal every 0.5 ms of CPU
   time; the handler records the OCaml call stack. A function's
   inclusive share is the fraction of samples whose stack holds it (so
   nested functions overlap), its self share the fraction whose top
   frame it is. Inlined frames count as their own functions, and the
   kernel delivers signals no faster than its tick (about one per 4 ms
   of CPU on a 250 Hz kernel), so a run needs seconds for a few
   thousand samples.

   With [--callees FN] it also splits the samples that hold FN (a name
   as the table prints it) by the function FN called in them: the frame
   just inside FN's innermost one, or FN's own code when FN is on top.

     dune build @all
     _build/default/tools/sample/main.exe active_lp --seconds 10
     _build/default/tools/sample/main.exe sim_rolling --seconds 10 --top 30
     _build/default/tools/sample/main.exe active_lp --callees Lp.solve_sparse_warm *)

module S = Workload.Slotted
module Gen = Workload.Generate
module Io = Workload.Io

(* Copies of perfbench's parameters, with nothing tying them together:
   [active_sizes] and [feasible] mirror perfbench/active_lp.ml's
   [sizes] and [feasible], [sim_params] and [sim_lead]
   perfbench/sim_rolling.ml's [params] and [lead], and [ops] the two
   workloads' op bodies. They must change with those files, or the
   shares this prints stop being the benchmark's. *)
let active_sizes : Gen.slotted_params list =
  [
    { n = 12; horizon = 20; max_length = 5; slack = 6; g = 3 };
    { n = 20; horizon = 30; max_length = 5; slack = 6; g = 3 };
    { n = 28; horizon = 40; max_length = 5; slack = 6; g = 3 };
  ]

let sim_params : Gen.slotted_params = { n = 12; horizon = 24; max_length = 4; slack = 8; g = 3 }
let sim_lead = 12

let feasible inst = Active.Feasibility.feasible inst ~open_slots:(S.relevant_slots inst)

(* [k] ops of the workload, drawn from [seed]; an op raises on a wrong
   answer, so a sampled run is also a checked one. *)
let ops workload ~seed k =
  let st = Random.State.make [| seed |] in
  let next () = Random.State.bits st in
  match workload with
  | `Active_lp ->
      let sizes = Array.of_list active_sizes in
      let rec draw params =
        let text = Io.to_string (Io.Slotted_instance (Gen.slotted ~params ~seed:(next ()) ())) in
        match Io.parse_string text with
        | Io.Slotted_instance inst when feasible inst -> text
        | _ -> draw params
      in
      List.init k (fun i ->
          let text = draw sizes.(i mod Array.length sizes) in
          fun () ->
            match Io.parse_string text with
            | Io.Busy_instance _ -> failwith "not a slotted instance"
            | Io.Slotted_instance inst -> (
                match Active.Rounding.solve inst with
                | None -> failwith "rounding reports a feasible instance infeasible"
                | Some (sol, _) -> (
                    match Active.Solution.verify inst sol with Some v -> failwith v | None -> ())))
  | `Sim_rolling ->
      let rec draw () =
        let inst, arrivals = Gen.timed_slotted ~params:sim_params ~lead:sim_lead ~seed:(next ()) () in
        match Io.parse_string_timed (Io.to_string ~arrivals (Io.Slotted_instance inst)) with
        | Io.Slotted_instance inst, arrivals when feasible inst -> (inst, arrivals)
        | _ -> draw ()
      in
      List.init k (fun _ ->
          let inst, arrivals = draw () in
          fun () -> ignore (Sim.Rolling.run ~config:Sim.Rolling.default_config ~arrivals inst))

(* "Active__Rounding.solve" reads "Active.Rounding.solve" *)
let pretty name =
  let b = Buffer.create (String.length name) in
  let i = ref 0 in
  while !i < String.length name do
    if !i + 1 < String.length name && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The function names of an op's frames, innermost first: the stack
   between the handler's frames, on top, and the op's closure, whose
   callers are the replay loop. *)
let frames stack =
  let sampler name =
    String.starts_with ~prefix:"Dune__exe__Main" name || String.starts_with ~prefix:"Stdlib__Printexc" name
  in
  let rec drop = function name :: rest when sampler name -> drop rest | names -> names in
  let rec take = function name :: rest when not (sampler name) -> name :: take rest | _ -> [] in
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots -> take (drop (List.filter_map Printexc.Slot.name (Array.to_list slots)))

let report ~workload ~seed ~top ~ops_run ~seconds samples =
  let total = List.length samples in
  let incl = Hashtbl.create 256 and self = Hashtbl.create 256 in
  let bump tbl name = Hashtbl.replace tbl name (1 + Option.value (Hashtbl.find_opt tbl name) ~default:0) in
  List.iter
    (fun stack ->
      List.iter (bump incl) (List.sort_uniq compare stack);
      match stack with top :: _ -> bump self top | [] -> ())
    samples;
  let count tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
  let share c = 100. *. float_of_int c /. float_of_int (max total 1) in
  Printf.printf "sample: %s, seed %d, %d samples over %d ops (%.1f s)\n" workload seed total ops_run seconds;
  Printf.printf "%7s %7s %8s  %s\n" "incl%" "self%" "samples" "function";
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) incl []
  |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
  |> List.filteri (fun i _ -> i < top)
  |> List.iter (fun (name, c) ->
         Printf.printf "%7.1f %7.1f %8d  %s\n" (share c) (share (count self name)) c (pretty name))

(* FN's direct-callee split: for each sample that holds FN, the frame
   just inside FN's innermost one, "(self)" when FN is on top *)
let report_callees ~fn samples =
  let split = Hashtbl.create 64 and held = ref 0 in
  let rec callee inner = function
    | [] -> None
    | name :: outer ->
        if pretty name = fn then Some (Option.fold ~none:"(self)" ~some:pretty inner)
        else callee (Some name) outer
  in
  List.iter
    (fun stack ->
      match callee None stack with
      | None -> ()
      | Some c ->
          incr held;
          Hashtbl.replace split c (1 + Option.value (Hashtbl.find_opt split c) ~default:0))
    samples;
  let share c n = 100. *. float_of_int c /. float_of_int (max n 1) in
  Printf.printf "callees of %s: %d samples (%.1f%% of all)\n" fn !held (share !held (List.length samples));
  Printf.printf "%7s %7s %8s  %s\n" "of fn%" "all%" "samples" "callee";
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) split []
  |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
  |> List.iter (fun (name, c) ->
         Printf.printf "%7.1f %7.1f %8d  %s\n" (share c !held) (share c (List.length samples)) c name)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and top = ref 40 in
  let callees = ref "" in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "S  draw the ops from seed S (default 1)");
      ("--seconds", Arg.Set_float seconds, "T  replay for about T seconds (default 10)");
      ("--top", Arg.Set_int top, "K  print the K functions of largest inclusive share (default 40)");
      ("--callees", Arg.Set_string callees, "FN  also print the split of FN's samples by FN's direct callee");
    ]
  in
  let usage = "main.exe active_lp|sim_rolling [--seed S] [--seconds T] [--top K] [--callees FN]" in
  Arg.parse spec (fun w -> workload := w) usage;
  let kind, k =
    match !workload with
    | "active_lp" -> (`Active_lp, 400)
    | "sim_rolling" -> (`Sim_rolling, 320)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let ops = ops kind ~seed:!seed k in
  (* one warm pass, unsampled *)
  List.iter (fun op -> op ()) ops;
  let samples = ref [] in
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> samples := frames (Printexc.get_callstack 256) :: !samples));
  let tick = 0.0005 in
  let start = Unix.gettimeofday () in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = tick; it_value = tick });
  let ops_run = ref 0 in
  let rec replay = function
    | _ when Unix.gettimeofday () -. start >= !seconds -> ()
    | [] -> replay ops
    | op :: rest ->
        op ();
        incr ops_run;
        replay rest
  in
  replay ops;
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  report ~workload:!workload ~seed:!seed ~top:!top ~ops_run:!ops_run
    ~seconds:(Unix.gettimeofday () -. start) !samples;
  if !callees <> "" then report_callees ~fn:!callees !samples
