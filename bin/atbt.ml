(* atbt - command-line interface to the active/busy time library.

     atbt generate --kind flexible --n 20 --seed 7 -o jobs.txt
     atbt active jobs.txt --algorithm rounding
     atbt active jobs.txt --budget 100000 --cascade --format json
     atbt busy jobs.txt -g 4 --algorithm greedy-tracking
     atbt bounds jobs.txt -g 4
     atbt --list-solvers

   Instance files are the plain-text format of {!Workload.Io}.

   Every [--algorithm <name>] resolves through {!Core.Registry} — the
   CLI carries no per-solver dispatch. [--list-solvers] prints the full
   registry (kind, name, quality, capability flags, paper artifact).

   Failures are structured values, not mid-function exits, so the exit
   codes are meaningful: 0 success, 1 usage/parse error, 2 internal
   error (a solver produced an invalid answer) or an algorithm name the
   registry does not know, 3 fuel budget exhausted without an answer.

   [--format text] (the default) keeps the historical human-readable
   output. [--format json] emits exactly one machine-readable document on
   stdout — schema documented in README.md — carrying the instance
   digest, algorithm, cost, lower bounds, cascade provenance and the
   solver telemetry (Obs counters and span tree). The document is emitted
   on every path, including usage errors and budget exhaustion, with
   [status] / [exit] mirroring the process exit code. *)

module Q = Rational
module S = Workload.Slotted
module B = Workload.Bjob
module Io = Workload.Io
module J = Obs.Json
module CI = Core.Instance
module CR = Core.Result
module CS = Core.Solver

open Cmdliner

(* single source of truth, shared with the serve protocol *)
let version = Serve.Protocol.version

type failure =
  | Usage of string  (* bad flags or unparseable input: exit 1 *)
  | Internal of string  (* a solver broke its own contract: exit 2 *)
  | Unknown_solver of string  (* --algorithm not in the registry: exit 2 *)
  | Fuel_exhausted of string  (* budget ran out without an answer: exit 3 *)

let ( let* ) = Stdlib.Result.bind

let finish = function
  | Ok () -> 0
  | Error (Usage msg) ->
      prerr_endline ("atbt: " ^ msg);
      1
  | Error (Internal msg) ->
      prerr_endline ("atbt: internal error: " ^ msg);
      2
  | Error (Unknown_solver msg) ->
      prerr_endline ("atbt: " ^ msg);
      2
  | Error (Fuel_exhausted msg) ->
      prerr_endline ("atbt: " ^ msg);
      3

(* The instance and the load's per-line warnings. [~lenient] (the JSON
   paths) turns a malformed job line into a warning in the document
   instead of aborting the whole run; only whole-file problems (bad
   header, missing file) stay fatal. *)
let load ~lenient path =
  let at line msg = Error (Usage (Printf.sprintf "%s:%d: %s" path line msg)) in
  match if lenient then Io.parse_file_lenient path else Ok (Io.parse_file path, []) with
  | Ok loaded -> Ok loaded
  | Error (line, msg) | (exception Io.Parse_error (line, msg)) -> at line msg
  | exception Sys_error msg -> Error (Usage msg)

(* Every file the CLI creates goes through here so that an unwritable
   path surfaces as a Usage error (exit 1) instead of an uncaught
   [Sys_error] crash. *)
let write_text_file path contents =
  try
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents);
    Ok ()
  with Sys_error msg -> Error (Usage msg)

(* [--svg FILE] of every command. Text mode ([~say]) reports the write;
   JSON mode keeps stdout to its one document. *)
let write_svg ~say svg contents =
  match svg with
  | None -> Ok ()
  | Some file ->
      let* () = write_text_file file (contents ()) in
      if say then Printf.printf "wrote %s\n" file;
      Ok ()

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* ----------------------------------------------------- registry access -- *)

let resolve kind name =
  match Core.Registry.find kind name with
  | Some s -> Ok s
  | None ->
      Error
        (Unknown_solver
           (Printf.sprintf "unknown algorithm %s (valid for %s: %s; see atbt --list-solvers)"
              name (CI.kind_name kind)
              (String.concat "|" (Core.Registry.names kind))))

(* Run a registered solver, its answer checked by [Registry.run], and
   map its structured exceptions onto the CLI failure space. *)
let run_solver (s : CS.t) ?budget ?obs ?params inst =
  match Core.Registry.run s ?budget ?obs ?params inst with
  | r -> Ok r
  | exception CS.Unsupported msg -> Error (Usage msg)
  | exception CS.Bad_result msg -> Error (Internal msg)

let limited_budget budget = Option.map Budget.limited budget

(* the model-specific spelling of an exhausted incumbent *)
let incumbent_string = function
  | CR.Slots n -> Printf.sprintf "cost %d" n
  | CR.Busy q | CR.Value q -> Q.to_string q

let print_provenance = function
  | None -> ()
  | Some p ->
      let pp_cost fmt o = Format.pp_print_string fmt (CR.objective_to_string o) in
      Format.printf "%a" (Budget.Cascade.pp_provenance ~pp_cost) p

(* The message when a budget ran out without a definitive answer; the
   solver provides the stem, the incumbent (when any) the detail. *)
let exhausted_message (s : CS.t) ~spent objective =
  match objective with
  | Some obj ->
      Printf.sprintf "%s after %d ticks; best incumbent %s, not proven optimal; try --cascade"
        s.CS.exhausted_hint spent (incumbent_string obj)
  | None -> s.CS.exhausted_hint ^ "; try --cascade"

(* ---------------------------------------------------------- telemetry -- *)

(* One JSON document per invocation; [status] and [exit] mirror the
   process exit code so a consumer never needs the exit code separately. *)
let emit_json ~warnings ~command ~algorithm ~instance ~status ~code ~message ~cost ~bounds
    ~provenance obs =
  let warnings_json =
    (* present only when non-empty, so warning-free documents are
       byte-identical to the previous schema *)
    if warnings = [] then []
    else
      [ ( "warnings",
          J.List
            (List.map
               (fun (line, msg) -> J.Obj [ ("line", J.Int line); ("message", J.String msg) ])
               warnings) ) ]
  in
  let doc =
    J.Obj
      ([ ("schema", J.Int 1);
         ("tool", J.String "atbt");
         ("version", J.String version);
         ("command", J.String command);
         ("algorithm", J.String algorithm);
         ("instance", instance);
         ("status", J.String status);
         ("exit", J.Int code);
         ("message", match message with Some m -> J.String m | None -> J.Null) ]
      @ warnings_json
      @ [ ("cost", cost);
          ("bounds", bounds);
          ("provenance", provenance);
          ("counters", Obs.counters_to_json obs);
          ("spans", Obs.spans_to_json obs) ])
  in
  print_endline (J.to_string doc);
  code

(* JSON-mode driver: [result] is the answer (status, cost, bounds,
   provenance, message) or a structured failure; [warnings] and
   [instance] are what the steps knew when they stopped. Either way
   exactly one document is printed. *)
let finish_json ~command ~algorithm ?(warnings = []) ?(instance = J.Null) obs result =
  let emit = emit_json ~warnings ~command ~algorithm ~instance in
  match result with
  | Ok (status, cost, bounds, provenance, message) ->
      emit ~status ~code:0 ~message ~cost ~bounds ~provenance obs
  | Error f ->
      let status, code, msg =
        match f with
        | Usage m -> ("usage-error", 1, m)
        | Internal m -> ("internal-error", 2, m)
        | Unknown_solver m -> ("usage-error", 2, m)
        | Fuel_exhausted m -> ("budget-exhausted", 3, m)
      in
      emit ~status ~code ~message:(Some msg) ~cost:J.Null ~bounds:J.Null ~provenance:J.Null obs

(* A document field from a step's outcome: [f v] when the step got [v],
   [default] when it failed before getting there. *)
let known f default = function Ok v -> f v | Error _ -> default

let slotted_instance_json inst =
  J.Obj
    [ ("digest", J.String (Obs.digest (Io.to_string (Io.Slotted_instance inst))));
      ("kind", J.String "slotted");
      ("jobs", J.Int (S.num_jobs inst));
      ("horizon", J.Int (S.horizon inst));
      ("g", J.Int inst.S.g) ]

let busy_instance_json ~g jobs =
  J.Obj
    [ ("digest", J.String (Obs.digest (Io.to_string (Io.Busy_instance jobs))));
      ("kind", J.String "busy");
      ("jobs", J.Int (List.length jobs));
      ("g", J.Int g) ]

let parse_format = function
  | "text" -> Ok `Text
  | "json" -> Ok `Json
  | other -> Error (Usage ("unknown format " ^ other ^ " (text|json)"))

(* the one check wherever -g is read; slotted instances carry their own g *)
let check_g g = if g < 1 then Error (Usage "-g must be at least 1") else Ok ()

(* ------------------------------------------------------------ generate -- *)

let generate kind n g horizon seed output =
  finish
    (let* () = if n < 1 then Error (Usage "-n must be at least 1") else Ok () in
     let* () = if horizon < 1 then Error (Usage "--horizon must be at least 1") else Ok () in
     let* instance =
       match kind with
       | "slotted" ->
           let* () = check_g g in
           let params : Workload.Generate.slotted_params =
             { n; horizon; max_length = 4; slack = 4; g }
           in
           Ok (Io.Slotted_instance (Workload.Generate.slotted ~params ~seed ()))
       | "interval" -> Ok (Io.Busy_instance (Workload.Generate.interval_jobs ~n ~horizon ~seed ()))
       | "flexible" -> Ok (Io.Busy_instance (Workload.Generate.flexible_jobs ~n ~horizon ~seed ()))
       | other -> Error (Usage ("unknown kind " ^ other ^ " (slotted|interval|flexible)"))
     in
     match output with
     | None ->
         print_string (Io.to_string instance);
         Ok ()
     | Some path ->
         let* () = write_text_file path (Io.to_string instance) in
         Printf.printf "wrote %s\n" path;
         Ok ())

let generate_cmd =
  let kind =
    Arg.(value & opt string "flexible" & info [ "kind" ] ~docv:"KIND" ~doc:"slotted, interval or flexible")
  in
  let n = Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc:"number of jobs") in
  let g = Arg.(value & opt int 3 & info [ "g" ] ~docv:"G" ~doc:"capacity (slotted instances)") in
  let horizon = Arg.(value & opt int 24 & info [ "horizon" ] ~docv:"T" ~doc:"time horizon") in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"random seed") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"output file") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random instance")
    Term.(const generate $ kind $ n $ g $ horizon $ seed $ output)

(* -------------------------------------------------------------- active -- *)

let print_active_solution inst sol render svg =
  Format.printf "%a" Active.Solution.pp sol;
  if render then print_string (Render.slotted inst sol);
  let* () = write_svg ~say:true svg (fun () -> Render.slotted_svg inst sol) in
  let report = Sim.Replay.run_active inst sol in
  Printf.printf "energy %s, power-ons %d, utilization %s\n"
    (Q.to_string report.Sim.Replay.total_energy) report.Sim.Replay.total_switch_ons
    (Q.to_string report.Sim.Replay.utilization);
  Ok ()

let check_budget = function
  | Some n when n < 0 -> Error (Usage "--budget must be nonnegative")
  | _ -> Ok ()

let check_order = function
  | "l2r" | "r2l" -> Ok ()
  | o -> Error (Usage ("unknown order " ^ o ^ " (l2r|r2l)"))

let active_solution_of = function
  | Some (CR.Opened { open_slots; schedule }) -> Some { Active.Solution.open_slots; schedule }
  | _ -> None

(* Both formats, once the instance is loaded: the order check, then the
   registered solver, run and checked. *)
let active_answer ~obs inst algorithm order budget =
  let* () = check_order order in
  let* solver = resolve CI.Active_slotted algorithm in
  let* r =
    run_solver solver ?budget:(limited_budget budget) ~obs ~params:[ ("order", order) ] (CI.Slotted inst)
  in
  Ok (inst, solver, r)

let active_text ~render ~svg (inst, (solver : CS.t), (r : CR.t)) =
  print_provenance r.CR.provenance;
  Option.iter print_endline r.CR.note;
  match r.CR.status with
  | CR.Exhausted { spent } ->
      (match (r.CR.objective, active_solution_of r.CR.witness) with
      | Some (CR.Slots c), Some sol ->
          Printf.printf
            "budget exhausted after %d ticks; best incumbent (cost %d, not proven optimal):\n"
            spent c;
          Format.printf "%a" Active.Solution.pp sol
      | _ -> ());
      Error (Fuel_exhausted (solver.CS.exhausted_hint ^ "; try --cascade"))
  | CR.Infeasible -> Ok (print_endline "infeasible")
  | CR.Solved -> (
      match (active_solution_of r.CR.witness, r.CR.objective) with
      | Some sol, _ -> print_active_solution inst sol render svg
      | None, Some obj ->
          (* bound-quality solvers witness no schedule *)
          Ok (Printf.printf "objective %s\n" (CR.objective_to_string obj))
      | None, None -> Ok ())

(* [--render] is a no-op in JSON (ASCII art would corrupt the document);
   [--svg FILE] still writes. *)
let active_json ~svg (inst, (solver : CS.t), (r : CR.t)) =
  let bounds = J.Obj [ ("mass", J.Int (S.mass_lower_bound inst)) ] in
  let prov = CR.provenance_to_json r.CR.provenance in
  match r.CR.status with
  | CR.Exhausted { spent } ->
      Error (Fuel_exhausted (exhausted_message solver ~spent r.CR.objective))
  | CR.Infeasible -> Ok ("infeasible", J.Null, bounds, prov, r.CR.note)
  | CR.Solved ->
      let* () =
        match active_solution_of r.CR.witness with
        | Some sol -> write_svg ~say:false svg (fun () -> Render.slotted_svg inst sol)
        | None -> Ok ()
      in
      let cost = Option.fold ~none:J.Null ~some:CR.objective_to_json r.CR.objective in
      Ok ("ok", cost, bounds, prov, r.CR.note)

(* Text and JSON share every step up to the output; only JSON loads
   leniently and records telemetry. [--cascade] is sugar for the
   registered composite solver. *)
let active_solve path algorithm order budget cascade render svg format verbose =
  setup_logs verbose;
  let algorithm = if cascade then "cascade" else algorithm in
  match parse_format format with
  | Error e -> finish (Error e)
  | Ok format -> (
      let json = format = `Json in
      let obs = if json then Obs.create () else Obs.null in
      let loaded =
        let* () = check_budget budget in
        load ~lenient:json path
      in
      let inst =
        let* instance, _ = loaded in
        match instance with
        | Io.Slotted_instance inst -> Ok inst
        | Io.Busy_instance _ -> Error (Usage "active expects a slotted instance")
      in
      let answer =
        let* inst = inst in
        active_answer ~obs inst algorithm order budget
      in
      match format with
      | `Text -> finish (Result.bind answer (active_text ~render ~svg))
      | `Json ->
          finish_json ~command:"active" ~algorithm ~warnings:(known snd [] loaded)
            ~instance:(known slotted_instance_json J.Null inst)
            obs
            (Result.bind answer (active_json ~svg)))

let budget_arg =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N" ~doc:"fuel budget in solver ticks (search nodes / simplex pivots)")

let cascade_arg =
  Arg.(value & flag & info [ "cascade" ] ~doc:"degrade exact -> approximation -> greedy within the budget, with provenance")

let format_arg =
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc:"output format: text (human-readable, default) or json (one telemetry document on stdout)")

let active_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let algorithm =
    Arg.(value & opt string "rounding" & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"a registered active-slotted solver (see --list-solvers)")
  in
  let order = Arg.(value & opt string "r2l" & info [ "order" ] ~docv:"ORDER" ~doc:"closing order for minimal: l2r or r2l") in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"print an ASCII Gantt chart") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"write an SVG Gantt chart") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"trace algorithm decisions") in
  Cmd.v
    (Cmd.info "active" ~doc:"Minimize active time of a slotted instance")
    Term.(const active_solve $ path $ algorithm $ order $ budget_arg $ cascade_arg $ render $ svg $ format_arg $ verbose)

(* ---------------------------------------------------------------- busy -- *)

let print_packing ~g packing render svg =
  Printf.printf "total busy time: %s on %d machines\n"
    (Q.to_string (Busy.Bundle.total_busy packing))
    (List.length packing);
  Format.printf "%a" Busy.Bundle.pp packing;
  if render then print_string (Render.packing packing);
  let* () = write_svg ~say:true svg (fun () -> Render.packing_svg packing) in
  let report = Sim.Replay.run_packing ~g packing in
  Printf.printf "energy %s, power-ons %d, peak %d, utilization %s\n"
    (Q.to_string report.Sim.Replay.total_energy)
    report.Sim.Replay.total_switch_ons report.Sim.Replay.peak_parallelism
    (Q.to_string report.Sim.Replay.utilization);
  Ok ()

let parse_placement = function
  | "greedy" -> Ok Busy.Pipeline.Greedy_placement
  | "exact" -> Ok Busy.Pipeline.Exact_placement
  | o -> Error (Usage ("unknown placement " ^ o ^ " (greedy|exact)"))

let busy_packing_of = function Some (CR.Packing p) -> Some p | _ -> None

(* The preemptive model's objectives under unbounded capacity (Thm 6)
   and under capacity g (Thm 7). *)
let preemptive_costs ~obs ~g jobs =
  let objective name =
    let* solver = resolve CI.Busy_preemptive name in
    let* r = run_solver solver ~obs (CI.Preemptive { g; jobs }) in
    match r.CR.objective with
    | Some (CR.Busy q) -> Ok q
    | _ -> Error (Internal (name ^ " returned no objective"))
  in
  let* unbounded = objective "preemptive-unbounded" in
  let* bounded = objective "preemptive" in
  Ok (unbounded, bounded)

(* Both formats, once the jobs are loaded: place the (possibly flexible)
   jobs, then the registered interval solver on the pinned instance,
   run and checked. *)
let busy_answer ~obs ~g jobs algorithm placement budget =
  let* mode = parse_placement placement in
  let pinned = Busy.Pipeline.place mode jobs in
  let* solver = resolve CI.Busy_interval algorithm in
  let* r = run_solver solver ?budget:(limited_budget budget) ~obs (CI.Interval { g; jobs = pinned }) in
  Ok (pinned, solver, r)

let busy_text ~g ~render ~svg (_, (solver : CS.t), (r : CR.t)) =
  print_provenance r.CR.provenance;
  Option.iter print_endline r.CR.note;
  match r.CR.status with
  | CR.Exhausted { spent } ->
      (match r.CR.objective with
      | Some obj ->
          Printf.printf "budget exhausted after %d ticks; best incumbent %s (not proven optimal)\n"
            spent (CR.objective_to_string obj)
      | None -> ());
      Error (Fuel_exhausted (solver.CS.exhausted_hint ^ "; try --cascade"))
  | CR.Infeasible -> Error (Internal "cascade returned no packing")
  | CR.Solved -> (
      match busy_packing_of r.CR.witness with
      | Some packing -> print_packing ~g packing render svg
      | None -> Error (Internal (solver.CS.name ^ " returned no packing")))

let rational_json v = J.String (Q.to_string v)

(* Bounds are the Section-4.1 lower bounds on the pinned instance;
   [cost] is the packing's total busy time as an exact rational
   string. *)
let busy_json ~g ~svg (pinned, (solver : CS.t), (r : CR.t)) =
  let bounds =
    J.Obj
      (("mass", rational_json (Busy.Bounds.mass ~g pinned))
      ::
      (if pinned <> [] && List.for_all B.is_interval pinned then
         [ ("span", rational_json (Busy.Bounds.span pinned));
           ("demand_profile", rational_json (Busy.Bounds.demand_profile ~g pinned)) ]
       else []))
  in
  match r.CR.status with
  | CR.Exhausted { spent } ->
      Error (Fuel_exhausted (exhausted_message solver ~spent r.CR.objective))
  | CR.Infeasible -> Error (Internal "cascade returned no packing")
  | CR.Solved -> (
      match busy_packing_of r.CR.witness with
      | Some packing ->
          let* () = write_svg ~say:false svg (fun () -> Render.packing_svg packing) in
          let cost = rational_json (Busy.Bundle.total_busy packing) in
          Ok ("ok", cost, bounds, CR.provenance_to_json r.CR.provenance, r.CR.note)
      | None -> Error (Internal (solver.CS.name ^ " returned no packing")))

(* As [active_solve]: one load and one answer step for both formats. *)
let busy_solve path g algorithm placement preemptive budget cascade render svg format =
  let algorithm = if cascade then "cascade" else algorithm in
  match parse_format format with
  | Error e -> finish (Error e)
  | Ok format -> (
      let json = format = `Json in
      let obs = if json then Obs.create () else Obs.null in
      let loaded =
        let* () = check_budget budget in
        let* () = check_g g in
        load ~lenient:json path
      in
      let jobs =
        let* instance, _ = loaded in
        match instance with
        | Io.Busy_instance jobs -> Ok jobs
        | Io.Slotted_instance _ -> Error (Usage "busy expects a busy-time instance")
      in
      let answer jobs = busy_answer ~obs ~g jobs algorithm placement budget in
      match format with
      | `Text ->
          finish
            (let* jobs = jobs in
             if preemptive then
               let* unbounded, bounded = preemptive_costs ~obs ~g jobs in
               Ok
                 (Printf.printf "preemptive busy time: unbounded capacity %s, capacity %d: %s\n"
                    (Q.to_string unbounded) g (Q.to_string bounded))
             else Result.bind (answer jobs) (busy_text ~g ~render ~svg))
      | `Json ->
          finish_json ~command:"busy"
            ~algorithm:(if preemptive then "preemptive" else algorithm)
            ~warnings:(known snd [] loaded)
            ~instance:(known (busy_instance_json ~g) J.Null jobs)
            obs
            (let* jobs = jobs in
             if preemptive then
               let* unbounded, bounded = preemptive_costs ~obs ~g jobs in
               let bounds =
                 J.Obj
                   [ ("mass", rational_json (Busy.Bounds.mass ~g jobs));
                     ("preemptive_unbounded", rational_json unbounded) ]
               in
               Ok ("ok", rational_json bounded, bounds, J.Null, None)
             else Result.bind (answer jobs) (busy_json ~g ~svg)))

let busy_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let g = Arg.(value & opt int 2 & info [ "g" ] ~docv:"G" ~doc:"machine capacity") in
  let algorithm =
    Arg.(value & opt string "greedy-tracking" & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"a registered busy-interval solver (see --list-solvers)")
  in
  let placement =
    Arg.(value & opt string "greedy" & info [ "placement" ] ~docv:"P" ~doc:"flexible-job placement: greedy or exact")
  in
  let preemptive = Arg.(value & flag & info [ "preemptive" ] ~doc:"preemptive model (Theorems 6/7)") in
  let render = Arg.(value & flag & info [ "render" ] ~doc:"print an ASCII Gantt chart") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"write an SVG Gantt chart") in
  Cmd.v
    (Cmd.info "busy" ~doc:"Minimize busy time of a job set")
    Term.(const busy_solve $ path $ g $ algorithm $ placement $ preemptive $ budget_arg $ cascade_arg $ render $ svg $ format_arg)

(* -------------------------------------------------------------- bounds -- *)

let bounds path g =
  finish
    (let* instance, _ = load ~lenient:false path in
     match instance with
     | Io.Slotted_instance inst ->
         Printf.printf "slotted instance: n=%d T=%d g=%d\n" (S.num_jobs inst) (S.horizon inst) inst.S.g;
         Printf.printf "mass lower bound ceil(P/g): %d\n" (S.mass_lower_bound inst);
         (match Active.Lp_model.solve inst with
         | Some lp -> Printf.printf "LP lower bound: %s\n" (Q.to_string lp.Active.Lp_model.cost)
         | None -> print_endline "LP: infeasible");
         Ok ()
     | Io.Busy_instance jobs ->
         let* () = check_g g in
         Printf.printf "busy instance: n=%d\n" (List.length jobs);
         Printf.printf "mass bound l(J)/g: %s\n" (Q.to_string (Busy.Bounds.mass ~g jobs));
         if List.for_all B.is_interval jobs then begin
           Printf.printf "span bound Sp(J): %s\n" (Q.to_string (Busy.Bounds.span jobs));
           Printf.printf "demand profile bound: %s\n" (Q.to_string (Busy.Bounds.demand_profile ~g jobs))
         end
         else begin
           let pinned = Busy.Placement.greedy jobs in
           Printf.printf "span bound (greedy placement): %s\n"
             (Q.to_string (Intervals.span (List.map B.interval_of pinned)))
         end;
         Ok ())

let bounds_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let g = Arg.(value & opt int 2 & info [ "g" ] ~docv:"G" ~doc:"machine capacity") in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print lower bounds for an instance")
    Term.(const bounds $ path $ g)

(* ----------------------------------------------------------------- sim -- *)

(* Rolling-horizon replay: the trace (slotted directly, busy converted
   through [Sim.Rolling.of_busy]) is re-solved epoch by epoch, warm by
   default; see lib/sim/rolling.mli for the loop semantics. The window
   solver's name resolves like --algorithm elsewhere: unknown is exit 2,
   any other refusal (a bound-only solver, a failed precondition) is a
   usage error. *)

let load_timed path =
  try Ok (Io.parse_file_timed path) with
  | Io.Parse_error (line, msg) -> Error (Usage (Printf.sprintf "%s:%d: %s" path line msg))
  | Sys_error msg -> Error (Usage msg)

let sim_config algorithm epoch_len lookahead epoch_budget deadline_ms cold =
  let* () = if epoch_len >= 1 then Ok () else Error (Usage "--epoch-len must be at least 1") in
  let* () =
    match lookahead with
    | Some la when la < epoch_len -> Error (Usage "--lookahead must be at least --epoch-len")
    | _ -> Ok ()
  in
  let* () = check_budget epoch_budget in
  let* epoch_deadline =
    match deadline_ms with
    | None -> Ok None
    | Some 0 ->
        (* deterministic: the probe fires on the first tick of every
           epoch solve, exercising the degraded path reproducibly *)
        Ok (Some (fun () () -> true))
    | Some ms when ms > 0 ->
        Ok
          (Some
             (fun () ->
               let t0 = Unix.gettimeofday () in
               fun () -> (Unix.gettimeofday () -. t0) *. 1000.0 > float_of_int ms))
    | Some _ -> Error (Usage "--epoch-deadline-ms must be nonnegative")
  in
  Ok
    {
      Sim.Rolling.epoch_len;
      lookahead;
      algorithm;
      epoch_budget = (match epoch_budget with Some _ -> epoch_budget | None -> Some 500_000);
      epoch_deadline;
      warm = not cold;
    }

let sim_run ?obs path g algorithm epoch_len lookahead epoch_budget deadline_ms cold =
  let* config = sim_config algorithm epoch_len lookahead epoch_budget deadline_ms cold in
  let* instance, arrivals = load_timed path in
  let* inst =
    match instance with
    | Io.Slotted_instance inst -> Ok inst
    | Io.Busy_instance jobs -> (
        let* () = check_g g in
        try Ok (Sim.Rolling.of_busy ~g jobs) with Invalid_argument msg -> Error (Usage msg))
  in
  match Sim.Rolling.run ?obs ~config ~arrivals inst with
  | r -> Ok (inst, r)
  | exception CS.Unsupported msg -> (
      match Core.Registry.find CI.Active_slotted algorithm with
      | None -> Error (Unknown_solver msg)
      | Some _ -> Error (Usage msg))

let sim_text path g algorithm epoch_len lookahead epoch_budget deadline_ms cold svg =
  finish
    (let* _, r = sim_run path g algorithm epoch_len lookahead epoch_budget deadline_ms cold in
     Format.printf "%a" Sim.Rolling.pp r;
     write_svg ~say:true svg (fun () -> Render.epochs_svg r))

let sim_json path g algorithm epoch_len lookahead epoch_budget deadline_ms cold svg =
  let obs = Obs.create () in
  let result =
    let* inst, r = sim_run ~obs path g algorithm epoch_len lookahead epoch_budget deadline_ms cold in
    let* () = write_svg ~say:false svg (fun () -> Render.epochs_svg r) in
    Ok (inst, r)
  in
  match result with
  | Ok (inst, r) ->
      let body =
        match Sim.Rolling.to_json r with
        | J.Obj fields -> List.filter (fun (k, _) -> k <> "schema") fields
        | other -> [ ("run", other) ]
      in
      let doc =
        J.Obj
          ([ ("schema", J.Int 1);
             ("tool", J.String "atbt");
             ("version", J.String version);
             ("command", J.String "sim");
             ("status", J.String "ok");
             ("exit", J.Int 0);
             ("instance", slotted_instance_json inst) ]
          @ body
          @ [ ("counters", Obs.counters_to_json obs) ])
      in
      print_endline (J.to_string doc);
      0
  | Error f -> finish_json ~command:"sim" ~algorithm obs (Error f)

let sim_solve path g algorithm epoch_len lookahead epoch_budget deadline_ms cold svg format =
  match parse_format format with
  | Error e -> finish (Error e)
  | Ok `Text -> sim_text path g algorithm epoch_len lookahead epoch_budget deadline_ms cold svg
  | Ok `Json -> sim_json path g algorithm epoch_len lookahead epoch_budget deadline_ms cold svg

let sim_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let g =
    Arg.(value & opt int 2 & info [ "g" ] ~docv:"G" ~doc:"capacity when converting a busy trace (slotted instances carry their own)")
  in
  let algorithm =
    Arg.(value & opt string "cascade" & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"registered active-slotted solver for the per-epoch window re-solve")
  in
  let epoch_len =
    Arg.(value & opt int 4 & info [ "epoch-len" ] ~docv:"L" ~doc:"slots committed per epoch")
  in
  let lookahead =
    Arg.(value & opt (some int) None & info [ "lookahead" ] ~docv:"W" ~doc:"window extent in slots beyond now (default: the full horizon)")
  in
  let epoch_budget =
    Arg.(value & opt (some int) None & info [ "epoch-budget" ] ~docv:"N" ~doc:"fuel budget per epoch solve (default 500000)")
  in
  let deadline_ms =
    Arg.(value & opt (some int) None & info [ "epoch-deadline-ms" ] ~docv:"MS" ~doc:"wall-clock deadline per epoch solve; 0 degrades every epoch deterministically")
  in
  let cold = Arg.(value & flag & info [ "cold" ] ~doc:"rebuild the warm state every epoch (the bench baseline)") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"write a per-epoch SVG strip") in
  Cmd.v
    (Cmd.info "sim" ~doc:"Replay a trace through rolling-horizon re-optimization")
    Term.(const sim_solve $ path $ g $ algorithm $ epoch_len $ lookahead $ epoch_budget $ deadline_ms $ cold $ svg $ format_arg)

(* --------------------------------------------------------------- serve -- *)

(* Long-running batched solve daemon: line-delimited JSON requests on
   stdin, one schema-1 response line per request on stdout. Request
   faults (malformed lines, solver crashes, expired deadlines, shed
   requests) are structured responses, never daemon exits — serve
   returns non-zero only for unusable flags (1) or a response stream
   that died under it (1, reported on stderr: the one fault that
   cannot be answered with a response). *)
let serve domains queue budget cache inject timing =
  let config =
    let* () = check_budget budget in
    let* () = if domains >= 1 then Ok () else Error (Usage "--domains must be at least 1") in
    let* () = if queue >= 1 then Ok () else Error (Usage "--queue must be at least 1") in
    let* () = if cache >= 0 then Ok () else Error (Usage "--cache must be nonnegative") in
    let* inject =
      match inject with
      | None -> Ok (Serve.Inject.none ())
      | Some spec -> Result.map_error (fun msg -> Usage msg) (Serve.Inject.parse spec)
    in
    let defaults = Serve.default_config () in
    Ok
      {
        defaults with
        Serve.domains;
        queue_capacity = queue;
        default_budget = (match budget with Some _ -> budget | None -> defaults.Serve.default_budget);
        cache_capacity = cache;
        inject;
        timing;
      }
  in
  match config with
  | Error e -> finish (Error e)
  | Ok config -> Serve.run ~config stdin stdout

let serve_cmd =
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"worker domains solving in parallel (default 1: deterministic single-worker order)")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc:"bounded request queue capacity; requests beyond it are shed with status overloaded")
  in
  let cache =
    Arg.(value & opt int 1024 & info [ "cache" ] ~docv:"N" ~doc:"memoized answers kept (FIFO); 0 disables the cache")
  in
  let inject =
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"SPEC" ~doc:"fault injection spec crash=P,delay=MS@P,corrupt=P,seed=N")
  in
  let timing = Arg.(value & flag & info [ "timing" ] ~doc:"add elapsed_us to every response") in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve solve requests from stdin (line-delimited JSON)")
    Term.(const serve $ domains $ queue $ budget_arg $ cache $ inject $ timing)

(* -------------------------------------------------------- list-solvers -- *)

(* One line per registered solver, deterministically ordered by
   (kind, name); test/cli.t diffs this against test/list_solvers.golden. *)
let list_solvers () =
  Printf.printf "%-16s %-20s %-11s %-24s %s\n" "KIND" "NAME" "QUALITY" "FLAGS" "PAPER";
  List.iter
    (fun (s : CS.t) ->
      Printf.printf "%-16s %-20s %-11s %-24s %s\n" (CI.kind_name s.CS.kind) s.CS.name
        (CS.quality_to_string s.CS.quality)
        (CS.flags_to_string s) s.CS.paper)
    Core.Registry.all

(* ---------------------------------------------------------------- main -- *)

let () =
  (* intercepted before Cmdliner: a top-level flag on a subcommand group
     would otherwise change the bare `atbt` behaviour *)
  if Array.exists (fun a -> a = "--list-solvers") Sys.argv then begin
    list_solvers ();
    exit 0
  end;
  let info =
    Cmd.info "atbt" ~version
      ~doc:"Minimizing active and busy time (Chang, Khuller, Mukherjee; SPAA 2014)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ generate_cmd; active_cmd; busy_cmd; bounds_cmd; sim_cmd; serve_cmd ]))
