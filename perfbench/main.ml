(* The repo benchmark: one workload per run, end-to-end metrics by
   default, per-layer metrics with --trace 1. See perfbench/README.md.

     main.exe --workload active_lp|serve_closed|sim_rolling
              [--seed N] [--seconds S] [--trace 0|1]

   Prints a table, then one {"report": ...} line with the run metadata,
   then the result line {"correct", "attempted", "failed", "metrics"}.
   Exits 1 when any answer is wrong, 2 on a usage error. *)

open Util

let default_seed = 1
let held_out_seed = 97

(* reported, but not in the result line: both are 0 on a clean run, and
   sla_miss_share exists on sim_rolling only *)
let reported_only = [ ("failed_share", "ratio"); ("sla_miss_share", "ratio") ]

let workloads =
  [ ("active_lp", Active_lp.run); ("serve_closed", Serve_closed.run); ("sim_rolling", Sim_rolling.run) ]

let usage_error msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

(* The result line's metrics, (name, unit) in order: the end-to-end and
   per-layer lists of BENCHMARK.json at the checkout root. *)
let manifest () =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> usage_error e
  in
  let doc = match J.parse text with Ok d -> d | Error e -> usage_error ("BENCHMARK.json: " ^ e) in
  let listed key =
    match J.member key doc with
    | Some (J.List items) ->
        List.map
          (fun m ->
            match (J.member "name" m, J.member "unit" m) with
            | Some (J.String n), Some (J.String u) -> (n, u)
            | _ -> usage_error ("BENCHMARK.json: malformed entry in " ^ key))
          items
    | _ -> usage_error ("BENCHMARK.json: no " ^ key ^ " list")
  in
  (listed "end_to_end", listed "per_layer")

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " active_lp | serve_closed | sim_rolling");
      ("--seed", Arg.Set_int seed, Printf.sprintf " workload seed (default %d; held-out seed %d)" default_seed held_out_seed);
      ("--seconds", Arg.Set_int seconds, " sizes the op list to about this many seconds (default 20)");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics (default 0)");
    ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  (try Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> usage_error m);
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> usage_error ("unknown workload '" ^ !workload ^ "' (" ^ String.concat ", " (List.map fst workloads) ^ ")")
  in
  if !seconds < 1 then usage_error "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then usage_error "--trace must be 0 or 1";
  let end_to_end, per_layer = manifest () in
  let traced = !trace = 1 in
  let calib_start = calib_ms () in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:traced in
  let calib_end = calib_ms () in
  let n = Array.length o.latencies_ms in
  let failed = List.length o.failures in
  let probes = Array.concat [ [| calib_start |]; o.setup.setup_probes; o.probes; [| calib_end |] ] in
  (* Every end-to-end time is scaled to the reference host by the probes
     taken around it (see Util.scale); the raw figures are in the
     report line. Percentiles are over every op of the run. *)
  let values =
    [
      ("setup_s", (o.setup.setup_s, Array.length o.setup.setup_raw_s));
      ("ops_per_s", (o.ops_per_s, o.attempted));
      ("latency_p50_ms", (percentile o.latencies_ms 0.5, n));
      ("latency_p90_ms", (percentile o.latencies_ms 0.9, n));
      ("cost_ratio", (o.cost_ratio, o.attempted));
      ("peak_rss_mb", (peak_rss_mb (), 1));
      ("failed_share", (ratio failed o.attempted, o.attempted));
    ]
    @ (match o.sla_miss_share with Some s -> [ ("sla_miss_share", (s, o.attempted)) ] | None -> [])
    @ List.map (fun (name, v) -> (name, (v, o.attempted))) o.layers
    @ [ ("host.calib_ms", (median probes, Array.length probes)) ]
    (* a traced run computes no cost_ratio *)
    |> List.filter (fun (_, (v, _)) -> Float.is_finite v)
  in
  let shown = if traced then per_layer else end_to_end @ reported_only in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d nproc=%d ocaml=%s\n" !workload !seed !seconds !trace
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some (v, samples) -> Printf.printf "  %-28s %14.6g %-6s n=%d\n" name v unit samples
      | None ->
          if traced then Printf.printf "  %-28s %14.6g %-6s (layer not called)\n" name 0. unit
          else Printf.printf "  %-28s %14s %-6s\n" name "n/a" unit)
    shown;
  if n > 0 && not traced then
    Printf.printf "  %d ops; samples beyond p50: %d, beyond p90: %d; %d host probes, median %.3f ms\n" n
      (beyond n 0.5) (beyond n 0.9) (Array.length probes) (median probes);
  List.iter (fun m -> Printf.printf "  FAILED %s\n" m) (List.filteri (fun i _ -> i < 10) o.failures);
  let floats a = J.List (Array.to_list (Array.map (fun x -> J.Float x) a)) in
  let metric (name, unit) =
    let v = match List.assoc_opt name values with Some (v, _) -> v | None -> 0. in
    (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ])
  in
  let report =
    J.Obj
      [
        ("workload", J.String !workload);
        ("seed", J.Int !seed);
        ("seconds", J.Int !seconds);
        ("trace", J.Int !trace);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("host.calib_ms_start", J.Float calib_start);
        ("host.calib_ms_end", J.Float calib_end);
        ("host.reference_probe_ms", J.Float reference_probe_ms);
        ("host.probe_ms", floats probes);
        ("setup_raw_s", floats o.setup.setup_raw_s);
        ("attempted", J.Int o.attempted);
        ("failed", J.Int failed);
        ("wrong", J.List (List.map (fun m -> J.String m) (List.filteri (fun i _ -> i < 10) o.wrong)));
        ("answer_digest", J.String o.digest);
        ( "raw",
          J.Obj
            [
              ("setup_s", J.Float (median o.setup.setup_raw_s));
              ("ops_per_s", J.Float o.raw_ops_per_s);
              ("latency_p50_ms", J.Float (percentile o.raw_latencies_ms 0.5));
              ("latency_p90_ms", J.Float (percentile o.raw_latencies_ms 0.9));
            ] );
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, (v, samples)) ->
                 let unit =
                   match List.assoc_opt name (end_to_end @ reported_only @ per_layer) with
                   | Some u -> u
                   | None -> ""
                 in
                 (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit); ("samples", J.Int samples) ]))
               values) );
        ("workload_meta", J.Obj o.meta);
      ]
  in
  print_endline (J.to_string (J.Obj [ ("report", report) ]));
  let correct = o.wrong = [] in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj (List.map metric (if traced then per_layer else end_to_end)));
          ]));
  if not correct then exit 1
