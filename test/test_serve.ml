(* Tests for the serve daemon stack: the bounded queue (backpressure
   valve), the deterministic fault injector, the total request decoder,
   the lenient instance parser behind it, and the daemon's resilience
   contract — one well-formed response per request line, in order, under
   crashes, expired deadlines, queue overflow and corrupted input; the
   fault-injection acceptance stream pushes 500 requests through an
   injected daemon and checks the invariant holds for every one. *)

module J = Obs.Json
module Io = Workload.Io

let slotted_text = "slotted\ng 2\njob 0 0 4 2\njob 1 0 4 2\n"
let busy_text = "busy\njob 0 0 10 10\njob 1 0 10 10\n"

let request ?(extra = []) text =
  J.to_string (J.Obj (("instance", J.String text) :: extra))

let config ?(domains = 1) ?(queue = 64) ?(cache = 1024) ?inject ?now ?sleep () =
  let d = Serve.default_config () in
  {
    d with
    Serve.domains;
    queue_capacity = queue;
    cache_capacity = cache;
    inject = (match inject with Some i -> i | None -> Serve.Inject.none ());
    now = (match now with Some f -> f | None -> d.Serve.now);
    sleep = (match sleep with Some f -> f | None -> d.Serve.sleep);
  }

let parse_ok line =
  match J.parse line with
  | Ok doc -> doc
  | Error msg -> Alcotest.fail (Printf.sprintf "unparseable response %s: %s" line msg)

let status_of line =
  match J.member "status" (parse_ok line) with
  | Some (J.String s) -> s
  | _ -> Alcotest.fail ("response without status: " ^ line)

(* -------------------------------------------------------------- bqueue -- *)

let test_bqueue_capacity () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Bqueue.create: capacity must be positive") (fun () ->
      ignore (Serve.Bqueue.create ~capacity:0))

let test_bqueue_push_pop () =
  let q = Serve.Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Serve.Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Serve.Bqueue.try_push q 2);
  Alcotest.(check bool) "full" false (Serve.Bqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Serve.Bqueue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Serve.Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Serve.Bqueue.try_push q 3)

let test_bqueue_close_drains () =
  let q = Serve.Bqueue.create ~capacity:4 in
  ignore (Serve.Bqueue.try_push q 1);
  ignore (Serve.Bqueue.try_push q 2);
  Serve.Bqueue.close q;
  Alcotest.(check bool) "closed rejects" false (Serve.Bqueue.try_push q 3);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Serve.Bqueue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Serve.Bqueue.pop q);
  Alcotest.(check (option int)) "then none" None (Serve.Bqueue.pop q)

let test_bqueue_close_wakes_blocked () =
  let q : int Serve.Bqueue.t = Serve.Bqueue.create ~capacity:1 in
  let consumer = Domain.spawn (fun () -> Serve.Bqueue.pop q) in
  Serve.Bqueue.close q;
  Alcotest.(check (option int)) "blocked pop wakes with None" None (Domain.join consumer)

(* -------------------------------------------------------------- inject -- *)

let test_inject_parse () =
  (match Serve.Inject.parse "crash=0.5,delay=40@0.25,corrupt=0.1,seed=9" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (match Serve.Inject.parse "crash=2.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probability 2.0 accepted");
  (match Serve.Inject.parse "delay=oops" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad delay accepted");
  (match Serve.Inject.parse "warp=0.1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  match Serve.Inject.parse "" with
  | Ok t -> Alcotest.(check bool) "empty spec is none" true (Serve.Inject.is_none t)
  | Error m -> Alcotest.fail m

let test_inject_deterministic () =
  let draw () =
    let t = Serve.Inject.make ~crash:0.3 ~corrupt:0.5 ~seed:42 () in
    List.init 50 (fun i ->
        (Serve.Inject.should_crash t, Serve.Inject.corrupt_line t (string_of_int i)))
  in
  Alcotest.(check bool) "same seed, same faults" true (draw () = draw ())

let test_inject_corrupt_single_line () =
  let t = Serve.Inject.make ~corrupt:1.0 ~seed:7 () in
  for i = 0 to 99 do
    let line = Printf.sprintf "{\"instance\": \"slotted %d\"}" i in
    match Serve.Inject.corrupt_line t line with
    | Some mutated ->
        Alcotest.(check bool) "no newline inserted" false (String.contains mutated '\n')
    | None -> Alcotest.fail "corrupt=1.0 must fire"
  done

(* ----------------------------------------------------- protocol decode -- *)

let test_json_parse () =
  (match J.parse "{\"a\": [1, 2.5, \"x\\u0041\", true, null]}" with
  | Ok doc -> (
      match J.member "a" doc with
      | Some (J.List [ J.Int 1; J.Float f; J.String "xA"; J.Bool true; J.Null ]) ->
          Alcotest.(check (float 1e-9)) "float" 2.5 f
      | _ -> Alcotest.fail "wrong parse shape")
  | Error m -> Alcotest.fail m);
  (match J.parse "{" with Ok _ -> Alcotest.fail "accepted {" | Error _ -> ());
  (match J.parse "" with Ok _ -> Alcotest.fail "accepted empty" | Error _ -> ());
  match J.parse "[1] trailing" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ()

let test_decode_defaults () =
  match Serve.Protocol.decode_line ~seq:3 (request slotted_text) with
  | Ok req ->
      Alcotest.(check bool) "id defaults to seq" true (req.Serve.Protocol.id = J.Int 3);
      Alcotest.(check string) "algorithm default" "cascade" req.Serve.Protocol.algorithm;
      Alcotest.(check bool) "command inferred" true (req.Serve.Protocol.command = Serve.Protocol.Active)
  | Error m -> Alcotest.fail m

let test_decode_rejects () =
  let bad line =
    match Serve.Protocol.decode_line ~seq:0 line with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted " ^ line)
  in
  bad "not json";
  bad "[1,2]";
  bad "{}";
  bad "{\"instance\": 42}";
  bad "{\"instance\": \"slotted\\ng 2\\njob 0 0 4 2\\n\", \"command\": \"busy\"}";
  bad "{\"instance\": \"slotted\\ng 2\\njob zero\\n\"}";
  (* the Division_by_zero regression: a zero-denominator coordinate must
     be an Error, never an escaping exception (REVIEW: killed the daemon) *)
  bad "{\"instance\": \"busy\\njob 0 0 1/0 1\\n\"}";
  bad (J.to_string (J.Obj [ ("instance", J.String slotted_text); ("g", J.Int 0) ]))

(* A repeated job id is a parse error on its line, so a daemon answers
   it with a status:"error" response naming the line, not a worker
   fault. *)
let test_decode_duplicate_id () =
  let line = request "slotted\ng 1\njob 0 0 2 2\njob 0 0 2 2\n" in
  (match Serve.Protocol.decode_line ~seq:0 line with
  | Error m -> Alcotest.(check string) "decode error" "instance line 4: duplicate job id 0" m
  | Ok _ -> Alcotest.fail "accepted a repeated job id");
  match Serve.run_lines ~config:(config ()) [ line ] with
  | [ out ] ->
      Alcotest.(check string) "status" "error" (status_of out);
      Alcotest.(check bool) "message" true
        (J.member "message" (parse_ok out) = Some (J.String "instance line 4: duplicate job id 0"))
  | out -> Alcotest.failf "expected one response, got %d" (List.length out)

let test_cache_key_ignores_delivery_fields () =
  let decode extra =
    match Serve.Protocol.decode_line ~seq:0 (request ~extra slotted_text) with
    | Ok req -> req
    | Error m -> Alcotest.fail m
  in
  let base = Serve.Protocol.cache_key (decode []) in
  Alcotest.(check string) "id excluded" base
    (Serve.Protocol.cache_key (decode [ ("id", J.String "abc") ]));
  Alcotest.(check string) "deadline excluded" base
    (Serve.Protocol.cache_key (decode [ ("deadline_ms", J.Int 5) ]));
  Alcotest.(check bool) "algorithm included" true
    (base <> Serve.Protocol.cache_key (decode [ ("algorithm", J.String "greedy") ]))

let test_cache_key_params_order () =
  (* params are canonicalized at decode: the same params in a different
     JSON field order must share a memo-cache key *)
  let decode params =
    match
      Serve.Protocol.decode_line ~seq:0 (request ~extra:[ ("params", J.Obj params) ] slotted_text)
    with
    | Ok req -> req
    | Error m -> Alcotest.fail m
  in
  let ab = decode [ ("a", J.String "1"); ("b", J.String "2") ] in
  let ba = decode [ ("b", J.String "2"); ("a", J.String "1") ] in
  Alcotest.(check string) "order-independent key" (Serve.Protocol.cache_key ab)
    (Serve.Protocol.cache_key ba);
  Alcotest.(check bool) "values still included" true
    (Serve.Protocol.cache_key ab
    <> Serve.Protocol.cache_key (decode [ ("a", J.String "1"); ("b", J.String "3") ]));
  (* duplicate keys: first occurrence wins, matching List.assoc *)
  let dup = decode [ ("a", J.String "1"); ("a", J.String "2") ] in
  Alcotest.(check (list (pair string string))) "first duplicate wins" [ ("a", "1") ]
    dup.Serve.Protocol.params

(* ----------------------------------------------------- lenient parsing -- *)

let test_io_lenient_collects () =
  let text = "busy\njob 0 0 10 10\njob oops\njob 1 0 10 10\n" in
  match Io.parse_string_lenient text with
  | Ok (Io.Busy_instance jobs, [ (3, _) ]) ->
      Alcotest.(check int) "good jobs kept" 2 (List.length jobs)
  | Ok (_, warnings) ->
      Alcotest.fail (Printf.sprintf "expected one line-3 warning, got %d" (List.length warnings))
  | Error (l, m) -> Alcotest.fail (Printf.sprintf "fatal at %d: %s" l m)

let test_io_lenient_zero_denominator () =
  (* "1/0" coordinates degrade to a per-line warning like any other
     malformed field — the Division_by_zero regression's lenient half *)
  match Io.parse_string_lenient "busy\njob 0 0 1/0 1\njob 1 0 2 1\n" with
  | Ok (Io.Busy_instance jobs, [ (2, _) ]) ->
      Alcotest.(check int) "good job kept" 1 (List.length jobs)
  | Ok (_, warnings) ->
      Alcotest.fail (Printf.sprintf "expected one line-2 warning, got %d" (List.length warnings))
  | Error (l, m) -> Alcotest.fail (Printf.sprintf "fatal at %d: %s" l m)

let test_io_lenient_fatal_header () =
  match Io.parse_string_lenient "starship\njob 0 0 1 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header must stay fatal"

(* --------------------------------------------------------------- serve -- *)

let test_serve_basic_ok () =
  let lines = [ request slotted_text; request ~extra:[ ("g", J.Int 2) ] busy_text ] in
  let out = Serve.run_lines ~config:(config ()) lines in
  Alcotest.(check int) "one response per request" 2 (List.length out);
  List.iteri
    (fun i line ->
      Alcotest.(check string) "status" "ok" (status_of line);
      match J.member "id" (parse_ok line) with
      | Some (J.Int id) -> Alcotest.(check int) "ordered" i id
      | _ -> Alcotest.fail "missing id")
    out

let test_serve_crash_isolation () =
  (* every worker crashes; every request still gets a structured error
     and the daemon finishes normally *)
  let inject = Serve.Inject.make ~crash:1.0 ~seed:5 () in
  let lines = List.init 10 (fun _ -> request slotted_text) in
  let out = Serve.run_lines ~config:(config ~cache:0 ~inject ()) lines in
  Alcotest.(check int) "all answered" 10 (List.length out);
  List.iter (fun line -> Alcotest.(check string) "status" "error" (status_of line)) out

let test_serve_malformed_lines_continue () =
  let lines =
    [ "garbage";
      request slotted_text;
      "{\"instance\": 42}";
      (* the Division_by_zero regression line that used to kill the daemon *)
      request "busy\njob 0 0 1/0 1\n";
      request slotted_text ]
  in
  let out = Serve.run_lines ~config:(config ()) lines in
  Alcotest.(check (list string)) "errors never stop the stream"
    [ "error"; "ok"; "error"; "error"; "ok" ]
    (List.map status_of out)

let test_serve_output_failure_orderly () =
  (* a dead response channel is the one unanswerable fault: run_stream
     must report it and wind down (queue closed, workers joined) instead
     of letting the exception escape a worker domain *)
  let remaining = ref (List.init 6 (fun _ -> request slotted_text)) in
  let next_line () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let emitted = Atomic.make 0 in
  let emit _ =
    if Atomic.fetch_and_add emitted 1 >= 1 then raise (Sys_error "stdout: closed")
  in
  match Serve.run_stream ~config:(config ~domains:2 ()) ~next_line ~emit () with
  | Some (Sys_error _) ->
      Alcotest.(check bool) "first response went out" true (Atomic.get emitted >= 2)
  | Some e -> Alcotest.fail ("wrong failure surfaced: " ^ Printexc.to_string e)
  | None -> Alcotest.fail "output failure not reported"

let test_serve_deadline_timeout () =
  (* fake clock: every read advances 10ms, so a 1ms deadline has expired
     by the first probe — deterministic timeout, no real sleeping *)
  let t = ref 0.0 in
  let now () =
    t := !t +. 0.010;
    !t
  in
  let lines =
    [ J.to_string
        (J.Obj
           [ ("instance", J.String slotted_text);
             ("algorithm", J.String "cascade");
             ("deadline_ms", J.Int 1) ]) ]
  in
  let out = Serve.run_lines ~config:(config ~now ()) lines in
  match out with
  | [ line ] -> (
      Alcotest.(check string) "status" "timeout" (status_of line);
      (* the cascade's partial attempt list survives into the response *)
      match J.member "provenance" (parse_ok line) with
      | Some (J.Obj fields) -> (
          match List.assoc_opt "attempts" fields with
          | Some (J.List (_ :: _)) -> ()
          | _ -> Alcotest.fail "timeout lost the cascade attempts")
      | _ -> Alcotest.fail "timeout without provenance")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 response, got %d" (List.length l))

let test_serve_overload_sheds () =
  (* queue of 1, one worker stuck in injected 50ms delays: the reader
     outruns it and must shed — but every line is still answered *)
  let inject = Serve.Inject.make ~delay_ms:50 ~delay:1.0 ~seed:1 () in
  let lines = List.init 8 (fun _ -> request slotted_text) in
  let out = Serve.run_lines ~config:(config ~queue:1 ~cache:0 ~inject ()) lines in
  Alcotest.(check int) "all answered" 8 (List.length out);
  let count s = List.length (List.filter (fun l -> status_of l = s) out) in
  Alcotest.(check int) "only ok and overloaded" 8 (count "ok" + count "overloaded");
  Alcotest.(check bool) "some sheds" true (count "overloaded" >= 1);
  Alcotest.(check bool) "some answers" true (count "ok" >= 1)

(* a response's fields apart from the id and the cache disposition *)
let answer line =
  List.filter
    (fun (k, _) -> k <> "cache" && k <> "id")
    (match parse_ok line with J.Obj fields -> fields | _ -> [])

let test_serve_memoization () =
  let obs = Obs.create () in
  let lines = [ request slotted_text; request slotted_text ] in
  let out = Serve.run_lines ~obs ~config:(config ()) lines in
  match out with
  | [ first; second ] ->
      let dispo line =
        match J.member "cache" (parse_ok line) with
        | Some (J.String s) -> s
        | _ -> Alcotest.fail "missing cache field"
      in
      Alcotest.(check string) "cold miss" "miss" (dispo first);
      Alcotest.(check string) "repeat hits" "hit" (dispo second);
      Alcotest.(check bool) "memo replays the answer" true (answer first = answer second);
      let counters = Obs.counters obs in
      Alcotest.(check (option int)) "hit counter" (Some 1)
        (List.assoc_opt "serve.cache_hits" counters);
      Alcotest.(check (option int)) "miss counter" (Some 1)
        (List.assoc_opt "serve.cache_misses" counters)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length l))

(* Forty distinct cascade requests, then the same forty twice more,
   through one worker whose queue holds the whole stream (a shed request
   is never cached): the repeats replay from the memo, so the solvers
   see only the forty cold requests. *)
let test_serve_memo_stream () =
  let request seed =
    let params : Workload.Generate.slotted_params =
      { n = 9; horizon = 14; max_length = 4; slack = 3; g = 2 }
    in
    let inst = Workload.Generate.slotted ~params ~seed () in
    J.to_string
      (J.Obj
         [ ("instance", J.String (Io.to_string (Io.Slotted_instance inst)));
           ("algorithm", J.String "cascade");
           ("budget", J.Int 200_000) ])
  in
  let cold = List.init 40 request in
  let obs = Obs.create () in
  let out = Serve.run_lines ~obs ~config:(config ~queue:120 ()) (cold @ cold @ cold) in
  Alcotest.(check int) "one response per request" 120 (List.length out);
  let counter name = List.assoc_opt name (Obs.counters obs) in
  Alcotest.(check (option int)) "cache hits" (Some 80) (counter "serve.cache_hits");
  Alcotest.(check (option int)) "cache misses" (Some 40) (counter "serve.cache_misses");
  let first = Array.of_list (List.filteri (fun i _ -> i < 40) out) in
  List.iteri
    (fun i line ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d replays its first answer" (40 + i))
        true
        (answer line = answer first.(i mod 40)))
    (List.filteri (fun i _ -> i >= 40) out)

(* ----------------------------------------- fault-injection acceptance -- *)

let test_serve_injected_stream () =
  (* the acceptance gate: 500 requests — a rotating mix of instances plus
     hand-broken lines — through a daemon injecting crashes and byte
     corruption on 4 worker domains. Exactly one well-formed schema-1
     response per request, every status in the contract, no crash. *)
  let statuses =
    [ "ok"; "degraded"; "infeasible"; "timeout"; "error"; "overloaded" ]
  in
  let lines =
    List.init 500 (fun i ->
        (* a per-request params tag keeps every cache key distinct, so
           each solve really runs (and really draws a crash chance)
           instead of replaying from the memo cache *)
        let tag = ("params", J.Obj [ ("tag", J.String (string_of_int i)) ]) in
        match i mod 5 with
        | 0 -> request ~extra:[ tag ] slotted_text
        | 1 -> request ~extra:[ tag; ("g", J.Int 2); ("algorithm", J.String "first-fit") ] busy_text
        | 2 ->
            request
              ~extra:[ tag; ("budget", J.Int 50); ("algorithm", J.String "exact") ]
              "slotted\ng 2\njob 0 0 6 3\njob 1 0 6 2\njob 2 1 5 3\njob 3 2 6 2\n"
        | 3 -> "{\"instance\": 42}"
        | _ -> Printf.sprintf "garbage line %d" i)
  in
  let inject = Serve.Inject.make ~crash:0.2 ~corrupt:0.1 ~seed:123 () in
  let obs = Obs.create () in
  let out = Serve.run_lines ~obs ~config:(config ~domains:4 ~cache:64 ~inject ()) lines in
  Alcotest.(check int) "exactly one response per request" 500 (List.length out);
  List.iter
    (fun line ->
      let doc = parse_ok line in
      (match J.member "schema" doc with
      | Some (J.Int 1) -> ()
      | _ -> Alcotest.fail ("response without schema 1: " ^ line));
      let s = status_of line in
      if not (List.mem s statuses) then Alcotest.fail ("unknown status " ^ s))
    out;
  let counter name = List.assoc_opt name (Obs.counters obs) in
  Alcotest.(check (option int)) "every request counted" (Some 500) (counter "serve.requests");
  Alcotest.(check (option int)) "every response counted" (Some 500) (counter "serve.responses");
  Alcotest.(check bool) "crashes actually injected" true
    (match counter "serve.injected_crashes" with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "corruption actually injected" true
    (match counter "serve.injected_corruptions" with Some n -> n > 0 | None -> false)

let () =
  Alcotest.run "serve"
    [ ( "bqueue",
        [ Alcotest.test_case "capacity validated" `Quick test_bqueue_capacity;
          Alcotest.test_case "push/pop/full" `Quick test_bqueue_push_pop;
          Alcotest.test_case "close drains" `Quick test_bqueue_close_drains;
          Alcotest.test_case "close wakes blocked pop" `Quick test_bqueue_close_wakes_blocked ] );
      ( "inject",
        [ Alcotest.test_case "spec parsing" `Quick test_inject_parse;
          Alcotest.test_case "seeded determinism" `Quick test_inject_deterministic;
          Alcotest.test_case "corruption stays one line" `Quick test_inject_corrupt_single_line ] );
      ( "protocol",
        [ Alcotest.test_case "json parser" `Quick test_json_parse;
          Alcotest.test_case "decode defaults" `Quick test_decode_defaults;
          Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
          Alcotest.test_case "decode rejects duplicate ids" `Quick test_decode_duplicate_id;
          Alcotest.test_case "cache key scope" `Quick test_cache_key_ignores_delivery_fields;
          Alcotest.test_case "cache key params order" `Quick test_cache_key_params_order ] );
      ( "lenient io",
        [ Alcotest.test_case "bad line becomes warning" `Quick test_io_lenient_collects;
          Alcotest.test_case "zero denominator becomes warning" `Quick
            test_io_lenient_zero_denominator;
          Alcotest.test_case "bad header stays fatal" `Quick test_io_lenient_fatal_header ] );
      ( "daemon",
        [ Alcotest.test_case "basic ok, ordered" `Quick test_serve_basic_ok;
          Alcotest.test_case "crash isolation" `Quick test_serve_crash_isolation;
          Alcotest.test_case "malformed lines continue" `Quick test_serve_malformed_lines_continue;
          Alcotest.test_case "output failure shuts down orderly" `Quick
            test_serve_output_failure_orderly;
          Alcotest.test_case "deadline timeout with provenance" `Quick test_serve_deadline_timeout;
          Alcotest.test_case "overload sheds, answers all" `Quick test_serve_overload_sheds;
          Alcotest.test_case "memoized repeat" `Quick test_serve_memoization;
          Alcotest.test_case "memoized stream, 40 misses" `Quick test_serve_memo_stream ] );
      ( "acceptance",
        [ Alcotest.test_case "500-request injected stream" `Slow test_serve_injected_stream ] ) ]
