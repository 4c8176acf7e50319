(* The serve wire protocol: line-delimited JSON, one request line in,
   exactly one schema-1 response line out, in request order.

   Request (all fields except "instance" optional):

     {"id": 7,                      -- echoed verbatim; default: line number
      "command": "active"|"busy",   -- default: inferred from the instance
      "instance": "slotted\ng 2\njob 0 0 4 2\n",   -- Workload.Io text
      "algorithm": "cascade",       -- a registered solver name
      "g": 2,                       -- busy-model capacity (default 2)
      "budget": 100000,             -- fuel ticks (default: daemon config)
      "deadline_ms": 50,            -- wall-clock deadline from arrival
      "params": {"order": "l2r"}}   -- solver params, string values

   Any other field (such as "lp_engine" or "lp_pricing") is ignored:
   it changes neither the answer nor the memo key.

   Response statuses: "ok" (solved), "degraded" (answered after budget
   exhaustion — a lower cascade tier or an unproven incumbent),
   "infeasible", "timeout" (deadline expired), "error" (malformed
   request, unknown algorithm, or an isolated worker fault), and
   "overloaded" (shed by backpressure before solving). *)

module J = Obs.Json
module Io = Workload.Io
module CI = Core.Instance

let version = "1.10.0"

type command = Active | Busy

type request = {
  id : J.t;
  command : command;
  instance : Io.instance;
  instance_text : string;  (* canonical Io rendering, the memo/digest key *)
  algorithm : string;
  g : int;
  budget : int option;
  deadline_ms : int option;
  params : (string * string) list;
}

(* The response minus its per-delivery fields (id, cache, elapsed) —
   what the memo cache stores, so a hit replays the whole answer. *)
type core = {
  status : string;
  algorithm_used : string option;
  instance_json : J.t;
  cost : J.t;
  message : string option;
  provenance : J.t;
  ticks : int;
}

let error_core ?(ticks = 0) msg =
  {
    status = "error";
    algorithm_used = None;
    instance_json = J.Null;
    cost = J.Null;
    message = Some msg;
    provenance = J.Null;
    ticks;
  }

let overloaded_core =
  {
    status = "overloaded";
    algorithm_used = None;
    instance_json = J.Null;
    cost = J.Null;
    message = Some "request shed: queue full";
    provenance = J.Null;
    ticks = 0;
  }

(* ------------------------------------------------------------- decode -- *)

let ( let* ) = Result.bind

let field_string name = function
  | J.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let field_int name = function
  | J.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let opt_field name conv doc =
  match J.member name doc with
  | None | Some J.Null -> Ok None
  | Some v -> Result.map Option.some (conv name v)

(* Canonical params: drop duplicate keys (first occurrence wins, matching
   what List.assoc gives the solvers), then sort by key. Requests whose
   params differ only in JSON field order decode identically, so they
   share a memo-cache key. *)
let canonical_params kvs =
  let rec dedupe seen = function
    | [] -> []
    | (k, _) :: rest when List.mem k seen -> dedupe seen rest
    | (k, v) :: rest -> (k, v) :: dedupe (k :: seen) rest
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (dedupe [] kvs)

let decode ~seq doc =
  match doc with
  | J.Obj _ ->
      let id = Option.value (J.member "id" doc) ~default:(J.Int seq) in
      let* text =
        match J.member "instance" doc with
        | Some v -> field_string "instance" v
        | None -> Error "missing field \"instance\""
      in
      let* instance =
        match Io.parse_string text with
        | inst -> Ok inst
        | exception Io.Parse_error (l, msg) ->
            Error (Printf.sprintf "instance line %d: %s" l msg)
      in
      let inferred = match instance with Io.Slotted_instance _ -> Active | Io.Busy_instance _ -> Busy in
      let* command =
        match J.member "command" doc with
        | None | Some J.Null -> Ok inferred
        | Some (J.String "active") ->
            if inferred = Active then Ok Active
            else Error "command \"active\" needs a slotted instance"
        | Some (J.String "busy") ->
            if inferred = Busy then Ok Busy
            else Error "command \"busy\" needs a busy-time instance"
        | Some (J.String other) -> Error (Printf.sprintf "unknown command %S (active|busy)" other)
        | Some _ -> Error "field \"command\" must be a string"
      in
      let* algorithm = opt_field "algorithm" field_string doc in
      let algorithm = Option.value algorithm ~default:"cascade" in
      let* g = opt_field "g" field_int doc in
      let g = Option.value g ~default:2 in
      let* () = if g >= 1 then Ok () else Error "field \"g\" must be at least 1" in
      let* budget = opt_field "budget" field_int doc in
      let* () =
        match budget with
        | Some b when b < 0 -> Error "field \"budget\" must be nonnegative"
        | _ -> Ok ()
      in
      let* deadline_ms = opt_field "deadline_ms" field_int doc in
      let* () =
        match deadline_ms with
        | Some d when d < 0 -> Error "field \"deadline_ms\" must be nonnegative"
        | _ -> Ok ()
      in
      let* params =
        match J.member "params" doc with
        | None | Some J.Null -> Ok []
        | Some (J.Obj kvs) ->
            List.fold_left
              (fun acc (k, v) ->
                let* acc = acc in
                let* v = field_string ("params." ^ k) v in
                Ok ((k, v) :: acc))
              (Ok []) kvs
            |> Result.map (fun kvs -> canonical_params (List.rev kvs))
        | Some _ -> Error "field \"params\" must be an object of strings"
      in
      Ok
        {
          id;
          command;
          instance;
          instance_text = Io.to_string instance;
          algorithm;
          g;
          budget;
          deadline_ms;
          params;
        }
  | _ -> Error "request must be a JSON object"

let decode_line ~seq line =
  match J.parse line with
  | Error msg -> Error ("request is not valid JSON: " ^ msg)
  | Ok doc -> decode ~seq doc

(* ------------------------------------------------------------- encode -- *)

let instance_json (req : request) =
  let digest = Obs.digest req.instance_text in
  match req.instance with
  | Io.Slotted_instance inst ->
      J.Obj
        [ ("digest", J.String digest);
          ("kind", J.String "slotted");
          ("jobs", J.Int (Workload.Slotted.num_jobs inst));
          ("g", J.Int inst.Workload.Slotted.g) ]
  | Io.Busy_instance jobs ->
      J.Obj
        [ ("digest", J.String digest);
          ("kind", J.String "busy");
          ("jobs", J.Int (List.length jobs));
          ("g", J.Int req.g) ]

(* the memo key: everything that determines the answer, nothing that
   doesn't (id and deadline are delivery concerns, not answer inputs).
   [req.params] is already canonical — deduped and key-sorted at decode
   — so field order on the wire cannot split the key. *)
let cache_key (req : request) =
  let b = Buffer.create 128 in
  Buffer.add_string b (match req.command with Active -> "active\x00" | Busy -> "busy\x00");
  Buffer.add_string b req.algorithm;
  Buffer.add_char b '\x00';
  Buffer.add_string b (string_of_int req.g);
  Buffer.add_char b '\x00';
  Buffer.add_string b (match req.budget with Some n -> string_of_int n | None -> "-");
  Buffer.add_char b '\x00';
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k; Buffer.add_char b '='; Buffer.add_string b v; Buffer.add_char b '\x00')
    req.params;
  Buffer.add_string b req.instance_text;
  Obs.digest (Buffer.contents b)

let to_json ?elapsed_us ~id ~cache (core : core) =
  let opt_str = function Some s -> J.String s | None -> J.Null in
  J.Obj
    ([ ("schema", J.Int 1);
       ("tool", J.String "atbt");
       ("version", J.String version);
       ("command", J.String "serve");
       ("id", id);
       ("status", J.String core.status);
       ("algorithm", opt_str core.algorithm_used);
       ("instance", core.instance_json);
       ("cost", core.cost);
       ("message", opt_str core.message);
       ("provenance", core.provenance);
       ("cache", opt_str cache);
       ("ticks", J.Int core.ticks) ]
    @ match elapsed_us with Some us -> [ ("elapsed_us", J.Int us) ] | None -> [])

let to_line ?elapsed_us ~id ~cache core = J.to_string (to_json ?elapsed_us ~id ~cache core)
