(** The serve wire protocol: line-delimited JSON requests, one schema-1
    JSON response per request (see README "The serve protocol" for the
    field-by-field schema).

    Request fields: ["instance"] (required, a {!Workload.Io} text blob),
    and optional ["id"] (echoed; defaults to the line number),
    ["command"] (["active"]|["busy"], inferred from the instance),
    ["algorithm"] (default ["cascade"]), ["g"], ["budget"],
    ["deadline_ms"], ["params"]. Any other field is ignored and stays
    out of the memo key.

    Response statuses: ["ok"], ["degraded"], ["infeasible"],
    ["timeout"], ["error"], ["overloaded"]. *)

(** Tool/protocol version carried by every response (and by the [atbt]
    binary itself). *)
val version : string

type command = Active | Busy

type request = {
  id : Obs.Json.t;
  command : command;
  instance : Workload.Io.instance;
  instance_text : string;  (** canonical rendering — digest and memo key *)
  algorithm : string;
  g : int;
  budget : int option;
  deadline_ms : int option;
  params : (string * string) list;
}

(** A response minus its per-delivery fields (id, cache disposition,
    elapsed time) — the unit the memo cache stores and replays. *)
type core = {
  status : string;
  algorithm_used : string option;
  instance_json : Obs.Json.t;
  cost : Obs.Json.t;
  message : string option;
  provenance : Obs.Json.t;
  ticks : int;
}

val error_core : ?ticks:int -> string -> core
val overloaded_core : core

(** Decode a parsed request document. [seq] (the 0-based line number)
    becomes the default [id]. Total: any document yields [Ok] or a
    human-readable [Error]. *)
val decode : seq:int -> Obs.Json.t -> (request, string) result

(** [decode_line]: JSON-parse then {!decode}; never raises. *)
val decode_line : seq:int -> string -> (request, string) result

(** The instance sub-document (digest, kind, jobs, g) of a response. *)
val instance_json : request -> Obs.Json.t

(** Memo key: digest over command, algorithm, [g], budget, params and
    the canonical instance text — everything that determines the answer.
    [id] and [deadline_ms] are delivery concerns and excluded. *)
val cache_key : request -> string

val to_json : ?elapsed_us:int -> id:Obs.Json.t -> cache:string option -> core -> Obs.Json.t

(** One response line (no trailing newline). *)
val to_line : ?elapsed_us:int -> id:Obs.Json.t -> cache:string option -> core -> string
