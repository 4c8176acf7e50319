(** Deterministic solver telemetry: named monotonic counters, hierarchical
    spans, pluggable sinks.

    Every metric in this layer counts {e solver events} — search nodes,
    simplex pivots, flow augmentations — never wall-clock time, so a
    recorded run is bit-for-bit reproducible: the same seeded instance
    must yield byte-identical counter sets, which turns telemetry itself
    into a regression test (see [test/test_obs.ml] and the golden
    counters pinned for the [Gadgets.bb_hard] family).

    Usage: instrumented entry points take [?obs:Obs.t] defaulting to
    {!null}, which makes every recording call a no-op, so uninstrumented
    callers pay nothing. A caller that wants telemetry creates a recorder
    with {!create}, passes it down, and reads {!counters} / {!span_tree}
    afterwards (or attaches a streaming sink).

    Recorders are not thread-safe: use one recorder per domain and merge
    results outside the parallel region. *)

(** {1 JSON}

    A minimal JSON document model and printer, here so that the CLI
    ([atbt --format json]), the serve protocol, the [atbt sim] report
    and the line-JSON sink share one deterministic serializer without
    any external dependency. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list  (** keys emitted in the given order *)

  (** Compact single-line rendering; object keys keep their given order,
      strings are escaped per RFC 8259. Floats use ["%.12g"]; values that
      must be byte-stable across runs should be [Int] or [String]. *)
  val to_string : t -> string

  val pp : Format.formatter -> t -> unit

  (** JSON string-body escaping (no surrounding quotes). *)
  val escape : string -> string

  (** [member k (Obj fields)] is the value under key [k] (first match);
      [None] on a missing key or any non-object. *)
  val member : string -> t -> t option

  (** Parse one JSON document (the inverse of {!to_string}): RFC-8259
      values with [\uXXXX] escapes decoded to UTF-8 (surrogate pairs
      combined), integers outside [int] range falling back to [Float],
      and a nesting-depth cap. Total — any byte string returns [Ok] or
      [Error "at offset N: ..."], never raises; the serve request path
      and the parser fuzz target rely on that. *)
  val parse : string -> (t, string) Stdlib.result
end

(** [digest s] is a stable content digest of [s] (64-bit FNV-1a,
    rendered ["fnv1a64:<16 hex digits>"]); used to fingerprint instances
    in telemetry documents. *)
val digest : string -> string

(** {1 Events and sinks} *)

(** What a sink observes, in order: span boundaries as they happen, and
    counter totals when the recorder is {!flush}ed. *)
type event =
  | Enter of string
  | Exit of { name : string; ticks : int }
      (** [ticks] = counter increments recorded while the span was open,
          children included *)
  | Counter of { name : string; total : int }

module Sink : sig
  type t

  (** Discards every event. *)
  val null : t

  (** Calls the function on every event. *)
  val of_fn : (event -> unit) -> t

  (** In-memory sink for tests: [(sink, events)] where [events ()]
      returns everything observed so far, in order. *)
  val memory : unit -> t * (unit -> event list)

  (** Streams one compact JSON object per event to [write] (no trailing
      newline; the writer adds its own framing). *)
  val line_json : (string -> unit) -> t

  val event_to_json : event -> Json.t
end

(** {1 Recorders} *)

type t

(** The no-op recorder: every operation returns immediately. This is the
    default for all instrumented entry points. *)
val null : t

val is_null : t -> bool

(** A fresh recorder. Events stream to [sink] (default {!Sink.null});
    counters and the span tree are also accumulated in memory
    regardless of the sink. *)
val create : ?sink:Sink.t -> unit -> t

(** {2 Counters} *)

(** [add t name n] adds [n >= 0] to the named monotonic counter
    (created at 0 on first use). Raises [Invalid_argument] on [n < 0]. *)
val add : t -> string -> int -> unit

(** [incr t name] = [add t name 1]. *)
val incr : t -> string -> unit

(** All counters as a [(name, total)] list sorted by name — the
    canonical, deterministic order used everywhere telemetry is
    serialized or compared. *)
val counters : t -> (string * int) list

(** Sum of all counter increments so far. *)
val total_ticks : t -> int

(** {2 Spans} *)

(** A completed span: [ticks] is the number of counter increments
    recorded between enter and exit (children included); [children] are
    in run order. *)
type span = { name : string; ticks : int; children : span list }

val enter : t -> string -> unit

(** Closes the innermost open span. Raises [Invalid_argument] when no
    span is open. *)
val exit : t -> unit

(** [span t name f] runs [f ()] inside a span; the span is closed even
    when [f] raises (the exception is re-raised). *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Completed top-level spans, in run order. Spans still open are not
    included. *)
val span_tree : t -> span list

(** {2 Serialization} *)

(** Emits a [Counter] event per counter, in sorted name order. *)
val flush : t -> unit

(** Counters as a JSON object (sorted keys). *)
val counters_to_json : t -> Json.t

(** Span tree as a JSON list of [{name; ticks; children}] objects. *)
val spans_to_json : t -> Json.t
