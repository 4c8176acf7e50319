(** Deterministic solver telemetry: named monotonic counters and
    hierarchical spans.

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
    afterwards.

    Recorders are not thread-safe: use one recorder per domain and merge
    results outside the parallel region. *)

(** {1 JSON}

    A minimal JSON document model and printer, here so that the CLI
    ([atbt --format json]), the serve protocol and the [atbt sim] report
    share one deterministic serializer without any external
    dependency. *)

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

(** {1 Recorders} *)

type t

(** The no-op recorder: every operation returns immediately. This is the
    default for all instrumented entry points. *)
val null : t

val is_null : t -> bool

(** A fresh recorder: counters and the span tree accumulate in memory. *)
val create : unit -> t

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

(** [counter t name] is one counter's total, read in O(1): 0 when the
    counter was never incremented or [t] is {!null}. *)
val counter : t -> string -> int

(** Sum of all counter increments so far. *)
val total_ticks : t -> int

(** {2 Spans} *)

(** A completed span: [ticks] is the number of counter increments
    recorded while it was open (children included); [children] are in
    run order. *)
type span = { name : string; ticks : int; children : span list }

(** [span t name f] runs [f ()] inside a span; the span is closed even
    when [f] raises (the exception is re-raised). This is the only way
    to open a span, so spans always nest. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Completed top-level spans, in run order. Spans still open are not
    included. *)
val span_tree : t -> span list

(** {2 Serialization} *)

(** Counters as a JSON object (sorted keys). *)
val counters_to_json : t -> Json.t

(** Span tree as a JSON list of [{name; ticks; children}] objects. *)
val spans_to_json : t -> Json.t
