(** Fuzz target for the serve request parser's totality contract:
    {!Obs.Json.parse} and [Serve.Protocol.decode_line] must never raise,
    whatever bytes arrive. Deterministic per-seed generation (byte soup,
    mutated well-formed requests, pathological nesting, broken escapes);
    failures join the corpus as [parser-*.txt] with their own replay
    path. *)

type failure = { case : string; line : string; detail : string }

(** Sweep seeds [0..seeds-1] on {!Parallel.Pool}. *)
val run : ?domains:int -> seeds:int -> unit -> failure list

(** One [parser-*.txt] file per failure (the offending line verbatim);
    returns the paths. *)
val write_corpus : dir:string -> failure list -> string list

(** [true] for corpus filenames this module owns ([parser-*]); the
    instance-oracle replay skips them. *)
val is_parser_file : string -> bool

(** Re-check every [parser-*.txt] in [dir] (missing dir = empty corpus);
    returns files that still make a parser raise. *)
val replay : dir:string -> unit -> (string * string) list
