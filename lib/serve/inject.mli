(** Fault injection for the serve daemon: probabilistic worker crashes,
    solve delays (deadline blowouts) and request-line corruption, driven
    by a seeded deterministic PRNG so injected runs replay byte for
    byte. Armed only by [atbt serve --inject SPEC]; {!none} (the
    default) injects nothing and costs nothing.

    Spec grammar (comma-separated, all fields optional):
    [crash=P,delay=MS@P,corrupt=P,seed=N] — probabilities in [0,1],
    [delay=MS] alone means probability 1. *)

(** Raised inside a worker when a crash fires; exercises the same
    isolation path as any real solver exception. *)
exception Injected_fault of string

type t

(** A config that injects nothing. Each call builds its own PRNG
    state, so no two configs share one. *)
val none : unit -> t

(** [true] iff this config can never fire. *)
val is_none : t -> bool

(** Raises [Invalid_argument] on probabilities outside [0,1] or a
    negative delay. *)
val make :
  ?crash:float -> ?delay_ms:int -> ?delay:float -> ?corrupt:float -> ?seed:int -> unit -> t

(** Parse a spec string ([crash=0.1,delay=50@0.3,corrupt=0.05,seed=42]). *)
val parse : string -> (t, string) result

(** Draw from the PRNG: should this request's worker crash? *)
val should_crash : t -> bool

(** Draw: delay this solve by [Some ms]? *)
val delay_ms : t -> int option

(** Draw: [Some mutated] (byte overwrites / inserts / truncations, never
    a newline — a corrupted request stays exactly one line) or [None] to
    pass the line through untouched. *)
val corrupt_line : t -> string -> string option
