(** Plain-text instance files.

    Slotted (active-time) instances:
    {v
    slotted
    g 3
    job 0 0 6 3        # job <id> <release> <deadline> <length>
    v}

    Busy-time instances (rational coordinates allowed: "5/2", "0.25"):
    {v
    busy
    job 0 0 5/2 1
    v}

    Every [job] line optionally ends with [arrival <t>] — the integer
    time the job becomes known to an online scheduler (default 0, i.e.
    the whole instance is known upfront). Offline parses accept and
    ignore it; the timed entry points ({!parse_file_timed}) return the
    arrivals alongside the instance for rolling-horizon replay
    ([atbt sim]).

    Job ids are unique within a file: a repeated id is an error on its
    line.

    ['#'] starts a comment; blank lines are ignored. *)

type instance = Slotted_instance of Slotted.t | Busy_instance of Bjob.t list

(** Raised on malformed input with a 1-based line number (0 for
    whole-file problems) and a message. *)
exception Parse_error of int * string

val parse_string : string -> instance

(** Raises {!Parse_error} or [Sys_error]. *)
val parse_file : string -> instance

(** Strict parses that also return the [(job id, arrival time)] pairs of
    every job that carried an explicit [arrival <t>] directive (jobs
    without one arrive at 0 — look pairs up with {!arrival}). *)
val parse_string_timed : string -> instance * (int * int) list

val parse_file_timed : string -> instance * (int * int) list

(** [arrival arrivals id] is the arrival time of job [id] in a pair list
    returned by the timed parses: the recorded value, or 0. *)
val arrival : (int * int) list -> int -> int

(** Lenient variants: a malformed {e line} is recorded as a
    [(lineno, message)] warning and skipped instead of aborting the
    parse — the per-item error discipline of the serve daemon, applied
    to files. Whole-file problems (missing header, missing slotted
    capacity) are still fatal and returned as [Error (lineno, message)]
    ([lineno] 0 for end-of-file checks). [Sys_error] still escapes
    [parse_file_lenient]. *)
val parse_string_lenient : string -> (instance * (int * string) list, int * string) result

val parse_file_lenient : string -> (instance * (int * string) list, int * string) result

(** [arrivals] adds [arrival <t>] suffixes to the listed jobs' lines
    (pairs with [t = 0] are omitted — 0 is the default). *)
val to_string : ?arrivals:(int * int) list -> instance -> string
