(** Differential fuzzing sweep: deterministic per-seed case generation
    over both models (general slotted, unit slotted, interval, proper /
    clique / laminar, flexible), parallel execution, shrinking, and a
    counterexample corpus. Everything is a pure function of
    [(seed, fuel, planted_bug)] — a CI failure replays locally. *)

type case = { name : string; g : int; instance : Workload.Io.instance }

type counterexample = {
  case : string;  (** family-seed label *)
  cg : int;  (** capacity for busy instances *)
  failure : Oracle.failure;
  instance : Workload.Io.instance;  (** already shrunk *)
}

type report = { seeds : int; cases : int; failures : counterexample list }

(** Run the oracle matching the case's shape (slotted / interval /
    flexible). *)
val check : ?planted_bug:bool -> fuel:int -> case -> Oracle.failure option

(** [run ~seeds ~fuel ()] sweeps seeds [0..seeds-1] on {!Parallel.Pool};
    each failing case is shrunk to a local minimum before being
    reported. *)
val run : ?planted_bug:bool -> ?domains:int -> seeds:int -> fuel:int -> unit -> report

(** Writes one instance file per counterexample into [dir] (created if
    needed) with the failing check, detail and capacity as comments;
    returns the paths. *)
val write_corpus : dir:string -> counterexample list -> string list

(** Re-checks every [*.txt] in [dir] (missing dir = empty corpus) and
    returns the files that STILL fail — the regression gate for
    checked-in counterexamples. *)
val replay : ?planted_bug:bool -> fuel:int -> dir:string -> unit -> (string * Oracle.failure) list
