(** Multicore work-sharing on OCaml 5 domains (no external dependencies).

    [map f xs] evaluates [f] over [xs] on several domains with an atomic
    work-stealing index, preserving input order in the results. Intended
    for the embarrassingly parallel sweeps of the bench harness (many
    seeds x algorithms, each task pure and allocation-heavy); every
    algorithm in this repository builds its mutable state (flow networks,
    simplex tableaux) per call, so tasks must not share mutable state and
    none of ours do.

    Error semantics of [map]/[init] when a task raises: the exception is
    caught {e per task}, every remaining task still runs, every spawned
    domain is joined (no domain leak, no stranded queue), and only then
    is the exception re-raised on the {e caller's} domain — the first
    failing task in input order when several raise. A worker domain
    never dies of a task exception. [test/test_parallel.ml] pins all of
    this. *)

(** [map ?domains f xs]. [domains] defaults to
    [Domain.recommended_domain_count () - 1], at least 1; the calling
    domain participates in the work. *)
val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

(** [init ?domains n f] is [map ?domains f [0; ...; n-1]]. *)
val init : ?domains:int -> int -> (int -> 'b) -> 'b list

(** Number of worker domains [map] would use by default. *)
val default_domains : unit -> int

(** [run_isolated f] runs [f ()] and captures any exception as an
    [Error] instead of letting it unwind the calling domain — the
    exception firewall for supervised long-lived workers (the [atbt
    serve] daemon runs every request through this, so a solver crash
    becomes a structured error response and the worker survives). Does
    not catch asynchronous OCaml runtime failures ([Out_of_memory],
    [Stack_overflow] are caught like any exception; a segfault is not
    recoverable in-process). *)
val run_isolated : (unit -> 'a) -> ('a, exn) result
