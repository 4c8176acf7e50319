(** The resilient batched solve daemon behind [atbt serve].

    Reads line-delimited JSON requests (see {!Protocol}), dispatches each
    through {!Core.Registry} on a supervised worker-domain pool, and
    writes exactly one schema-1 JSON response line per request line, in
    request order — under worker crashes, budget exhaustion, expired
    deadlines, malformed input and injected faults alike. The daemon
    process never dies with a request: every fault becomes a structured
    response ([error], [degraded], [timeout], [overloaded]).

    No solver state carries over from one request to the next: a
    request gets the answer it gets when sent alone, whatever came
    before it and, with several worker domains, however the requests
    interleave. The memo below only replays an earlier answer to the
    same request.

    Resilience mechanisms, in the order a request meets them:

    - {e corruption / parse errors}: request lines are decoded totally
      ({!Protocol.decode_line}); a bad line answers [status "error"]
      with the parse diagnostic and the stream continues.
    - {e backpressure}: accepted requests enter a bounded {!Bqueue};
      when it is full the request is shed immediately with
      [status "overloaded"] rather than queued without bound.
    - {e memoization}: answers for repeated (instance, algorithm,
      budget, params) keys replay from a bounded FIFO cache keyed on the
      {!Obs.digest} of the request ([serve.cache_hits] /
      [serve.cache_misses] count the traffic).
    - {e deadlines}: [deadline_ms] arms a wall-clock probe on the
      request's fuel budget ({!Budget.set_deadline}); expiry unwinds the
      solve and answers [status "timeout"], with the cascade's partial
      attempt list as provenance when the composite solver was running.
    - {e fault isolation}: the solve runs under
      {!Parallel.Pool.run_isolated} on a worker domain; any exception —
      a solver bug or an {!Inject.Injected_fault} — becomes a
      [status "error"] response and the worker survives to take the
      next request.
    - {e output failure}: when the response channel itself dies there
      is no one left to answer, so the daemon shuts down in order —
      queue closed, workers drained and joined — and reports the fault
      to its caller ({!run} returns 1) instead of crashing out of a
      worker domain. *)

module Bqueue = Bqueue
module Inject = Inject
module Protocol = Protocol

type config = {
  domains : int;  (** worker domains (clamped to at least 1) *)
  queue_capacity : int;  (** bounded request queue — the shed threshold *)
  default_budget : int option;
      (** fuel for requests that do not send ["budget"]; [None] means
          unlimited *)
  cache_capacity : int;  (** memo entries kept (FIFO eviction); 0 disables *)
  inject : Inject.t;  (** fault injection, {!Inject.none} by default *)
  timing : bool;  (** add [elapsed_us] (service time in microseconds, queue
                      wait excluded) to responses (off: deterministic
                      output for golden tests) *)
  now : unit -> float;  (** the wall clock — overridable for fake-clock
                            deadline tests *)
  sleep : float -> unit;  (** how injected delays wait — overridable *)
}

(** domains = {!Parallel.Pool.default_domains}, queue 64, default budget
    [Some 500_000], cache 1024, no injection, no timing, real clock. *)
val default_config : unit -> config

(** [run ic oc] serves until EOF on [ic]; returns 0 (individual request
    failures are responses, not daemon failures). The single exception:
    when writing to [oc] itself fails (closed stdout, broken pipe), no
    response can reach the client at all — the daemon shuts down in
    order (queue closed, workers drained and joined), reports the fault
    on stderr, and returns 1. To make that path reachable on POSIX,
    [run] sets [SIGPIPE] to ignore for the process, so a hung-up client
    surfaces as [Sys_error] instead of a fatal signal. With [?obs],
    [serve.*] counters (requests,
    responses, per-status counts, cache hits/misses, injected faults)
    merge into the recorder at exit. *)
val run : ?obs:Obs.t -> ?config:config -> in_channel -> out_channel -> int

(** Transport-agnostic core behind {!run} and {!run_lines}: pull request
    lines with [next_line], write response lines with [emit]. Returns
    [None] on clean stream end; [Some exn] when [emit] raised — the one
    fault a structured response cannot route around, handled as an
    orderly shutdown rather than an escaping exception. *)
val run_stream :
  ?obs:Obs.t ->
  ?config:config ->
  next_line:(unit -> string option) ->
  emit:(string -> unit) ->
  unit ->
  exn option

(** Pure-list harness for tests and bench: feed request lines, collect
    response lines (same order guarantees as {!run}). *)
val run_lines : ?obs:Obs.t -> ?config:config -> string list -> string list
