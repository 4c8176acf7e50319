(** Span-minimizing placement of flexible jobs with unbounded capacity —
    the role of Khandekar et al.'s dynamic program (paper Theorem 4) in
    the flexible-job pipeline. The output pins every job to a start time;
    its span is the [OPT_infinity] lower bound used by Theorems 5/10.

    Substitution (DESIGN.md item 2): [exact] is a branch-and-bound over
    integer start times (complete for integer-data instances by a sliding
    argument), [greedy] a marginal-span insertion with local-search
    re-placement; the tests measure the greedy's gap against [exact].

    Both raise [Invalid_argument] on repeated job ids: jobs are told
    apart in the answer by id. *)

(** Greedy placement: non-increasing length order (input order among
    equal lengths), each job at the smallest candidate start minimizing
    the marginal union growth, then up to [passes] (default 3) sweeps
    that re-place each job, in input order, given all the others; a
    sweep is kept only when it strictly shrinks the span, and the first
    one that does not ends the search. Returns interval jobs, sorted by
    id.

    The placed jobs' coverage is kept as a count per segment between
    their sorted endpoints, updated in place when a job is lifted or
    placed, and each job is placed against it clipped to its window
    [\[release, deadline\]], which selects the same start as the whole
    union would. Lifting or placing a job costs two binary searches, two
    array shifts and the segments its interval covers; choosing its
    start costs the segments in its window and, per candidate start, the
    union components in its window. No step rebuilds the whole union. *)
val greedy : ?passes:int -> Workload.Bjob.t list -> Workload.Bjob.t list

(** Exact minimum-span placement. Raises [Invalid_argument] on
    non-integer job data; exponential — intended for small instances. *)
val exact : Workload.Bjob.t list -> Workload.Bjob.t list

(** Span of the exact placement: [OPT_infinity] for integer instances. *)
val optimum_span : Workload.Bjob.t list -> Rational.t

(** Measure of the union of a placed job set's intervals. *)
val span_of : Workload.Bjob.t list -> Rational.t
