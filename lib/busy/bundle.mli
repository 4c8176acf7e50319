(** Bundles (machine groups) for the busy-time model. A packing partitions
    interval jobs into bundles; each bundle runs on its own machine with
    at most [g] jobs active simultaneously; its busy time is the measure
    of the union of its jobs' intervals (the span of Definition 10). *)

type t = Workload.Bjob.t list
type packing = t list

val intervals : t -> Intervals.Interval.t list

(** [Sp(bundle)]: measure of the union of its jobs' intervals. *)
val busy_time : t -> Rational.t

(** Sum of bundle busy times — the packing's objective. *)
val total_busy : packing -> Rational.t

(** Peak number of simultaneously active jobs. *)
val max_parallel : t -> int

(** [fits ~g bundle job] iff adding [job] keeps the peak within [g]. *)
val fits : g:int -> t -> Workload.Bjob.t -> bool

(** [first_fit ~fits items] puts each item, in order, into the first
    bundle [fits] accepts, or else into a new bundle after the others:
    the loop of FirstFit, the online rules, the proper greedy and the
    width-aware FirstFit, each with its own order and [fits]. A bundle
    lists its items newest first. With [?obs], records
    [busy.first_fit.fit_probes] (one per [fits] call) and
    [busy.first_fit.bundles_opened]. *)
val first_fit : ?obs:Obs.t -> fits:('a list -> 'a -> bool) -> 'a list -> 'a list list

(** Validates a packing of [jobs]: interval jobs only, exact partition by
    id, no empty bundle, capacity respected. First violation or [None]. *)
val check : g:int -> Workload.Bjob.t list -> packing -> string option

(** [ensure_unique_ids name jobs] raises [Invalid_argument] on duplicate
    job ids; used by the algorithms that track jobs by id. *)
val ensure_unique_ids : string -> Workload.Bjob.t list -> unit

val pp : Format.formatter -> packing -> unit
