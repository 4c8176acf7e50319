(* Clock, statistics, host probes and seed streams shared by the three
   workloads. *)

module J = Obs.Json

let now = Unix.gettimeofday

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ stats -- *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median a = percentile a 0.5
let sum a = Array.fold_left ( +. ) 0. a
let mean a = if Array.length a = 0 then nan else sum a /. float_of_int (Array.length a)

(* Samples strictly above the [p] percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* ------------------------------------------------------------- host -- *)

(* host.probe: one fixed unit of benchmark-owned work that mixes the
   three kinds of work the solvers do: random read-modify-writes over a
   4 MiB array (cache and memory), Stdlib [Map] inserts (allocation and
   the minor GC) and a plain integer loop (the core). It never changes
   with the program; when its time moves, the machine moved. About 8 ms
   on the 2-vCPU VM this was tuned on. *)
let probe_array = Array.make (1 lsl 19) 0

module Int_map = Map.Make (Int)

let probe_on a =
  let mask = Array.length a - 1 in
  let x = ref 1 and s = ref 0 in
  let t0 = now () in
  for i = 1 to 150_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    let k = !x land mask in
    a.(k) <- a.(k) + i
  done;
  let m = ref Int_map.empty in
  for _ = 1 to 6_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    m := Int_map.add (!x land 0xFFFF) !x !m
  done;
  for _ = 1 to 1_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    s := !s + ((!x lsr 7) mod 13)
  done;
  ignore (Sys.opaque_identity (!s + Int_map.cardinal !m));
  (now () -. t0) *. 1000.

let probe_ms () = probe_on probe_array

(* the second probe's own array, made on first use *)
let pair_array = lazy (Array.make (1 lsl 19) 0)

(* Two probes at once, one in a domain of its own; their mean. For a
   two-domain program: the domains join each other's stop-the-world
   collections, so a stall on either vCPU slows it, and the pair feels
   both. *)
let pair_probe_ms () =
  let b = Lazy.force pair_array in
  let other = Domain.spawn (fun () -> probe_on b) in
  let mine = probe_ms () in
  (mine +. Domain.join other) /. 2.

(* The probe time of the reference host. Every end-to-end time is
   reported scaled to it: raw time x reference_probe_ms / the probe
   time measured around that work. A program change moves the raw time
   and not the probe, so it moves the scaled time alike; a host that
   runs everything 20% slower moves both, and the scaled time stays. *)
let reference_probe_ms = 8.0

(* host.calib_ms: the median of five probes. *)
let calib_ms () = median (Array.init 5 (fun _ -> probe_ms ()))

(* [scale probes b] is the factor for the work between probes [b] and
   [b + 1]: the reference over the mean of the probes up to two places
   either side. The mean keeps the short host stalls that one probe
   catches, which slow the ops around it too. *)
let scale probes b =
  let last = Array.length probes - 1 in
  let lo = max 0 (b - 2) and hi = min last (b + 3) in
  reference_probe_ms /. mean (Array.sub probes lo (hi - lo + 1))

(* Peak resident set size (VmHWM) in MiB. *)
let peak_rss_mb () =
  let prefix = "VmHWM:" in
  let rec scan ic =
    match input_line ic with
    | exception End_of_file -> nan
    | line when String.starts_with ~prefix line ->
        let digits = String.sub line (String.length prefix) (String.length line - String.length prefix) in
        Scanf.sscanf (String.trim digits) "%d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ic
  in
  In_channel.with_open_text "/proc/self/status" scan

(* ------------------------------------------------------------ seeds -- *)

(* A seed stream: the generator seeds of one corpus, derived from the
   run seed and a salt that tells corpora apart (timed ops vs held-out
   warm-up ops, one salt per instance family). *)
let seeds ~seed ~salt =
  let st = Random.State.make [| seed; salt |] in
  fun () -> Random.State.bits st

let rng ~seed ~salt = Random.State.make [| seed; salt; 0x5eed |]

(* Warm-up corpora use this seed, whatever the run seed: their salts keep
   them apart from every timed corpus, and a fixed warm-up keeps setup_s
   from varying with the run seed. *)
let warmup_seed = 0x5eed

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ----------------------------------------------------- run outcomes -- *)

(* One timed op's verdict. [Wrong] answers make the run incorrect;
   [Failed] ops (exceptions, error statuses) only count as failed. *)
type verdict = Pass | Failed of string | Wrong of string

type setup = {
  setup_s : float;  (** median of the scaled set-up times *)
  setup_raw_s : float array;  (** every set-up, unscaled *)
  setup_probes : float array;  (** a probe before each set-up and after the last *)
}

type outcome = {
  setup : setup;
  attempted : int;
  failures : string list;  (** one line per failed op *)
  wrong : string list;  (** one line per wrong answer *)
  ops_per_s : float;  (** scaled on the closed loops; see each workload *)
  raw_ops_per_s : float;
  latencies_ms : float array;  (** per op, scaled by the probes around it *)
  raw_latencies_ms : float array;
  probes : float array;  (** the timed phase's host probes, in order *)
  cost_ratio : float;
  sla_miss_share : float option;
  digest : string;
  meta : (string * J.t) list;  (** workload-specific run metadata *)
  layers : (string * float) list;  (** per-layer metrics, trace runs only *)
}

(* Fold op verdicts into (failures, wrong) lines. *)
let tally verdicts =
  let failures = ref [] and wrong = ref [] in
  Array.iteri
    (fun i v ->
      match v with
      | Pass -> ()
      | Failed m -> failures := Printf.sprintf "op %d: %s" i m :: !failures
      | Wrong m ->
          failures := Printf.sprintf "op %d: %s" i m :: !failures;
          wrong := Printf.sprintf "op %d: %s" i m :: !wrong)
    verdicts;
  (List.rev !failures, List.rev !wrong)

(* Run [setup] (ending in a heap compaction) [n] times with a probe
   before each run and after the last; keep the last result. *)
let repeat_setup n setup =
  let raw = Array.make n 0. and probes = Array.make (n + 1) 0. in
  let last = ref None in
  for i = 0 to n - 1 do
    probes.(i) <- probe_ms ();
    let r, dt =
      time (fun () ->
          let r = setup () in
          Gc.compact ();
          r)
    in
    raw.(i) <- dt;
    last := Some r
  done;
  probes.(n) <- probe_ms ();
  let scaled = Array.mapi (fun i s -> s *. scale probes i) raw in
  (Option.get !last, { setup_s = median scaled; setup_raw_s = raw; setup_probes = probes })

(* A closed loop: ops [f 0] .. [f (n - 1)] back to back, in blocks of
   [block] ops with a probe before each block and after the last.
   Returns the results, each op's raw and scaled time (ms) and the
   probes. *)
let closed_loop ~block n f =
  let blocks = (n + block - 1) / block in
  let probes = Array.make (blocks + 1) 0. and raw = Array.make n 0. and results = Array.make n None in
  for b = 0 to blocks - 1 do
    probes.(b) <- probe_ms ();
    for i = b * block to min n ((b + 1) * block) - 1 do
      let r, dt = time (fun () -> f i) in
      raw.(i) <- dt *. 1000.;
      results.(i) <- Some r
    done
  done;
  probes.(blocks) <- probe_ms ();
  let scaled = Array.mapi (fun i ms -> ms *. scale probes (i / block)) raw in
  (Array.map Option.get results, raw, scaled, probes)

(* Closed-loop throughput from per-op times in ms. *)
let rate_of ms = float_of_int (Array.length ms) /. (sum ms /. 1000.)

(* Per-op counter totals of an Obs recorder, by name. *)
let counter obs name = match List.assoc_opt name (Obs.counters obs) with Some v -> v | None -> 0

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ----------------------------------------------------------- tracer -- *)

(* The traced run's spans, summed per layer and per op in memory and
   read out when the run ends: [timed t layer op f] charges the time of
   [f ()] to [layer] for op [op]. *)
module Tracer = struct
  type t = { ops : int; layers : (string, float array) Hashtbl.t }

  let create ops = { ops; layers = Hashtbl.create 16 }

  let per_op t layer =
    match Hashtbl.find_opt t.layers layer with
    | Some a -> a
    | None ->
        let a = Array.make t.ops 0. in
        Hashtbl.replace t.layers layer a;
        a

  let add t layer op ms =
    let a = per_op t layer in
    a.(op) <- a.(op) +. ms

  let timed t layer op f =
    let r, dt = time f in
    add t layer op (dt *. 1000.);
    r

  let mean_ms t layer = mean (per_op t layer)
end
