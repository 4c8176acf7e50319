(* Fault injection for the serve daemon. Armed only by `--inject SPEC`;
   off by default and free when off.

   Three fault classes, mirroring the failure modes the daemon must
   survive: worker crashes (a raised exception mid-solve), deadline
   blowouts (a sleep before the solve, so any armed deadline expires),
   and corrupted request lines (byte-level mutation before parsing).

   All randomness is a seeded splitmix64 stream behind a mutex, so an
   injected run is reproducible: same spec (including seed), same
   faults, byte for byte — the fault-injection suite and the serve cram
   test pin exact outputs this way. *)

exception Injected_fault of string

type t = {
  crash : float;  (* probability a worker raises instead of solving *)
  delay_ms : int;  (* sleep applied before solving ... *)
  delay : float;  (* ... with this probability *)
  corrupt : float;  (* probability a request line is mutated *)
  seed : int;
  state : int64 ref;
  m : Mutex.t;
}

let is_none t = t.crash = 0.0 && t.delay = 0.0 && t.corrupt = 0.0

let make ?(crash = 0.0) ?(delay_ms = 0) ?(delay = 0.0) ?(corrupt = 0.0) ?(seed = 0) () =
  let bad p = p < 0.0 || p > 1.0 in
  if bad crash || bad delay || bad corrupt then
    invalid_arg "Inject.make: probabilities must be in [0,1]";
  if delay_ms < 0 then invalid_arg "Inject.make: negative delay";
  {
    crash;
    delay_ms;
    delay;
    corrupt;
    seed;
    state = ref (Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L);
    m = Mutex.create ();
  }

let none () = make ()

(* splitmix64: tiny, dependency-free, well-mixed — the same generator
   family the fuzz harness uses for reproducible streams *)
let next_int64 t =
  Mutex.protect t.m (fun () ->
      let z = Int64.add !(t.state) 0x9e3779b97f4a7c15L in
      t.state := z;
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
      Int64.logxor z (Int64.shift_right_logical z 31))

let uniform t =
  (* 53 random bits -> [0,1) *)
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) /. 9007199254740992.0

let bits t n = Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int (n - 1))) mod n

let fires t p = p > 0.0 && uniform t < p

let should_crash t = fires t t.crash

let delay_ms t = if t.delay_ms > 0 && fires t t.delay then Some t.delay_ms else None

(* Mutate a request line: overwrite, insert or delete a few bytes.
   Printable replacement bytes and no newlines, so a corrupted request
   is still exactly one line — one line in, one response out, even under
   injection. *)
let corrupt_line t line =
  if not (fires t t.corrupt) then None
  else begin
    let b = Buffer.create (String.length line + 4) in
    Buffer.add_string b line;
    let edits = 1 + bits t 3 in
    for _ = 1 to edits do
      let len = Buffer.length b in
      let c = Char.chr (33 + bits t 94) in
      match bits t 3 with
      | 0 when len > 0 ->
          (* overwrite one byte *)
          let s = Bytes.of_string (Buffer.contents b) in
          Bytes.set s (bits t len) c;
          Buffer.clear b;
          Buffer.add_bytes b s
      | 1 ->
          (* insert one byte *)
          let pos = if len = 0 then 0 else bits t (len + 1) in
          let s = Buffer.contents b in
          Buffer.clear b;
          Buffer.add_string b (String.sub s 0 pos);
          Buffer.add_char b c;
          Buffer.add_string b (String.sub s pos (String.length s - pos))
      | _ when len > 0 ->
          (* truncate the tail *)
          let keep = bits t len in
          let s = String.sub (Buffer.contents b) 0 keep in
          Buffer.clear b;
          Buffer.add_string b s
      | _ -> ()
    done;
    Some (Buffer.contents b)
  end

(* spec grammar: comma-separated k=v; e.g.
     crash=0.1,delay=50@0.3,corrupt=0.05,seed=42
   delay takes MS or MS@P (probability defaults to 1.0) *)
let parse spec =
  let crash = ref 0.0 and delay_ms = ref 0 and delay = ref 0.0 and corrupt = ref 0.0 and seed = ref 0 in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let prob what v =
    match float_of_string_opt v with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> err "invalid %s probability %S (want a float in [0,1])" what v
  in
  let parse_field field =
    match String.index_opt field '=' with
    | None -> err "invalid inject field %S (want key=value)" field
    | Some i -> (
        let k = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        match k with
        | "crash" -> Result.map (fun p -> crash := p) (prob "crash" v)
        | "corrupt" -> Result.map (fun p -> corrupt := p) (prob "corrupt" v)
        | "seed" -> (
            match int_of_string_opt v with
            | Some s -> Ok (seed := s)
            | None -> err "invalid inject seed %S" v)
        | "delay" -> (
            let ms, p =
              match String.index_opt v '@' with
              | None -> (v, "1.0")
              | Some j -> (String.sub v 0 j, String.sub v (j + 1) (String.length v - j - 1))
            in
            match int_of_string_opt ms with
            | Some ms when ms >= 0 ->
                Result.map (fun p -> delay_ms := ms; delay := p) (prob "delay" p)
            | _ -> err "invalid inject delay %S (want MS or MS@P)" v)
        | _ -> err "unknown inject key %S (crash|delay|corrupt|seed)" k)
  in
  let rec go = function
    | [] -> Ok (make ~crash:!crash ~delay_ms:!delay_ms ~delay:!delay ~corrupt:!corrupt ~seed:!seed ())
    | f :: rest -> ( match parse_field f with Ok () -> go rest | Error m -> Error m)
  in
  go (String.split_on_char ',' spec |> List.filter (fun s -> s <> ""))
