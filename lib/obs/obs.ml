module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape_into buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    escape_into buf s;
    Buffer.contents buf

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | String s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            emit buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape_into buf k;
            Buffer.add_string buf "\":";
            emit buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  let pp fmt v = Format.pp_print_string fmt (to_string v)

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  (* Recursive-descent parser, the inverse of [emit]. Total: any input —
     including the adversarial bytes the fuzz harness feeds it — yields
     [Ok] or [Error], never an exception. Depth-capped so deeply nested
     arrays cannot blow the stack. *)
  exception Bad of int * string

  let parse s =
    let n = String.length s in
    let fail i msg = raise (Bad (i, msg)) in
    let max_depth = 256 in
    let rec skip_ws i =
      if i < n then
        match s.[i] with ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1) | _ -> i
      else i
    in
    let expect i c =
      if i < n && s.[i] = c then i + 1
      else fail i (Printf.sprintf "expected %C" c)
    in
    let literal i word v =
      let l = String.length word in
      if i + l <= n && String.sub s i l = word then (v, i + l)
      else fail i ("expected " ^ word)
    in
    let hex4 i =
      if i + 4 > n then fail i "truncated \\u escape";
      let d c =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail i "bad hex digit in \\u escape"
      in
      (d s.[i] * 4096) + (d s.[i + 1] * 256) + (d s.[i + 2] * 16) + d s.[i + 3]
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xf0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
    in
    let parse_string i =
      let buf = Buffer.create 16 in
      let rec go i =
        if i >= n then fail i "unterminated string"
        else
          match s.[i] with
          | '"' -> (Buffer.contents buf, i + 1)
          | '\\' ->
              if i + 1 >= n then fail i "truncated escape";
              (match s.[i + 1] with
              | '"' -> Buffer.add_char buf '"'; go (i + 2)
              | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
              | '/' -> Buffer.add_char buf '/'; go (i + 2)
              | 'b' -> Buffer.add_char buf '\b'; go (i + 2)
              | 'f' -> Buffer.add_char buf '\012'; go (i + 2)
              | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
              | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
              | 't' -> Buffer.add_char buf '\t'; go (i + 2)
              | 'u' ->
                  let cp = hex4 (i + 2) in
                  (* surrogate pair: combine when a low surrogate follows *)
                  if cp >= 0xd800 && cp <= 0xdbff && i + 12 <= n && s.[i + 6] = '\\'
                     && s.[i + 7] = 'u' then begin
                    let lo = hex4 (i + 8) in
                    if lo >= 0xdc00 && lo <= 0xdfff then begin
                      add_utf8 buf (0x10000 + ((cp - 0xd800) * 1024) + (lo - 0xdc00));
                      go (i + 12)
                    end
                    else begin add_utf8 buf cp; go (i + 6) end
                  end
                  else begin add_utf8 buf cp; go (i + 6) end
              | c -> fail i (Printf.sprintf "bad escape \\%c" c))
          | c when Char.code c < 0x20 -> fail i "unescaped control character"
          | c -> Buffer.add_char buf c; go (i + 1)
      in
      go i
    in
    let parse_number i =
      let j = ref i in
      if !j < n && s.[!j] = '-' then incr j;
      let digits k = let k0 = k in let k = ref k in
        while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
        if !k = k0 then fail k0 "expected digit"; !k
      in
      j := digits !j;
      let is_float = ref false in
      if !j < n && s.[!j] = '.' then begin is_float := true; j := digits (!j + 1) end;
      if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
        is_float := true;
        let k = !j + 1 in
        let k = if k < n && (s.[k] = '+' || s.[k] = '-') then k + 1 else k in
        j := digits k
      end;
      let text = String.sub s i (!j - i) in
      let v =
        if !is_float then Float (float_of_string text)
        else
          match int_of_string_opt text with
          | Some k -> Int k
          | None -> Float (float_of_string text) (* out of int range *)
      in
      (v, !j)
    in
    let rec value depth i =
      if depth > max_depth then fail i "nesting too deep";
      let i = skip_ws i in
      if i >= n then fail i "unexpected end of input"
      else
        match s.[i] with
        | 'n' -> literal i "null" Null
        | 't' -> literal i "true" (Bool true)
        | 'f' -> literal i "false" (Bool false)
        | '"' -> let str, j = parse_string (i + 1) in (String str, j)
        | '-' | '0' .. '9' -> parse_number i
        | '[' ->
            let rec items acc i =
              let v, j = value (depth + 1) i in
              let j = skip_ws j in
              if j < n && s.[j] = ',' then items (v :: acc) (j + 1)
              else (List.rev (v :: acc), expect j ']')
            in
            let j = skip_ws (i + 1) in
            if j < n && s.[j] = ']' then (List [], j + 1)
            else let xs, j = items [] j in (List xs, j)
        | '{' ->
            let field i =
              let i = skip_ws i in
              let i = expect i '"' in
              let k, j = parse_string i in
              let j = expect (skip_ws j) ':' in
              let v, j = value (depth + 1) j in
              ((k, v), j)
            in
            let rec fields acc i =
              let kv, j = field i in
              let j = skip_ws j in
              if j < n && s.[j] = ',' then fields (kv :: acc) (j + 1)
              else (List.rev (kv :: acc), expect j '}')
            in
            let j = skip_ws (i + 1) in
            if j < n && s.[j] = '}' then (Obj [], j + 1)
            else let kvs, j = fields [] j in (Obj kvs, j)
        | c -> fail i (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v, i = value 0 0 in
      let i = skip_ws i in
      if i <> n then fail i "trailing garbage" else v
    with
    | v -> Ok v
    | exception Bad (i, msg) -> Error (Printf.sprintf "at offset %d: %s" i msg)
end

(* FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
   Collision resistance is irrelevant here — the digest only fingerprints
   instances in telemetry documents. *)
let digest s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "fnv1a64:%016Lx" !h

type event =
  | Enter of string
  | Exit of { name : string; ticks : int }
  | Counter of { name : string; total : int }

module Sink = struct
  type t = event -> unit

  let null = fun (_ : event) -> ()
  let of_fn f = f

  let memory () =
    let events = ref [] in
    ((fun e -> events := e :: !events), fun () -> List.rev !events)

  let event_to_json = function
    | Enter name -> Json.Obj [ ("event", Json.String "enter"); ("span", Json.String name) ]
    | Exit { name; ticks } ->
        Json.Obj
          [ ("event", Json.String "exit");
            ("span", Json.String name);
            ("ticks", Json.Int ticks) ]
    | Counter { name; total } ->
        Json.Obj
          [ ("event", Json.String "counter");
            ("name", Json.String name);
            ("total", Json.Int total) ]

  let line_json write = fun e -> write (Json.to_string (event_to_json e))
end

type span = { name : string; ticks : int; children : span list }

type frame = {
  frame_name : string;
  ticks_at_enter : int;
  mutable children_rev : span list;
}

type recorder = {
  counters : (string, int ref) Hashtbl.t;
  mutable total : int;
  mutable stack : frame list;
  mutable roots_rev : span list;
  sink : Sink.t;
}

type t = Null | Rec of recorder

let null = Null
let is_null = function Null -> true | Rec _ -> false

let create ?(sink = Sink.null) () =
  Rec
    {
      counters = Hashtbl.create 32;
      total = 0;
      stack = [];
      roots_rev = [];
      sink;
    }

let add t name n =
  match t with
  | Null -> ()
  | Rec r ->
      if n < 0 then invalid_arg "Obs.add: counters are monotonic";
      if n > 0 then begin
        (match Hashtbl.find_opt r.counters name with
        | Some c -> c := !c + n
        | None -> Hashtbl.add r.counters name (ref n));
        r.total <- r.total + n
      end

let incr t name = add t name 1

let counters t =
  match t with
  | Null -> []
  | Rec r ->
      Hashtbl.fold (fun name c acc -> (name, !c) :: acc) r.counters []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counter t name =
  match t with
  | Null -> 0
  | Rec r -> ( match Hashtbl.find_opt r.counters name with Some c -> !c | None -> 0)

let total_ticks = function Null -> 0 | Rec r -> r.total

let enter t name =
  match t with
  | Null -> ()
  | Rec r ->
      r.stack <-
        { frame_name = name; ticks_at_enter = r.total; children_rev = [] }
        :: r.stack;
      r.sink (Enter name)

let exit t =
  match t with
  | Null -> ()
  | Rec r -> (
      match r.stack with
      | [] -> invalid_arg "Obs.exit: no open span"
      | f :: rest ->
          let node =
            {
              name = f.frame_name;
              ticks = r.total - f.ticks_at_enter;
              children = List.rev f.children_rev;
            }
          in
          (match rest with
          | [] -> r.roots_rev <- node :: r.roots_rev
          | parent :: _ -> parent.children_rev <- node :: parent.children_rev);
          r.stack <- rest;
          r.sink (Exit { name = node.name; ticks = node.ticks }))

let span t name f =
  match t with
  | Null -> f ()
  | Rec _ ->
      enter t name;
      Fun.protect ~finally:(fun () -> exit t) f

let span_tree = function Null -> [] | Rec r -> List.rev r.roots_rev

let flush t =
  match t with
  | Null -> ()
  | Rec r ->
      List.iter (fun (name, total) -> r.sink (Counter { name; total })) (counters t)

let counters_to_json t =
  Json.Obj (List.map (fun (name, total) -> (name, Json.Int total)) (counters t))

let spans_to_json t =
  let rec node s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("ticks", Json.Int s.ticks);
        ("children", Json.List (List.map node s.children)) ]
  in
  Json.List (List.map node (span_tree t))
