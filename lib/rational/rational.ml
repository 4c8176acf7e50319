(* Two-tier representation. [Small (n, d)] keeps the numerator and
   denominator in native ints so the common pivot arithmetic of the
   simplex allocates no bignums; [Big] is the arbitrary-precision
   fallback. Shared invariants: den > 0, gcd(num, den) = 1 (den = 1 when
   num = 0). Canonical form: a value is [Big] only when its normalized
   numerator or denominator does not fit a native int (min_int is
   excluded from [Small] so negation and [abs] never overflow), hence
   structural equality of the representation coincides with numeric
   equality.

   Small-value fast path: when both operands' numerators and
   denominators are below 2^30 in magnitude, every product of two of
   them is below 2^60 and every sum of two such products below 2^61, so
   [compare], [add], [sub], [mul] and [div] compute in native ints
   directly and normalize once: no division-based overflow check, no
   [option]. Larger [Small] values take the checked path, which falls
   back to bignums on overflow. *)

type t = Small of int * int | Big of Bigint.t * Bigint.t

(* both arguments >= 0 *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Demote a normalized bignum pair to [Small] when it fits. *)
let of_big_parts num den =
  match (Bigint.to_int num, Bigint.to_int den) with
  | Some n, Some d when n <> min_int && d <> min_int -> Small (n, d)
  | _ -> Big (num, den)

(* Normalize a bignum pair (den <> 0) and demote. *)
let make_big num den =
  if Bigint.is_zero num then Small (0, 1)
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    let num, den = if Bigint.is_one g then (num, den) else (Bigint.div num g, Bigint.div den g) in
    of_big_parts num den
  end

(* Normalize a native pair (d <> 0); min_int operands take the big
   route because their negation/abs overflows. *)
let small n d =
  if n = min_int || d = min_int then make_big (Bigint.of_int n) (Bigint.of_int d)
  else if n = 0 then Small (0, 1)
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int (abs n) d in
    Small (n / g, d / g)
  end

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  make_big num den

let of_bigint n = of_big_parts n Bigint.one
let of_int n = if n = min_int then Big (Bigint.of_int n, Bigint.one) else Small (n, 1)

let of_ints n d =
  if d = 0 then raise Division_by_zero;
  small n d

let of_float f =
  if not (Float.is_finite f) then
    invalid_arg (Printf.sprintf "Rational.of_float: %h is not finite" f);
  if Float.is_integer f && Float.abs f <= 4503599627370496.0 (* 2^52 *) then
    of_int (int_of_float f)
  else
    (* every finite float is m * 2^e with integer m, |m| < 2^53 *)
    let frac, e = Float.frexp f in
    let m = Bigint.of_int (int_of_float (Float.ldexp frac 53)) in
    let e = e - 53 in
    if e >= 0 then of_bigint (Bigint.mul m (Bigint.pow (Bigint.of_int 2) e))
    else make m (Bigint.pow (Bigint.of_int 2) (-e))

let zero = Small (0, 1)
let one = Small (1, 1)
let two = Small (2, 1)
let half = Small (1, 2)
let minus_one = Small (-1, 1)

let fast_bound = 1 lsl 30

(* [fits4 an ad bn bd]: all four below [fast_bound] in magnitude
   (dens are positive, and [Small] never holds min_int) *)
let fits4 an ad bn bd = Stdlib.abs an lor ad lor Stdlib.abs bn lor bd < fast_bound

(* Canonical form of n/d for d > 0, both native, n <> min_int. Two
   cases need no gcd: |n| = 1 is in lowest terms, and |n| = d is +-1. *)
let norm n d =
  if n = 0 then zero
  else if d = 1 then Small (n, 1)
  else
    let a = Stdlib.abs n in
    if a = 1 then Small (n, d)
    else if a = d then if n > 0 then one else minus_one
    else
      let g = gcd_int a d in
      if g = 1 then Small (n, d) else Small (n / g, d / g)

let num = function Small (n, _) -> Bigint.of_int n | Big (n, _) -> n
let den = function Small (_, d) -> Bigint.of_int d | Big (_, d) -> d
let sign = function Small (n, _) -> Stdlib.compare n 0 | Big (n, _) -> Bigint.sign n
let is_zero = function Small (0, _) -> true | _ -> false
let is_integer = function Small (_, d) -> d = 1 | Big (_, d) -> Bigint.is_one d

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
      let n = Bigint.of_string (String.sub s 0 i) in
      let d = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      (* "1/0" is malformed input, not a division: parse errors must stay
         in the Invalid_argument family callers already catch *)
      if Bigint.is_zero d then invalid_arg "Rational.of_string: zero denominator";
      make n d
  | None -> (
      match String.index_opt s '.' with
      | None -> of_bigint (Bigint.of_string s)
      | Some i ->
          let int_part = String.sub s 0 i in
          let frac = String.sub s (i + 1) (String.length s - i - 1) in
          if String.length frac = 0 then invalid_arg "Rational.of_string: trailing dot";
          let scale = Bigint.pow (Bigint.of_int 10) (String.length frac) in
          let negative = String.length int_part > 0 && (int_part.[0] = '-') in
          let int_value = if int_part = "" || int_part = "-" || int_part = "+" then Bigint.zero else Bigint.of_string int_part in
          let frac_value = Bigint.of_string frac in
          let magnitude = Bigint.add (Bigint.mul (Bigint.abs int_value) scale) frac_value in
          make (if negative then Bigint.neg magnitude else magnitude) scale)

(* Canonical representation: numeric equality is representation equality. *)
let equal a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> an = bn && ad = bd
  | Big (an, ad), Big (bn, bd) -> Bigint.equal an bn && Bigint.equal ad bd
  | Small _, Big _ | Big _, Small _ -> false

let compare_big a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den (dens > 0) *)
  Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))

let compare a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> (
      if ad = bd then Int.compare an bn
      else if fits4 an ad bn bd then Int.compare (an * bd) (bn * ad)
      else
        match (Bigint.checked_mul an bd, Bigint.checked_mul bn ad) with
        | Some x, Some y -> Stdlib.compare x y
        | _ -> compare_big a b)
  | _ -> compare_big a b

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg = function
  | Small (n, d) -> Small (-n, d) (* n <> min_int by invariant *)
  | Big (n, d) -> of_big_parts (Bigint.neg n) d

let abs t = if sign t < 0 then neg t else t

let add_big a b =
  make_big
    (Bigint.add (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a)))
    (Bigint.mul (den a) (den b))

(* an/ad + bn/bd on the fast path ([fits4]) *)
let add_fast an ad bn bd =
  if ad = bd then norm (an + bn) ad
  else if ad = 1 || bd = 1 then
    (* n/d + k = (n + kd)/d stays in lowest terms *)
    Small ((an * bd) + (bn * ad), ad * bd)
  else norm ((an * bd) + (bn * ad)) (ad * bd)

let add a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) when fits4 an ad bn bd -> add_fast an ad bn bd
  | Small (an, ad), Small (bn, bd) -> (
      match (Bigint.checked_mul an bd, Bigint.checked_mul bn ad, Bigint.checked_mul ad bd) with
      | Some x, Some y, Some d -> (
          match Bigint.checked_add x y with Some n -> small n d | None -> add_big a b)
      | _ -> add_big a b)
  | _ -> add_big a b

let sub a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) when fits4 an ad bn bd -> add_fast an ad (-bn) bd
  | _ -> add a (neg b)

let mul_big a b = make_big (Bigint.mul (num a) (num b)) (Bigint.mul (den a) (den b))

let mul a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) when fits4 an ad bn bd -> norm (an * bn) (ad * bd)
  | Small (an, ad), Small (bn, bd) -> (
      (* cross-reduce first: keeps intermediates (and overflow falls) small *)
      let g1 = gcd_int (Stdlib.abs an) bd and g2 = gcd_int (Stdlib.abs bn) ad in
      let an = an / g1 and bd = bd / g1 and bn = bn / g2 and ad = ad / g2 in
      match (Bigint.checked_mul an bn, Bigint.checked_mul ad bd) with
      | Some n, Some d -> small n d
      | _ -> mul_big a b)
  | _ -> mul_big a b

let inv = function
  | Small (0, _) -> raise Division_by_zero
  | Small (n, d) -> if n < 0 then Small (-d, -n) else Small (d, n)
  | Big (n, d) -> make d n

let div a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) when fits4 an ad bn bd ->
      if bn = 0 then raise Division_by_zero
      else if bn > 0 then norm (an * bd) (ad * bn)
      else norm (-(an * bd)) (ad * -bn)
  | _ -> mul a (inv b)

(* a - b*c fused, the sparse LU elimination kernel. A zero factor
   returns [a]. Integers below 2^30 subtract their product directly;
   fractions whose six parts are all below 2^20 (so three-way products
   stay below 2^60) normalize once. Otherwise: cross-reduce the product
   as [mul] does, then combine with [a] through one checked small-int
   pass; any overflow falls back to the exact two-step form. *)
let submul a b c =
  match (a, b, c) with
  | _, Small (0, _), _ | _, _, Small (0, _) -> a
  | Small (an, 1), Small (bn, 1), Small (cn, 1)
    when Stdlib.abs an lor Stdlib.abs bn lor Stdlib.abs cn < fast_bound ->
      Small (an - (bn * cn), 1)
  | Small (an, ad), Small (bn, bd), Small (cn, cd)
    when Stdlib.abs an lor ad lor Stdlib.abs bn lor bd lor Stdlib.abs cn lor cd < 1 lsl 20 ->
      norm ((an * bd * cd) - (bn * cn * ad)) (ad * bd * cd)
  | Small (an, ad), Small (bn, bd), Small (cn, cd) -> (
      let g1 = gcd_int (Stdlib.abs bn) cd and g2 = gcd_int (Stdlib.abs cn) bd in
      let bn = bn / g1 and cd = cd / g1 in
      let cn = cn / g2 and bd = bd / g2 in
      match (Bigint.checked_mul bn cn, Bigint.checked_mul bd cd) with
      | Some pn, Some pd -> (
          match
            (Bigint.checked_mul an pd, Bigint.checked_mul pn ad, Bigint.checked_mul ad pd)
          with
          | Some x, Some y, Some d -> (
              match Bigint.checked_sub x y with
              | Some n -> small n d
              | None -> sub a (mul b c))
          | _ -> sub a (mul b c))
      | _ -> sub a (mul b c))
  | _ -> sub a (mul b c)

let floor = function
  | Small (n, d) ->
      if d = 1 then Small (n, 1)
      else if n >= 0 then Small (n / d, 1)
      else Small ((n / d) - (if n mod d = 0 then 0 else 1), 1)
  | Big (n, d) as t ->
      if Bigint.is_one d then t
      else
        let q, r = Bigint.divmod n d in
        if Bigint.is_zero r || Bigint.sign n >= 0 then of_bigint q
        else of_bigint (Bigint.sub q Bigint.one)

let ceil t = neg (floor (neg t))

let to_int = function Small (n, 1) -> Some n | _ -> None

let floor_int t =
  match floor t with
  | Small (n, _) -> n
  | Big _ -> failwith "Rational.floor_int: out of native range"

let ceil_int t =
  match ceil t with
  | Small (n, _) -> n
  | Big _ -> failwith "Rational.ceil_int: out of native range"

let to_float = function
  | Small (n, d) -> float_of_int n /. float_of_int d
  | Big (n, d) -> Bigint.to_float n /. Bigint.to_float d

let to_string = function
  | Small (n, 1) -> string_of_int n
  | Small (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big (n, d) ->
      if Bigint.is_one d then Bigint.to_string n
      else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let pp fmt t = Format.pp_print_string fmt (to_string t)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( <> ) a b = not (equal a b)
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
