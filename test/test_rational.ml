(* Unit and property tests for Rational: field laws, normalization
   invariants, ordering, floor/ceil, and parsing. *)

module Q = Rational

let q = Q.of_ints
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_normalization () =
  check_q "reduce" "2/3" (q 4 6);
  check_q "negative den" "-2/3" (q 2 (-3));
  check_q "double negative" "2/3" (q (-2) (-3));
  check_q "zero" "0" (q 0 17);
  check_q "integral" "5" (q 10 2);
  Alcotest.(check string) "den positive" "3" (Bigint.to_string (Q.den (q 2 (-3))));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () -> ignore (q 1 0))

let test_parse () =
  check_q "int" "42" (Q.of_string "42");
  check_q "fraction" "1/3" (Q.of_string "2/6");
  check_q "negative fraction" "-1/3" (Q.of_string "-2/6");
  check_q "decimal" "1/4" (Q.of_string "0.25");
  check_q "negative decimal" "-5/2" (Q.of_string "-2.5");
  check_q "decimal no int part" "1/2" (Q.of_string ".5");
  check_q "big decimal" "123456789123456789/100" (Q.of_string "1234567891234567.89");
  (* a zero denominator is a parse error, not an arithmetic one: callers
     (the instance parser, behind the serve daemon) catch the
     Invalid_argument family but must never see Division_by_zero *)
  Alcotest.check_raises "1/0 is a parse error"
    (Invalid_argument "Rational.of_string: zero denominator") (fun () ->
      ignore (Q.of_string "1/0"));
  Alcotest.check_raises "0/0 is a parse error"
    (Invalid_argument "Rational.of_string: zero denominator") (fun () ->
      ignore (Q.of_string "0/0"))

let test_arith () =
  check_q "add" "5/6" (Q.add (q 1 2) (q 1 3));
  check_q "sub" "1/6" (Q.sub (q 1 2) (q 1 3));
  check_q "mul" "1/6" (Q.mul (q 1 2) (q 1 3));
  check_q "div" "3/2" (Q.div (q 1 2) (q 1 3));
  check_q "inv" "-3/2" (Q.inv (q (-2) 3));
  check_q "add cancel" "0" (Q.add (q 1 2) (q (-1) 2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_floor_ceil () =
  let cases =
    [ (7, 2, "3", "4"); (-7, 2, "-4", "-3"); (6, 3, "2", "2"); (-6, 3, "-2", "-2"); (0, 5, "0", "0"); (1, 3, "0", "1"); (-1, 3, "-1", "0") ]
  in
  List.iter
    (fun (n, d, fl, ce) ->
      check_q (Printf.sprintf "floor %d/%d" n d) fl (Q.floor (q n d));
      check_q (Printf.sprintf "ceil %d/%d" n d) ce (Q.ceil (q n d)))
    cases;
  Alcotest.(check int) "floor_int" 3 (Q.floor_int (q 7 2));
  Alcotest.(check int) "ceil_int" (-3) (Q.ceil_int (q (-7) 2))

let test_compare () =
  let open Q in
  Alcotest.(check bool) "1/2 < 2/3" true (q 1 2 < q 2 3);
  Alcotest.(check bool) "-1/2 > -2/3" true (q (-1) 2 > q (-2) 3);
  Alcotest.(check bool) "3/6 = 1/2" true (q 3 6 = q 1 2);
  Alcotest.(check bool) "min" true (Q.min (q 1 2) (q 1 3) = q 1 3);
  Alcotest.(check bool) "max" true (Q.max (q 1 2) (q 1 3) = q 1 2)

let test_to_int () =
  Alcotest.(check (option int)) "integral" (Some 5) (Q.to_int (q 10 2));
  Alcotest.(check (option int)) "fractional" None (Q.to_int (q 1 2));
  Alcotest.(check bool) "is_integer" true (Q.is_integer (q 4 2));
  Alcotest.(check bool) "not integer" false (Q.is_integer (q 1 2))

let test_to_float () =
  Alcotest.(check (float 1e-12)) "1/2" 0.5 (Q.to_float (q 1 2));
  Alcotest.(check (float 1e-12)) "-1/4" (-0.25) (Q.to_float (q (-1) 4))

let test_of_float () =
  check_q "dyadic" "1/2" (Q.of_float 0.5);
  check_q "negative" "-13/4" (Q.of_float (-3.25));
  check_q "zero" "0" (Q.of_float 0.0);
  check_q "integer" "42" (Q.of_float 42.0);
  (* 0.1 is NOT 1/10: the conversion is exact, not nearest-decimal *)
  check_q "0.1 exactly" "3602879701896397/36028797018963968" (Q.of_float 0.1);
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "roundtrip %h" f)
        f
        (Q.to_float (Q.of_float f)))
    (* tiny magnitudes (1e-300 etc.) are converted exactly too, but the
       roundtrip check would hit to_float's denominator overflow *)
    [ 0.1; -1e300; 3.14159; 12345.6789; Float.max_float ];
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%h rejected" f)
        true
        (match Q.of_float f with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* -- properties ---------------------------------------------------------- *)

let rat_gen =
  let open QCheck.Gen in
  map2 (fun n d -> q n d) (int_range (-10_000) 10_000) (int_range 1 10_000)

let rat = QCheck.make rat_gen ~print:Q.to_string
let rat3 = QCheck.(triple rat rat rat)

let prop_field_assoc =
  QCheck.Test.make ~name:"add and mul associative" ~count:1000 rat3 (fun (a, bq, c) ->
      Q.equal (Q.add a (Q.add bq c)) (Q.add (Q.add a bq) c)
      && Q.equal (Q.mul a (Q.mul bq c)) (Q.mul (Q.mul a bq) c))

let prop_distributive =
  QCheck.Test.make ~name:"distributivity" ~count:1000 rat3 (fun (a, bq, c) ->
      Q.equal (Q.mul a (Q.add bq c)) (Q.add (Q.mul a bq) (Q.mul a c)))

let prop_inverse =
  QCheck.Test.make ~name:"a * (1/a) = 1 ; a + (-a) = 0" ~count:1000 rat (fun a ->
      Q.equal (Q.add a (Q.neg a)) Q.zero && (Q.is_zero a || Q.equal (Q.mul a (Q.inv a)) Q.one))

let prop_normalized =
  QCheck.Test.make ~name:"results always normalized" ~count:1000 (QCheck.pair rat rat) (fun (a, bq) ->
      let check t =
        Bigint.sign (Q.den t) = 1 && Bigint.equal (Bigint.gcd (Q.num t) (Q.den t)) (Bigint.gcd (Q.den t) (Q.num t))
        && (Q.is_zero t || Bigint.is_one (Bigint.gcd (Q.num t) (Q.den t)))
      in
      check (Q.add a bq) && check (Q.sub a bq) && check (Q.mul a bq))

let prop_floor_ceil_bracket =
  QCheck.Test.make ~name:"floor <= x <= ceil, gap < 1" ~count:1000 rat (fun a ->
      let f = Q.floor a and c = Q.ceil a in
      Q.compare f a <= 0 && Q.compare a c <= 0
      && Q.compare (Q.sub a f) Q.one < 0
      && Q.compare (Q.sub c a) Q.one < 0
      && Q.is_integer f && Q.is_integer c)

let prop_order_compatible =
  QCheck.Test.make ~name:"order compatible with addition" ~count:1000 rat3 (fun (a, bq, c) ->
      if Q.compare a bq <= 0 then Q.compare (Q.add a c) (Q.add bq c) <= 0 else true)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:1000 rat (fun a ->
      Q.equal a (Q.of_string (Q.to_string a)))

let prop_floor_shift =
  QCheck.Test.make ~name:"floor(x + n) = floor(x) + n for integer n" ~count:1000
    (QCheck.pair rat (QCheck.int_range (-50) 50))
    (fun (x, n) ->
      Q.equal (Q.floor (Q.add x (Q.of_int n))) (Q.add (Q.floor x) (Q.of_int n)))

let prop_abs_sign =
  QCheck.Test.make ~name:"x = sign(x) * |x|; |x| >= 0" ~count:1000 rat (fun x ->
      Q.equal x (Q.mul (Q.of_int (Q.sign x)) (Q.abs x)) && Q.compare (Q.abs x) Q.zero >= 0)

let prop_min_max =
  QCheck.Test.make ~name:"min + max = x + y" ~count:1000 (QCheck.pair rat rat) (fun (x, y) ->
      Q.equal (Q.add (Q.min x y) (Q.max x y)) (Q.add x y))

(* Operands straddling the representation's switch points: the native
   fast paths stop at 2^20 (three-way products) and 2^30, the checked
   native path at the int range (max_int = 2^62 - 1), and products of
   two such parts are [Big]. Plain small values keep the fast paths
   well covered. *)
let edge_rat_gen =
  let open QCheck.Gen in
  let near b = map (fun k -> b + k) (int_range (-2) 2) in
  let part =
    oneof
      [ near (1 lsl 20); near (-(1 lsl 20)); near (1 lsl 30); near (-(1 lsl 30));
        near (1 lsl 31); near (-(1 lsl 31));
        map (fun k -> max_int - k) (int_range 0 2); map (fun k -> min_int + k) (int_range 0 2) ]
  in
  let small = int_range (-12) 12 in
  let product = map2 (fun a b -> Bigint.mul (Bigint.of_int a) (Bigint.of_int b)) part part in
  let num = frequency [ (2, map Bigint.of_int small); (2, map Bigint.of_int part); (1, product) ] in
  let den = frequency [ (2, map Bigint.of_int (int_range 1 12)); (2, map Bigint.of_int part); (1, product) ] in
  frequency
    [ (1, map2 (fun n d -> q n d) small (int_range 1 12));
      (2, map2 (fun n d -> Q.make n (if Bigint.is_zero d then Bigint.one else Bigint.abs d)) num den) ]

let edge_rat = QCheck.make edge_rat_gen ~print:Q.to_string

(* Every fast and checked path against a bignum-only reference built
   with [make]; [equal] is structural, so agreement also proves the
   result canonical. *)
let prop_matches_bignum_reference =
  QCheck.Test.make ~name:"ops match the bignum reference at the boundaries" ~count:20_000
    QCheck.(triple edge_rat edge_rat edge_rat)
    (fun (a, b, c) ->
      let open Bigint in
      let na = Q.num a and da = Q.den a and nb = Q.num b and db = Q.den b in
      let nc = Q.num c and dc = Q.den c in
      let bc_n = nb * nc and bc_d = db * dc in
      Q.equal (Q.add a b) (Q.make ((na * db) + (nb * da)) (da * db))
      && Q.equal (Q.sub a b) (Q.make ((na * db) - (nb * da)) (da * db))
      && Q.equal (Q.mul a b) (Q.make (na * nb) (da * db))
      && (Q.is_zero b || Q.equal (Q.div a b) (Q.make (na * db) (da * nb)))
      && Q.equal (Q.submul a b c) (Q.make ((na * bc_d) - (bc_n * da)) (da * bc_d))
      && Int.equal (Q.compare a b) (Bigint.compare (na * db) (nb * da)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_field_assoc; prop_distributive; prop_inverse; prop_normalized; prop_floor_ceil_bracket;
      prop_order_compatible; prop_string_roundtrip; prop_floor_shift; prop_abs_sign; prop_min_max;
      prop_matches_bignum_reference ]

let () =
  Alcotest.run "rational"
    [ ( "unit",
        [ Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "to_int" `Quick test_to_int;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "of_float" `Quick test_of_float ] );
      ("properties", props) ]
