module Nat = Mavr_bignum.Nat

let check_int msg expected actual = Alcotest.(check int) msg expected actual
let check_str msg expected actual = Alcotest.(check string) msg expected actual

let test_of_to_int () =
  check_int "roundtrip 0" 0 (Nat.to_int (Nat.of_int 0));
  check_int "roundtrip 1" 1 (Nat.to_int Nat.one);
  check_int "roundtrip 42" 42 (Nat.to_int (Nat.of_int 42));
  check_int "roundtrip large" 123_456_789_012_345 (Nat.to_int (Nat.of_int 123_456_789_012_345));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)))

let test_to_string () =
  check_str "zero" "0" (Nat.to_string (Nat.of_int 0));
  check_str "small" "7" (Nat.to_string (Nat.of_int 7));
  check_str "limb boundary" "1000000000" (Nat.to_string (Nat.of_int 1_000_000_000));
  check_str "two limbs" "123456789987654321" (Nat.to_string (Nat.of_int 123456789987654321))

let test_of_string () =
  check_str "parse" "98765432109876543210"
    (Nat.to_string (Nat.of_string "98765432109876543210"));
  check_int "parse small" 12345 (Nat.to_int (Nat.of_string "12345"));
  Alcotest.check_raises "empty rejected" (Invalid_argument "Nat.of_string: empty") (fun () ->
      ignore (Nat.of_string ""))

let test_add_sub () =
  let a = Nat.of_string "999999999999999999" in
  let b = Nat.of_int 1 in
  check_str "carry chain" "1000000000000000000" (Nat.to_string (Nat.add a b));
  check_str "sub undoes add" (Nat.to_string a) (Nat.to_string (Nat.sub (Nat.add a b) b));
  check_str "a - a" "0" (Nat.to_string (Nat.sub a a));
  Alcotest.check_raises "negative result rejected"
    (Invalid_argument "Nat.sub: would be negative") (fun () -> ignore (Nat.sub b a))

let test_mul () =
  let a = Nat.of_string "123456789123456789" in
  let b = Nat.of_string "987654321987654321" in
  (* Verified with independent bignum arithmetic. *)
  check_str "big product" "121932631356500531347203169112635269"
    (Nat.to_string (Nat.mul a b));
  check_str "by zero" "0" (Nat.to_string (Nat.mul a (Nat.of_int 0)));
  check_str "by one" (Nat.to_string a) (Nat.to_string (Nat.mul a Nat.one));
  check_str "mul_int matches mul" (Nat.to_string (Nat.mul a (Nat.of_int 77)))
    (Nat.to_string (Nat.mul_int a 77))

let test_divmod () =
  let a = Nat.of_string "1000000000000000000000001" in
  let q, r = Nat.divmod_int a 7 in
  check_str "q*7+r = a" (Nat.to_string a) (Nat.to_string (Nat.add (Nat.mul_int q 7) (Nat.of_int r)));
  let q2, r2 = Nat.divmod_int (Nat.of_int 17) 5 in
  check_int "17/5" 3 (Nat.to_int q2);
  check_int "17 mod 5" 2 r2

let test_factorial () =
  check_int "5!" 120 (Nat.to_int (Nat.factorial 5));
  check_int "10!" 3628800 (Nat.to_int (Nat.factorial 10));
  check_str "20!" "2432902008176640000" (Nat.to_string (Nat.factorial 20));
  check_str "30!" "265252859812191058636308480000000" (Nat.to_string (Nat.factorial 30));
  (* 800! has 1977 decimal digits. *)
  check_int "800! digit count" 1977 (Nat.digits (Nat.factorial 800))

let test_compare () =
  Alcotest.(check bool) "lt" true (Nat.compare (Nat.of_int 5) (Nat.of_int 9) < 0);
  Alcotest.(check bool) "gt across limbs" true
    (Nat.compare (Nat.of_string "10000000000") (Nat.of_int 5) > 0);
  Alcotest.(check bool) "equal" true (Nat.equal (Nat.of_int 123) (Nat.of_int 123))

let test_log2 () =
  let approx msg expected actual tolerance =
    if Float.abs (expected -. actual) > tolerance then
      Alcotest.failf "%s: expected %.4f got %.4f" msg expected actual
  in
  approx "log2 1024" 10.0 (Nat.log2 (Nat.of_int 1024)) 1e-9;
  approx "log2 factorial consistency"
    (Nat.log2 (Nat.factorial 100))
    (Nat.log2_factorial 100) 1e-6;
  (* The paper's entropy figure: 800 symbols -> 6567 bits (§VIII-B). *)
  approx "paper entropy 800!" 6567.0 (Nat.log2_factorial 800) 5.0

let prop_add_commutative =
  QCheck.Test.make ~name:"add commutative" ~count:200
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      Nat.equal (Nat.add (Nat.of_int a) (Nat.of_int b)) (Nat.add (Nat.of_int b) (Nat.of_int a)))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches native int" ~count:200
    QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (a, b) -> Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:200
    QCheck.(int_bound max_int)
    (fun a -> Nat.to_int (Nat.of_string (Nat.to_string (Nat.of_int a))) = a)

let prop_divmod =
  QCheck.Test.make ~name:"divmod invariant" ~count:200
    QCheck.(pair (int_bound 1_000_000_000_000) (int_range 1 100_000))
    (fun (a, k) ->
      let q, r = Nat.divmod_int (Nat.of_int a) k in
      r >= 0 && r < k && (Nat.to_int q * k) + r = a)

let () =
  Alcotest.run "bignum"
    [
      ( "nat",
        [
          Alcotest.test_case "of_int/to_int" `Quick test_of_to_int;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod_int" `Quick test_divmod;
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "log2" `Quick test_log2;
        ] );
      ( "nat-properties",
        List.map Helpers.qtest
          [ prop_add_commutative; prop_mul_matches_int; prop_string_roundtrip; prop_divmod ] );
    ]
