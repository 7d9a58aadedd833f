module Security = Mavr_core.Security
module Nat = Mavr_bignum.Nat

let test_factorial_int () =
  Alcotest.(check int) "0!" 1 (Security.factorial_int 0);
  Alcotest.(check int) "6!" 720 (Security.factorial_int 6);
  Alcotest.check_raises "21! overflows"
    (Invalid_argument "Security.factorial_int: out of range") (fun () ->
      ignore (Security.factorial_int 21))

let test_static_expectation () =
  (* E[X] = (N+1)/2 with N = n!. *)
  Alcotest.(check int) "n=3: (6+1)/2 = 3" 3 (Nat.to_int (Security.expected_attempts_static ~n:3));
  Alcotest.(check int) "n=5: (120+1)/2 = 60" 60
    (Nat.to_int (Security.expected_attempts_static ~n:5));
  (* For large n the quantity is astronomically large but exact. *)
  Alcotest.(check int) "800 symbols: 1977-digit effort" 1977
    (Nat.digits (Security.expected_attempts_static ~n:800))

let test_rerandomizing_expectation () =
  Alcotest.(check string) "n=5 -> 5! = 120" "120"
    (Nat.to_string (Security.expected_attempts_rerandomizing ~n:5));
  (* MAVR's re-randomization doubles the expected effort vs static:
     n! vs (n!+1)/2 (§V-D). *)
  let static = Security.expected_attempts_static ~n:10 in
  let rerand = Security.expected_attempts_rerandomizing ~n:10 in
  Alcotest.(check bool) "about double" true
    (Nat.compare rerand (Nat.mul_int static 2) <= 0
    && Nat.compare rerand static > 0)

let test_entropy_bits () =
  let close msg expected actual tol =
    if Float.abs (expected -. actual) > tol then
      Alcotest.failf "%s: expected %.1f got %.1f" msg expected actual
  in
  (* §VIII-B: Ardurover's 800 symbols give ~6567 bits. *)
  close "800 symbols" 6567.0 (Security.entropy_bits ~n:800) 2.0;
  close "917 symbols (Arduplane)" 7707.0 (Security.entropy_bits ~n:917) 5.0;
  close "1030 symbols (Arducopter)" 8829.0 (Security.entropy_bits ~n:1030) 5.0;
  close "small case exact" (log (float_of_int 720) /. log 2.0) (Security.entropy_bits ~n:6) 1e-6

let test_monte_carlo_static () =
  (* n=4: N=24, E = 12.5. *)
  let mean = Security.monte_carlo_static ~n:4 ~trials:20_000 ~seed:7 in
  Alcotest.(check bool) "static MC near 12.5" true (Float.abs (mean -. 12.5) < 0.5)

let test_monte_carlo_rerandomizing () =
  (* n=4: E = 24. *)
  let mean = Security.monte_carlo_rerandomizing ~n:4 ~trials:20_000 ~seed:7 in
  Alcotest.(check bool) "re-randomizing MC near 24" true (Float.abs (mean -. 24.0) < 1.5)

let test_monte_carlo_ordering () =
  (* The defense property: re-randomizing costs the attacker ~2x. *)
  let s = Security.monte_carlo_static ~n:5 ~trials:10_000 ~seed:3 in
  let r = Security.monte_carlo_rerandomizing ~n:5 ~trials:10_000 ~seed:3 in
  Alcotest.(check bool) "rerandomizing harder" true (r > s *. 1.5)

(* ---- §V-C lifetime / frequency trade-off ---- *)

let test_lifetime_basics () =
  let open Mavr_core.Lifetime in
  let every n = { randomize_every_boots = n } in
  Alcotest.(check (float 1e-9)) "every boot, no attacks" 1.0
    (reflashes_per_boot (every 1) ~attack_rate_per_boot:0.0);
  Alcotest.(check (float 1e-9)) "every 10 boots" 0.1
    (reflashes_per_boot (every 10) ~attack_rate_per_boot:0.0);
  Alcotest.(check (float 1e-6)) "wearout at k=1" 10_000.0
    (boots_until_wearout (every 1) ~endurance:10_000 ~attack_rate_per_boot:0.0);
  Alcotest.(check int) "staleness window" 20 (layout_exposure_boots (every 20));
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Lifetime: randomize_every_boots must be >= 1") (fun () ->
      ignore (reflashes_per_boot (every 0) ~attack_rate_per_boot:0.0))

let test_lifetime_attack_pressure () =
  let open Mavr_core.Lifetime in
  let policy = { randomize_every_boots = 20 } in
  let quiet = boots_until_wearout policy ~endurance:10_000 ~attack_rate_per_boot:0.0 in
  let noisy = boots_until_wearout policy ~endurance:10_000 ~attack_rate_per_boot:0.1 in
  Alcotest.(check bool) "attacks consume endurance" true (noisy < quiet);
  (* With heavy attack pressure the schedule k no longer matters much. *)
  let k1 = boots_until_wearout { randomize_every_boots = 1 } ~endurance:10_000 ~attack_rate_per_boot:5.0 in
  let k100 = boots_until_wearout { randomize_every_boots = 100 } ~endurance:10_000 ~attack_rate_per_boot:5.0 in
  Alcotest.(check bool) "attack-dominated regime" true (k100 /. k1 < 1.25)

let prop_lifetime_monotone_in_k =
  QCheck.Test.make ~name:"lifetime monotone in k (fixed attack rate)" ~count:50
    QCheck.(int_range 1 500)
    (fun k ->
      let open Mavr_core.Lifetime in
      boots_until_wearout { randomize_every_boots = k + 1 } ~endurance:10_000
        ~attack_rate_per_boot:0.01
      >= boots_until_wearout { randomize_every_boots = k } ~endurance:10_000
           ~attack_rate_per_boot:0.01)

let prop_static_expectation_closed_form =
  QCheck.Test.make ~name:"(n!+1)/2 closed form" ~count:15
    QCheck.(int_range 1 15)
    (fun n ->
      let nf = Security.factorial_int n in
      Nat.to_int (Security.expected_attempts_static ~n) = (nf + 1) / 2)

let prop_entropy_monotone =
  QCheck.Test.make ~name:"entropy monotone in n" ~count:30
    QCheck.(int_range 2 1000)
    (fun n -> Security.entropy_bits ~n:(n + 1) > Security.entropy_bits ~n)

let () =
  Alcotest.run "security"
    [
      ( "closed-forms",
        [
          Alcotest.test_case "factorial_int" `Quick test_factorial_int;
          Alcotest.test_case "static expectation" `Quick test_static_expectation;
          Alcotest.test_case "re-randomizing expectation" `Quick test_rerandomizing_expectation;
          Alcotest.test_case "entropy bits" `Quick test_entropy_bits;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "basics" `Quick test_lifetime_basics;
          Alcotest.test_case "attack pressure" `Quick test_lifetime_attack_pressure;
          Helpers.qtest prop_lifetime_monotone_in_k;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "static" `Quick test_monte_carlo_static;
          Alcotest.test_case "re-randomizing" `Quick test_monte_carlo_rerandomizing;
          Alcotest.test_case "ordering" `Quick test_monte_carlo_ordering;
        ] );
      ( "properties",
        List.map Helpers.qtest [ prop_static_expectation_closed_form; prop_entropy_monotone ] );
    ]
