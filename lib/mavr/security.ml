module Nat = Mavr_bignum.Nat
module Rng = Mavr_prng.Splitmix

let expected_attempts_static ~n =
  let q, _ = Nat.divmod_int (Nat.add (Nat.factorial n) Nat.one) 2 in
  q

let expected_attempts_rerandomizing ~n = Nat.factorial n

let entropy_bits ~n = Nat.log2_factorial n

let entropy_bits_with_padding ~n ~slack_bytes =
  (* log2 C(slack+n, n) computed stably as sum log2 ((slack+i)/i). *)
  let log2 x = log x /. log 2.0 in
  let rec gaps i acc =
    if i > n then acc
    else gaps (i + 1) (acc +. log2 (float_of_int (slack_bytes + i) /. float_of_int i))
  in
  entropy_bits ~n +. gaps 1 0.0

let factorial_int n =
  if n < 0 || n > 20 then invalid_arg "Security.factorial_int: out of range";
  let rec go i acc = if i > n then acc else go (i + 1) (acc * i) in
  go 2 1

(* The attacker guesses permutations; a guess is "correct" when it equals
   the defender's layout.  Static: the layout is fixed and the attacker
   samples without replacement.  Re-randomizing: the defender redraws
   after every failed attempt, so prior guesses teach nothing. *)

let monte_carlo_static ~n ~trials ~seed =
  let nf = factorial_int n in
  let rng = Rng.create ~seed in
  let total = ref 0 in
  for _ = 1 to trials do
    (* Sampling without replacement over nf layouts = success position
       uniform in 1..nf. *)
    total := !total + 1 + Rng.int rng nf
  done;
  float_of_int !total /. float_of_int trials

let monte_carlo_rerandomizing ~n ~trials ~seed =
  let nf = factorial_int n in
  let rng = Rng.create ~seed in
  let total = ref 0 in
  for _ = 1 to trials do
    let attempts = ref 1 in
    while Rng.int rng nf <> 0 do
      incr attempts
    done;
    total := !total + !attempts
  done;
  float_of_int !total /. float_of_int trials
