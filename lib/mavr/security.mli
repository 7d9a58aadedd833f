(** Brute-force effort and entropy analysis (§V-D, §VII-A1, §VIII-B).

    An attacker who cannot read the randomized binary must guess the
    permutation.  With [N = n!] equally likely layouts and sampling
    without replacement, success at attempt [j] has probability [1/N], so
    the expected effort is [(N+1)/2].  MAVR re-randomizes after every
    failed attempt, making every guess a fresh Bernoulli trial of
    probability [1/N] — expected effort [N].  All exact quantities use
    arbitrary-precision naturals. *)

(** [expected_attempts_static ~n] is [(n! + 1) / 2] — the software-only
    defense (single permanent permutation). *)
val expected_attempts_static : n:int -> Mavr_bignum.Nat.t

(** [expected_attempts_rerandomizing ~n] is [n!] — full MAVR. *)
val expected_attempts_rerandomizing : n:int -> Mavr_bignum.Nat.t

(** [entropy_bits ~n] is [log2 (n!)] — e.g. ~6567 bits for Ardurover's
    800 symbols. *)
val entropy_bits : n:int -> float

(** [entropy_bits_with_padding ~n ~slack_bytes] — the §VIII-B design the
    paper considered and rejected: distributing [slack_bytes] of random
    padding into the n+1 inter-function gaps adds
    [log2 (binomial (slack + n) n)] bits on top of the permutation's
    [log2 n!].  The paper's conclusion — the permutation alone is already
    computationally secure — is visible from how little the padding term
    adds relative to the factorial term. *)
val entropy_bits_with_padding : n:int -> slack_bytes:int -> float

(** {2 Monte-Carlo validation on small n}

    Empirical mean attempts over [trials] simulated attackers; compare
    with the closed forms above.  [n] must be small enough that [n!] fits
    an [int]. *)

val monte_carlo_static : n:int -> trials:int -> seed:int -> float

val monte_carlo_rerandomizing : n:int -> trials:int -> seed:int -> float

(** [factorial_int n] for small [n] (@raise Invalid_argument above 20). *)
val factorial_int : int -> int
