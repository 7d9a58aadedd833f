(** Arbitrary-precision natural numbers.

    A minimal stand-in for [zarith] (not available in this environment),
    sufficient for the exact brute-force-effort arithmetic of the MAVR
    security analysis: factorials of four-digit arguments, additions,
    halving and decimal printing.  Numbers are immutable. *)

type t

val one : t

(** [of_int n] converts a non-negative [n].
    @raise Invalid_argument on negative input. *)
val of_int : int -> t

(** [to_int n] converts back when the value fits in an OCaml [int].
    @raise Failure when the value is too large. *)
val to_int : t -> int

val add : t -> t -> t

(** [sub a b] is [a - b].
    @raise Invalid_argument when [b > a] (naturals only). *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod_int a k] is [(a / k, a mod k)] for [0 < k <= 2^30]. *)
val divmod_int : t -> int -> t * int

val compare : t -> t -> int
val equal : t -> t -> bool

(** [factorial n] is [n!] computed exactly. *)
val factorial : int -> t

(** [log2 n] is an estimate of the base-2 logarithm of [n], accurate to
    well under one bit for the magnitudes used here.  [log2 zero] is
    [neg_infinity]. *)
val log2 : t -> float

(** [log2_factorial n] is [log2 (n!)] computed in log space (no bignum),
    exact enough to reproduce the paper's entropy figures. *)
val log2_factorial : int -> float

(** Number of decimal digits in the canonical representation. *)
val digits : t -> int

val to_string : t -> string

(** [of_string s] parses a decimal literal (no sign, no separators).
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val pp : Format.formatter -> t -> unit

(** {2 Test hooks}

    Used only by the tests, to state exact bounds on the security figures. *)

(** [mul_int a k] multiplies by a small non-negative integer. *)
val mul_int : t -> int -> t
