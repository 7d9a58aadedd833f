(** Randomization translation-validator.

    Proves that a randomized image is the {e same program} as its seed
    modulo relocation, instead of trusting the randomizer's rewriting
    code.  The address translation is forced by construction — the
    shuffle permutes whole function blocks, so inside text it is
    name-match plus intra-block offset, and the identity elsewhere — and
    the validator then checks, with no reference to the randomizer's
    internals:

    - {e structure}: image size, executable-region bounds, the function
      multiset on (name, size, kind), and the funptr slot locations are
      unchanged;
    - {e instruction streams}: every function block and the low region
      decode to streams with identical boundaries where each randomized
      instruction equals the original with transfer targets rewritten
      through the translation (absolute [call]/[jmp] word targets,
      relative [rjmp]/[rcall]/branch offsets) and everything else —
      opcode, registers, immediates — bit-identical;
    - {e data}: every non-executable byte outside a funptr slot is
      untouched, and each funptr slot's stored word address is exactly
      the translation of the original's;
    - {e CFG isomorphism}: the independently recovered control-flow
      graphs have translation-isomorphic reachable-node sets,
      basic-block leader sets, and per-node successor edge sets.

    A single mis-relocated call target, a byte of corrupted data, or a
    dropped edge each produce a typed {!mismatch}. *)

type stats = {
  functions : int;
  insns : int;  (** instructions compared across all executable ranges *)
  edges : int;  (** CFG edges checked isomorphic *)
  funptrs : int;
  vectors : int;
}

type mismatch = { at : int; what : string }
(** [at] is a byte address in whichever image the check was anchored to. *)

val validate :
  original:Mavr_obj.Image.t -> randomized:Mavr_obj.Image.t -> (stats, mismatch list) result

val to_json : (stats, mismatch list) result -> Mavr_telemetry.Json.t
val pp_mismatch : Format.formatter -> mismatch -> unit
