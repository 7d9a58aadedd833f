(** Static control-flow recovery over AVR flash images.

    The paper's §IV and §VII arguments are static-binary facts (gadget
    counts, gadget addresses moving under randomization); this module
    gives the repo a static view to establish them without executing the
    firmware, the way the related ArduPilot security analyses do.

    Recovery is recursive descent seeded from everything a static
    analyzer can trust about an image:

    - the interrupt vector table (hardware enters each 4-byte slot);
    - the symbol table (every function entry — MAVR's preprocessing
      phase ships it to the randomizer, so the analyzer has it too);
    - stored function pointers ([funptr_locs]: C++ vtables and
      call-routing/switch tables), the only static source of indirect
      [icall]/[ijmp] targets.

    Descent follows fallthrough, relative and absolute transfers, both
    arms of conditional branches, and both outcomes of skip instructions.
    Bytes of the executable regions that descent never reaches are
    decoded by a linear-sweep fallback so that every executable byte has
    {e some} instruction attribution (the attacker's total view; also how
    unreachable-code findings keep an address -> instruction context). *)

(** Why an address became a descent seed. *)
type provenance =
  | Vector of int  (** interrupt vector number *)
  | Symbol of string  (** function entry from the symbol table *)
  | Funptr of int  (** flash offset of the stored function pointer *)

type t

(** [recover image] runs recursive descent plus the linear-sweep
    fallback. *)
val recover : Mavr_obj.Image.t -> t

val image : t -> Mavr_obj.Image.t

(** The descent seeds actually inside executable regions, ascending. *)
val entries : t -> (int * provenance) list

(** [insn_at t addr] — the instruction recovered at [addr] by descent,
    or [None] when [addr] is not a descent-reached boundary. *)
val insn_at : t -> int -> (Mavr_avr.Isa.t * int) option

val is_reachable : t -> int -> bool

(** Every descent-reached instruction boundary, ascending — the node set
    the {!Dataflow} solver iterates. *)
val reachable_addrs : t -> int list

(** Reachable basic-block leader {e byte} addresses, sorted: recovery
    entries plus every branch/call target. *)
val block_starts : t -> int list

(** [iter_reachable t f] calls [f addr insn size] in ascending address
    order over every descent-reached instruction. *)
val iter_reachable : t -> (int -> Mavr_avr.Isa.t -> int -> unit) -> unit

(** Static successors of the instruction at [addr] (byte addresses;
    empty for [ret]/[reti]/[ijmp] and undecodable words). *)
val successors : code:string -> int -> Mavr_avr.Isa.t -> int -> int list

(** The executable byte regions of an image: the vector/early code at 0
    and the shuffleable text section. *)
val exec_regions : Mavr_obj.Image.t -> (int * int) list

val in_exec : Mavr_obj.Image.t -> int -> bool

(** [funptr_target image loc] reads the 16-bit little-endian {e word}
    address stored at flash offset [loc] and returns it as a byte
    address ([None] when the slot is truncated). *)
val funptr_target : Mavr_obj.Image.t -> int -> int option

(** Every stored function pointer that targets an executable region,
    sorted and deduplicated: the conservative target set of an
    [icall]/[ijmp]. *)
val icall_targets : Mavr_obj.Image.t -> int list

type stats = {
  entries : int;  (** descent seeds in executable regions *)
  reachable_insns : int;
  reachable_bytes : int;
  exec_bytes : int;
  coverage_pct : float;  (** reachable_bytes / exec_bytes *)
  blocks : int;  (** basic blocks over the reachable instructions *)
  sweep_insns : int;  (** linear-sweep fallback instructions *)
  sweep_bytes : int;
}

val stats : t -> stats
val stats_to_json : stats -> Mavr_telemetry.Json.t
val pp_stats : Format.formatter -> stats -> unit
