(** Firmware image lint: structural invariants every image the generator
    and the randomizer emit must satisfy.

    Each violation is a typed finding carrying the offending address, the
    target (when the invariant is about a transfer), and a short
    disassembly context.  The invariants:

    - {e transfer targets}: every direct [call]/[jmp]/[rcall]/[rjmp]/
      conditional-branch target of a reachable instruction lands on a
      decodable instruction boundary inside an executable region (and a
      skip instruction's skip target stays in bounds);
    - {e vector table}: each hardware vector slot (4-byte granularity,
      the way the interrupt unit indexes it) holds a [jmp] to a function
      start;
    - {e function pointers}: each preprocessed vtable/jump-table entry
      stays inside the text section and points at a function start;
    - {e stack-pointer writes}: every [out SPL/SPH] must write a value
      the {!Stackdepth} data-flow analysis proves SP-relative (the
      frame idiom and the Fig. 4 teardown) or constant (startup
      initialization) on every path reaching it — a data-flow fact, not
      the old ±3/±8-instruction window pattern match — and no [sts] may
      target the SP's data-space aliases ([io_base + SPL/SPH], the
      memory-mapped route to the same stack-pivot primitive).  Anything
      else is a stray SP write. *)

type kind =
  | Target_out_of_bounds
  | Target_undecodable
  | Target_mid_instruction  (** lands inside another reachable instruction *)
  | Vector_not_jmp
  | Vector_target_not_function
  | Funptr_out_of_bounds
  | Funptr_not_function
  | Stray_sp_write

type finding = {
  kind : kind;
  addr : int;  (** offending instruction (or table-entry flash offset) *)
  target : int option;
  detail : string;
  context : string;  (** short disassembly listing around [addr] *)
}

val kind_name : kind -> string

(** [run ?cfg image] checks every invariant; [cfg] avoids re-recovering
    a CFG the caller already has.  An empty list means the image is
    lint-clean. *)
val run : ?cfg:Cfg.t -> Mavr_obj.Image.t -> finding list

val to_json : finding list -> Mavr_telemetry.Json.t
val pp_finding : Format.formatter -> finding -> unit
