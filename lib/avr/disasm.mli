(** Linear-sweep disassembler over flash images.

    This is the view an attacker has of the {e unprotected} binary (threat
    model, §IV-A): a total decode of program memory, used both by the
    gadget finder and for human-readable listings like Figs. 4 and 5. *)

type line = {
  byte_addr : int;  (** address of the instruction, in bytes *)
  insn : Isa.t;
  size_bytes : int;
}

(** [sweep code ~pos ~len] decodes [len] bytes starting at byte offset
    [pos] (both default to the whole string). *)
val sweep : ?pos:int -> ?len:int -> string -> line list

(** [decode_words code ~pos ~len] decodes at {e every} word (2-byte)
    offset of the region, not just linear-sweep boundaries: element [i] is
    the decode at byte [pos + 2*i] with its size in bytes.  Consecutive
    elements therefore describe {e overlapping} decodings wherever a
    two-word instruction occurs — the complete attacker's view used by the
    mid-instruction gadget scan, and the static cousin of the CPU's
    per-word predecode cache. *)
val decode_words : ?pos:int -> ?len:int -> string -> (Isa.t * int) array

(** [listing code ~pos ~len] pretty-prints a region, one instruction per
    line, in the objdump-like format of the paper's gadget figures. *)
val listing : ?pos:int -> ?len:int -> string -> string
