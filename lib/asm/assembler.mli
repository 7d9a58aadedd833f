(** Two-pass AVR assembler with symbols and optional linker relaxation.

    This plays the role of the GCC/Binutils link step in the paper's
    toolchain (§VI-B1).  Programs are lists of {e functions} — the unit
    MAVR shuffles — plus an interrupt-vector stub and a data-initializer
    blob placed after the text section in flash.

    Relaxation ([~relax:true], Binutils' default) replaces long
    [call]/[jmp] with [rcall]/[rjmp] when the target is within ±4 KB; the
    MAVR toolchain assembles with [~relax:false] ([--no-relax]) so that
    every inter-function transfer uses an absolute, patchable encoding. *)

type part =
  | Lo8  (** low byte of a label value *)
  | Hi8  (** high byte *)
  | Lo8_word  (** low byte of a label's {e word} address (value / 2) *)
  | Hi8_word

(** An assembly item.  Label values are flash {e byte} addresses for code
    labels, or arbitrary integers for [defines]. *)
type item =
  | Label of string
  | Insn of Mavr_avr.Isa.t
  | Call_sym of string  (** long call, relaxable to [rcall] *)
  | Jmp_sym of string
  | Call_sym_off of string * int  (** call into symbol + word offset (trampoline) *)
  | Jmp_sym_off of string * int
  | Rcall_sym of string  (** forced short call (must be in range) *)
  | Rjmp_sym of string
  | Br of [ `Sbit of int | `Cbit of int ] * string
      (** conditional branch ([brbs]/[brbc]) to a nearby label *)
  | Ldi_sym of Mavr_avr.Isa.reg * part * string
  | Word_sym of string
      (** 16-bit little-endian {e word address} of a function — a function
          pointer as stored in data/vtables; its flash offset is recorded
          for the MAVR preprocessing phase *)
  | Raw_words of int list
  | Raw_bytes of string

type func = { name : string; items : item list }

type program = {
  vectors : item list;  (** placed at address 0 (reset/interrupt stubs) *)
  funcs : func list;  (** the .text section, in order *)
  data : item list;  (** .data/.rodata initializer blob, placed after text *)
  defines : (string * int) list;  (** extra label definitions *)
}

type symbol = { name : string; addr : int; size : int }
(** A function symbol: [addr]/[size] in bytes within the image. *)

type output = {
  code : string;  (** the flash image *)
  symbols : symbol list;  (** one per function, ascending address *)
  funptr_locs : int list;  (** flash offsets of [Word_sym] emissions *)
  labels : (string * int) list;  (** every label's resolved value *)
  text_start : int;
  text_end : int;  (** exclusive; functions live in [text_start, text_end) *)
  data_load : int;  (** flash offset of the data blob *)
}

exception Error of string

(** [assemble ~relax program] lays out, resolves and encodes [program].

    Auto-defined labels: ["__text_start"], ["__text_end"],
    ["__data_load_start"], ["__data_load_end"], and each function's name.
    @raise Error on undefined/duplicate labels or out-of-range branches. *)
val assemble : relax:bool -> program -> output

(** [label_value out name]
    @raise Not_found when absent. *)
val label_value : output -> string -> int

(** {2 Test hooks}

    Used only by the tests, to find where the assembler placed a function. *)

(** [find_symbol out name] looks up a function symbol.
    @raise Not_found when absent. *)
val find_symbol : output -> string -> symbol
