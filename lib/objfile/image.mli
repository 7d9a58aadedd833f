(** Firmware images and their symbol information.

    An image is the flat flash contents of an application plus the metadata
    MAVR's preprocessing phase extracts from the ELF file (§VI-B2): the
    function symbols of the .text section (the blocks the randomizer
    shuffles) and the flash offsets of function pointers found in the data
    section (C++ vtables, call-routing arrays). *)

type kind = Func | Object

type symbol = { name : string; addr : int; size : int; kind : kind }
(** [addr]/[size] are in bytes within the image. *)

type t = {
  code : string;  (** full flash image *)
  exec_low_end : int;  (** end of the interrupt-vector code at address 0;
                           bytes in [[exec_low_end, text_start)) are
                           constant data, not instructions *)
  text_start : int;  (** first byte of the shuffleable function region *)
  text_end : int;  (** exclusive *)
  symbols : symbol list;  (** functions, ascending [addr], back to back *)
  symbol_array : symbol array;
      (** [symbols] as an array, for the O(log n) lookups below; every
          constructor of an image builds it with its list *)
  funptr_locs : int list;  (** flash offsets holding 16-bit word addresses *)
}

(** [of_assembly ?exec_low_end out] packages an assembler output.
    [exec_low_end] defaults to [out.text_start] (no early rodata).
    @raise Invalid_argument when symbols are not contiguous in
    [[text_start, text_end)] (the randomizer requires exact block
    coverage). *)
val of_assembly : ?exec_low_end:int -> Mavr_asm.Assembler.output -> t

(** [validate t] re-checks the structural invariants; returns a
    human-readable error otherwise. *)
val validate : t -> (unit, string) result

val size : t -> int
val function_count : t -> int

(** [find t name] @raise Not_found when no such function. *)
val find : t -> string -> symbol

(** [function_containing t addr] is the function whose byte span contains
    [addr] (binary search — the lookup of §VI-B3 used for trampoline
    targets). *)
val function_containing : t -> int -> symbol option

(** [function_index t addr] is the index in [symbol_array] of
    {!function_containing}'s answer. *)
val function_index : t -> int -> int option

(** [is_function_start t addr] — whether [addr] is exactly a function
    entry (the property the lint checks of vector-table and vtable
    targets rely on). *)
val is_function_start : t -> int -> bool

val pp_summary : Format.formatter -> t -> unit

(** {2 Test hooks}

    Used only by the tests, to compare function blocks and binary
    generations. *)

(** [code_of t sym] is the machine code of one function block. *)
val code_of : t -> symbol -> string

(** FNV-1a hash of the code bytes — a cheap fingerprint used in tests and
    by the master processor to distinguish binary generations. *)
val fingerprint : t -> int
