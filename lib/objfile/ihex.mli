(** Intel HEX encoding and decoding.

    The interchange format of the AVR toolchain: compiled applications are
    converted to HEX before flashing, and the MAVR preprocessing phase
    prepends its symbol table to this file (§VI-B2).  Supports data
    records (00), end-of-file (01) and extended linear address (04)
    records, which are required for images above 64 KB such as ArduPlane
    and for the out-of-range segment MAVR uses for its symbol blob. *)

exception Parse_error of { line : int; message : string }

(** [encode segments] renders [(base_address, contents)] segments as HEX
    text, 16 data bytes per record, emitting type-04 records whenever the
    64 KB upper address word changes. *)
val encode : (int * string) list -> string

(** [decode text] parses HEX back into maximal contiguous segments,
    ascending by address.
    @raise Parse_error on malformed input (bad checksum, bad hex digits,
    missing EOF record...). *)
val decode : string -> (int * string) list

(** [flatten ?limit segments] lays segments into a single string
    starting at address 0, filling gaps with [0xFF] (erased-flash state),
    and dropping segments beyond [limit] when given. *)
val flatten : ?limit:int -> (int * string) list -> string
