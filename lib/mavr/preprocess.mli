(** Host-side preprocessing analyses (§VI-B2).

    The assembler hands us exact function-pointer locations, but the
    paper's preprocessing works on compiled binaries: it {e scans} the
    data sections for words that look like function pointers ("references
    in the data section are scanned for function pointers ... C++ class
    vtables and global arrays of functions").  This module implements that
    conservative scan independently, so the two sources can be
    cross-checked — and so images reconstructed without assembler
    metadata could still be preprocessed. *)

(** {2 Test hooks}

    Used only by the tests, to cross-check the scan against the
    assembler's recorded pointer locations. *)

(** [verify image] checks the assembler-recorded [funptr_locs] against the
    scan: [Ok ()] when every recorded pointer is discovered by the scan.
    The inverse direction (scan ⊆ recorded) does not hold in general —
    that asymmetry is exactly why the paper prefers symbol information
    from the ELF file over scanning when it is available. *)
val verify : Mavr_obj.Image.t -> (unit, string) result

(** [false_positive_count image] — scanned-but-not-recorded locations: the
    cost of the scan-only approach (each one would be needlessly patched,
    corrupting constants that merely look like code pointers). *)
val false_positive_count : Mavr_obj.Image.t -> int
