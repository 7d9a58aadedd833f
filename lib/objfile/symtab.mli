(** The MAVR preprocessed-HEX format (§VI-B2).

    The standard flash utility strips ELF symbol information before
    uploading, so MAVR's preprocessing phase re-encodes the minimum the
    on-board randomizer needs — the ascending list of function start
    addresses and the flash locations of function pointers — and prepends
    it to the application's HEX file.  We place the blob in a segment at
    {!meta_base}, far above any real AVR flash address, so standard tools
    still understand the file. *)

type meta = {
  exec_low_end : int;
  text_start : int;
  text_end : int;
  func_addrs : int list;  (** ascending function start addresses *)
  funptr_locs : int list;  (** flash offsets of stored function pointers *)
}

(** [to_hex image] is the preprocessed HEX file: symbol blob at
    {!meta_base} followed by the program at 0. *)
val to_hex : Image.t -> string

(** [of_hex text] parses a preprocessed HEX back into the program image
    and its metadata.  Function symbols are reconstructed from the address
    list (names are synthesized; sizes from consecutive starts).
    @raise Invalid_argument ["Symtab.of_hex: ..."], naming the field, when
    the metadata segment is missing or disagrees with the code: text
    bounds outside it, [exec_low_end] above [text_start], [func_addrs]
    not tiling [[text_start, text_end)] ({!Image.validate}), or a
    function pointer past its end. *)
val of_hex : string -> Image.t

(** {2 Test hooks}

    Used only by the tests, to round-trip the metadata blob and to craft
    HEX files with bad metadata. *)

(** Address of the metadata segment inside the combined HEX file. *)
val meta_base : int

val meta_of_image : Image.t -> meta

(** [to_blob meta] serializes (little-endian, magic ["MAVR1"]). *)
val to_blob : meta -> string

(** [of_blob s]
    @raise Invalid_argument on bad magic or truncated input. *)
val of_blob : string -> meta
