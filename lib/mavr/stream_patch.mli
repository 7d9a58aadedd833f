(** Streaming randomization — the master processor's actual execution
    model (§VI-B3).

    The ATmega1284P cannot hold a 256 KB application in its 16 KB SRAM.
    The paper's randomizer therefore streams: "since the external flash
    memory permits random access, each function can be processed in a
    streaming fashion, eliminating the need to fit the entire application
    into volatile memory at runtime".

    This module reproduces that discipline.  Input is a random-access
    byte oracle (the external flash chip) plus the preprocessed metadata;
    output is emitted page by page to the application processor's
    bootloader.  The working set is only:

    - the function table (old starts + assigned new starts),
    - the function-pointer location list,
    - one function block at a time,
    - one flash page buffer,

    and its peak is measured and returned, so tests can assert the whole
    pipeline fits the master's SRAM for every application profile.

    This is the only relocation implementation: {!Randomize} and
    {!Patch.check_randomizable} run it over in-memory images through
    {!apply}.  When function blocks move,

    - [call]/[jmp] targets inside the text section are remapped; targets
      that do not land exactly on a symbol (switch-table trampolines,
      shared-epilogue entries) keep their offset inside the containing
      function;
    - relative transfers ([rcall]/[rjmp]/conditional branches) are legal
      only within their own block (position-independent under the move);
    - stored function pointers (vtables, call-routing arrays) at the
      preprocessed [funptr_locs] are remapped as 16-bit word addresses,
      which must stay within [icall]'s reach. *)

exception Unpatchable of string

type stats = {
  peak_working_set : int;  (** bytes of live buffers at the worst moment *)
  bytes_read : int;  (** total bytes pulled from the external flash *)
  pages_emitted : int;  (** flash pages programmed on the application CPU *)
}

(** [run ~code_size ~read ~meta ~order ~page_bytes ~emit_page] streams the
    randomized binary.

    [read ~pos ~len] serves bytes of the {e original} image (the external
    chip's random-access interface).  [order] is the permutation: the
    function placed k-th in the new layout is the [order.(k)]-th of
    [meta.func_addrs].  Pages are emitted in ascending address order,
    the last one padded with 0xFF.

    @raise Unpatchable on cross-block relative transfers (images built
    without [--no-relax]), targets inside the text section but in no
    function, and function pointers that remap beyond 16-bit word reach.
    @raise Invalid_argument if [order] is not a permutation. *)
val run :
  code_size:int ->
  read:(pos:int -> len:int -> string) ->
  meta:Mavr_obj.Symtab.meta ->
  order:int array ->
  page_bytes:int ->
  emit_page:(page_addr:int -> string -> unit) ->
  stats

(** [apply image shuffle ~page_bytes] runs {!run} over an in-memory
    image (standing in for the external chip) in the layout of [shuffle]
    and reassembles the emitted pages.  Returns the randomized image
    (with symbols recomputed; [funptr_locs] keep their flash offsets) and
    the stats. *)
val apply :
  Mavr_obj.Image.t -> Shuffle.t -> page_bytes:int -> Mavr_obj.Image.t * stats

(** [randomize_image ~seed image ~page_bytes] is {!apply} with the
    permutation drawn from [seed] — the same image as
    {!Randomize.randomize} with that seed. *)
val randomize_image :
  seed:int -> Mavr_obj.Image.t -> page_bytes:int -> Mavr_obj.Image.t * stats

(** [randomize_image_rng ~rng image ~page_bytes] — like
    {!randomize_image} but drawing the permutation from a live generator
    (the master processor's entropy state across re-randomizations). *)
val randomize_image_rng :
  rng:Mavr_prng.Splitmix.t -> Mavr_obj.Image.t -> page_bytes:int -> Mavr_obj.Image.t * stats
