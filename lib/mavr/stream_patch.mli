(** Streaming randomization — the master processor's relocation
    (§V-B3, §VI-B3), split into a per-image {e plan} and a per-layout
    {e layout} step.

    The ATmega1284P cannot hold a 256 KB application in its 16 KB SRAM.
    The paper's randomizer therefore streams: "since the external flash
    memory permits random access, each function can be processed in a
    streaming fashion, eliminating the need to fit the entire application
    into volatile memory at runtime".  Its working set is the function
    table (old and new starts), the function-pointer location list, one
    function block at a time and one flash page buffer.

    Every session streams the same seed image, and only a few words of it
    depend on the layout, so the work is split:

    - {!plan} decodes the image once.  It records every [call]/[jmp]
      whose target lies in the text section and every stored function
      pointer in the two data regions, each as (function, offset), and
      refuses what no layout could relocate: a relative transfer
      ([rcall]/[rjmp]/conditional branch) leaving its block (the image
      was linked without [--no-relax]), a target inside the text section
      but in no function, and a pointer straddling a page-sized chunk.
    - {!layout} blits each function block to its new start and rewrites
      the recorded sites.  Targets keep their offset inside the moved
      function (switch-table trampolines, shared-epilogue entries).  A
      pointer must stay within [icall]'s 16-bit word reach, the one
      refusal that depends on the layout.

    The §VI-B3 ledger ({!stats}) is the same for every layout: each byte
    is read and emitted once, whatever the order, and the largest
    transient buffer is the largest function block or data chunk.  So
    {!plan} computes it once ({!ledger}).  The byte-streaming pipeline the
    master runs, page by page, is kept as the test oracle in
    [test/stream_oracle.ml]; the tests hold the plan's bytes, symbols,
    ledger and refusals to it. *)

exception Unpatchable of string

type stats = {
  peak_working_set : int;  (** bytes of live buffers at the worst moment *)
  bytes_read : int;  (** total bytes pulled from the external flash *)
  pages_emitted : int;  (** flash pages programmed on the application CPU *)
}

(** An image's relocation plan.  Immutable; domains may share one. *)
type plan

(** [plan image ~page_bytes] decodes [image] once.
    @raise Unpatchable on cross-block relative transfers, targets inside
    the text section but in no function, and function pointers that
    straddle a [page_bytes] chunk. *)
val plan : Mavr_obj.Image.t -> page_bytes:int -> plan

(** The ledger of one streaming session of the plan's image, whatever
    its layout. *)
val ledger : plan -> stats

(** [layout plan shuffle] is the plan's image in the layout of [shuffle]
    (a {!Shuffle.t} of that image), with symbols recomputed;
    [funptr_locs] keep their flash offsets.
    @raise Unpatchable when a function pointer remaps beyond 16-bit word
    reach.
    @raise Invalid_argument when [shuffle] has the wrong function count. *)
val layout : plan -> Shuffle.t -> Mavr_obj.Image.t

(** [apply image shuffle ~page_bytes] is {!plan} then {!layout}, with the
    ledger. *)
val apply :
  Mavr_obj.Image.t -> Shuffle.t -> page_bytes:int -> Mavr_obj.Image.t * stats

(** [randomize_image ~seed image ~page_bytes] is {!apply} with the
    permutation drawn from [seed] — the same image as
    {!Randomize.randomize} with that seed. *)
val randomize_image :
  seed:int -> Mavr_obj.Image.t -> page_bytes:int -> Mavr_obj.Image.t * stats

(** [check_randomizable image] — whether [image] can be randomized at
    all (§V-B3, §VI-B1): its plan builds at the ATmega2560's page size,
    and its identity layout keeps every pointer within [icall]'s reach.
    [Error reason] otherwise. *)
val check_randomizable : Mavr_obj.Image.t -> (unit, string) result
