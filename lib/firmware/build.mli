(** Whole-firmware builds.

    Composes the runtime kernel, the generated filler functions, the
    interrupt vectors, the early-flash rodata (vtable initializer and
    CRC_EXTRA table) and a rodata pad calibrated so the {e stock}
    toolchain build of each profile matches the paper's Table III code
    size.  The same pad is reused for the MAVR-toolchain build of the same
    profile, so size deltas reflect the toolchain flags alone. *)

type t = {
  image : Mavr_obj.Image.t;
  asm : Mavr_asm.Assembler.output;
  profile : Profile.t;
  toolchain : Profile.toolchain;
  pad_bytes : int;
}

(** [build profile toolchain] assembles a firmware, its pad computed so
    that the {e stock} build of [profile] hits [profile.target_size] (a
    stock dry run is performed if needed). *)
val build : Profile.t -> Profile.toolchain -> t

(** [build_pair profile] is [(stock, mavr)] with a shared pad. *)
val build_pair : Profile.t -> t * t

(** [label t name] resolves an assembly label of the build — the
    attacker's view of the {e unprotected} binary (§IV-A).
    @raise Not_found when undefined. *)
val label : t -> string -> int

(** The paper's "number of functions" metric (Table I). *)
val function_count : t -> int

(** Code size in bytes (Table III). *)
val code_size : t -> int
