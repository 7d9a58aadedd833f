(** Whether an image can be randomized at all (§V-B3, §VI-B1).

    The control-flow rewriting itself is {!Stream_patch.run}, the one
    relocation implementation.  It refuses cross-block relative
    transfers — the image was linked with relaxation enabled, exactly why
    the MAVR toolchain requires [--no-relax] — and targets or function
    pointers it cannot remap. *)

exception Unpatchable of string
(** The same exception as {!Stream_patch.Unpatchable}. *)

(** [check_randomizable image] streams [image] through the identity
    layout; [Error reason] when the image cannot be safely randomized. *)
val check_randomizable : Mavr_obj.Image.t -> (unit, string) result
