(** The complete MAVR randomization pipeline (§V-B).

    [randomize] = draw a permutation ({!Shuffle}) + rewrite control flow
    ({!Stream_patch}'s plan at the master's flash page size, laid out in
    memory).
    The result is a firmware image with identical behaviour and a
    different code layout; an attacker holding the original binary no
    longer knows any gadget address. *)

(** [plan image] is {!Stream_patch.plan} at the master's flash page
    size: decode [image] once, then {!Stream_patch.layout} it as often as
    needed — each layout is the image {!randomize} makes for the same
    permutation.
    @raise Stream_patch.Unpatchable as {!randomize}. *)
val plan : Mavr_obj.Image.t -> Stream_patch.plan

(** [randomize ~seed image] produces the randomized image.
    @raise Stream_patch.Unpatchable when the image was not built with the MAVR
    toolchain flags (cross-block relative transfers present). *)
val randomize : seed:int -> Mavr_obj.Image.t -> Mavr_obj.Image.t

(** [with_order image order] applies a specific permutation — used by the
    brute-force experiments where the attacker enumerates layouts. *)
val with_order : Mavr_obj.Image.t -> int array -> Mavr_obj.Image.t

(** Structural sanity of a randomization: same size, same text bounds,
    same multiset of (name, size) symbols, permuted addresses. *)
val verify_structure :
  original:Mavr_obj.Image.t -> randomized:Mavr_obj.Image.t -> (unit, string) result

(** [layout_distance a b] is the number of functions whose address differs
    between the two images (0 = same layout) — a quick diversity metric. *)
val layout_distance : Mavr_obj.Image.t -> Mavr_obj.Image.t -> int
