(** Function-block permutations (§V-B2).

    The MAVR master processor draws a uniformly random permutation of the
    application's function symbols and computes the new block layout; the
    relocator ({!Stream_patch}) then rewrites the control-flow targets.
    With [n] symbols the defense offers [log2 n!] bits of layout entropy
    (§VIII-B). *)

type t = {
  order : int array;
      (** [order.(k)] is the index (into the image's ascending symbol
          list) of the function placed k-th in the new layout *)
  new_addr : int array;  (** new byte address of symbol [i] *)
}

(** [draw ~rng image] : a uniform permutation via Fisher–Yates. *)
val draw : rng:Mavr_prng.Splitmix.t -> Mavr_obj.Image.t -> t

(** [identity image] : the layout-preserving permutation (for tests). *)
val identity : Mavr_obj.Image.t -> t

(** [of_order image order] uses a caller-supplied order (e.g. a brute-force
    attacker enumerating permutations).
    @raise Invalid_argument if [order] is not a permutation of
    [0..n-1]. *)
val of_order : Mavr_obj.Image.t -> int array -> t


(** [map_addr image t old_addr] maps a byte address inside some function
    to its new address (same offset within the moved block).  Addresses
    outside the text section map to themselves. *)
val map_addr : Mavr_obj.Image.t -> t -> int -> int
