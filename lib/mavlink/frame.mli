(** MAVLink v1 frames (Fig. 2 of the paper).

    Wire layout: start magic 0xFE, payload length, packet sequence number,
    sender system id, sender component id, message id, payload (up to 255
    bytes), CRC-16/MCRF4XX low byte, high byte.  The checksum covers every
    byte after the magic plus the message's CRC_EXTRA byte. *)

val magic : int

type t = { seq : int; sysid : int; compid : int; msgid : int; payload : string }

(** Minimum on-wire frame size (the paper's "minimum packet length of 17
    bytes" counts the 9-byte minimum payload; an empty payload gives 8). *)
val header_len : int

val crc_len : int

(** [encode t] renders the frame, its checksum taken over the catalog's
    CRC_EXTRA for [t.msgid] ({!Messages.crc_extra_of}).
    @raise Invalid_argument when the payload exceeds 255 bytes or ids are
    out of byte range. *)
val encode : t -> string

type error =
  | Bad_magic
  | Bad_crc of { got : int; expected : int }
  | Truncated

(** [decode ?pos s] parses one complete frame starting at offset [pos]
    (default 0) of [s], checking its CRC against the catalog's CRC_EXTRA
    for its message id; returns the frame and the number of bytes
    consumed from [pos].  Taking an offset lets streaming callers scan a
    buffer without copying a fresh suffix per attempt.
    @raise Invalid_argument when [pos] is outside [s]. *)
val decode : ?pos:int -> string -> (t * int, error) result

(** {2 Test hooks}

    Used only by the tests: [encode_raw] crafts frames that lie about their
    length, and the others account for and report what the decoder did. *)

(** [encode_raw ~declared_len t] renders a frame whose {e length field} is
    [declared_len] regardless of the actual payload size — the malformed
    packet a malicious ground station sends once the receiver's length
    check is disabled (§IV-B).  The CRC is computed over the bytes
    actually sent so the firmware accepts it. *)
val encode_raw : declared_len:int -> t -> string

val pp_error : Format.formatter -> error -> unit

val wire_length : t -> int
