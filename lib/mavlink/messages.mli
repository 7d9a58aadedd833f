(** MAVLink v1 message catalog and the one payload codec the ground
    station reads.

    The catalog is a practical subset of the common dialect: the
    telemetry the autopilot streams to the ground station (heartbeat,
    attitude, raw IMU, status text) and the uplink messages an
    attacker-controlled ground station abuses (parameter writes,
    arbitrary commands) — the attack vector of Fig. 3.  The firmware
    build burns every entry's CRC_EXTRA into the image. *)

type def = {
  msgid : int;
  name : string;
  crc_extra : int;  (** the CRC_EXTRA seed byte for this message *)
  payload_len : int;  (** fixed v1 payload length *)
}

val heartbeat : def
val raw_imu : def

(** All known definitions, ascending [msgid]. *)
val all : def list

val find : int -> def option
val crc_extra_of : int -> int  (** 0 for unknown message ids *)

(** {2 Typed payloads}

    The ground station decodes RAW_IMU; it checks HEARTBEAT by [msgid]
    alone.  The attack payloads are raw frames ([Rop.frame]), so no
    other message needs a codec. *)

module Raw_imu : sig
  type t = {
    time_usec : int;
    xacc : int; yacc : int; zacc : int;
    xgyro : int; ygyro : int; zgyro : int;
    xmag : int; ymag : int; zmag : int;
  }

  val decode : string -> (t, string) result

  (** Test hook: crafts ground-station input. *)
  val encode : t -> string
end

(** {2 Test hooks}

    Used only by the tests, to craft ground-station input. *)

module Heartbeat : sig
  type t = { typ : int; autopilot : int; base_mode : int; custom_mode : int; system_status : int }

  val encode : t -> string
end
