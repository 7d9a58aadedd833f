(** MAVLink v1 message catalog and typed payload codecs.

    A practical subset of the common dialect: the telemetry the autopilot
    streams to the ground station (heartbeat, attitude, raw IMU, status
    text) and the uplink messages an attacker-controlled ground station
    abuses (parameter writes, arbitrary commands) — the attack vector of
    Fig. 3. *)

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

(** {2 Typed payloads} *)

module Heartbeat : sig
  type t = { typ : int; autopilot : int; base_mode : int; custom_mode : int; system_status : int }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Attitude : sig
  type t = {
    time_boot_ms : int;
    roll : float;  (** radians *)
    pitch : float;
    yaw : float;
    rollspeed : float;
    pitchspeed : float;
    yawspeed : float;
  }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Raw_imu : sig
  type t = {
    time_usec : int;
    xacc : int; yacc : int; zacc : int;
    xgyro : int; ygyro : int; zgyro : int;
    xmag : int; ymag : int; zmag : int;
  }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Statustext : sig
  type t = { severity : int; text : string }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Command_long : sig
  type t = {
    target_system : int;
    target_component : int;
    command : int;
    confirmation : int;
    params : float array;  (** exactly 7 parameters *)
  }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Gps_raw_int : sig
  type t = {
    time_usec : int;
    fix_type : int;
    lat : int;  (** degrees * 1e7 *)
    lon : int;
    alt : int;  (** millimetres *)
    eph : int;
    epv : int;
    vel : int;  (** cm/s *)
    cog : int;  (** centidegrees *)
    satellites_visible : int;
  }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Sys_status : sig
  type t = {
    onboard_control_sensors_present : int;
    onboard_control_sensors_enabled : int;
    onboard_control_sensors_health : int;
    load : int;  (** 0..1000, in 0.1% — the paper's "96% CPU usage" *)
    voltage_battery : int;  (** mV *)
    current_battery : int;  (** 10 mA units, -1 unknown *)
    battery_remaining : int;  (** percent, -1 unknown *)
    drop_rate_comm : int;
    errors_comm : int;
    errors_count : int * int * int * int;
  }

  val encode : t -> string
  val decode : string -> (t, string) result
end

module Param_set : sig
  type t = { target_system : int; target_component : int; param_id : string; param_value : float; param_type : int }

  val encode : t -> string
  val decode : string -> (t, string) result
end
