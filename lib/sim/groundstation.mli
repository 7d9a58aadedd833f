(** Ground-station model with anomaly detection.

    The stealthy attack's success criterion (§I, §IV-D) is that "the
    ground station or other monitoring entities will not be able to
    detect that an attack is undergoing".  This module is that monitoring
    entity: it consumes the telemetry byte stream and raises an alarm on
    any of the observable signatures of a {e non}-stealthy attack —
    heartbeat loss, telemetry silence, CRC corruption, resynchronization
    garbage, or sequence-number resets (the signature of an unexpected
    reboot). *)

type alarm =
  | Heartbeat_lost of { silent_ms : float }
  | Telemetry_silence of { silent_ms : float }
  | Link_corruption of { crc_errors : int; bytes_dropped : int }
  | Unexpected_reboot of { seq_jump : int }

val pp_alarm : Format.formatter -> alarm -> unit

(** Stable short key for an alarm kind (["heartbeat_lost"],
    ["telemetry_silence"], ["link_corruption"], ["unexpected_reboot"]) —
    used for telemetry event names and counters. *)
val alarm_key : alarm -> string

type t

(** [create ()] — a ground station that raises [Heartbeat_lost] after
    more than 3000 ms without a heartbeat and [Telemetry_silence] after
    more than 1000 ms without any frame. *)
val create : unit -> t

(** [feed t ~now_ms bytes] consumes a chunk of downlink. *)
val feed : t -> now_ms:float -> string -> unit

(** [check t ~now_ms] evaluates the alarm conditions at time [now_ms];
    newly raised alarms are returned (and retained in [alarms]). *)
val check : t -> now_ms:float -> alarm list

val alarms : t -> alarm list
val attack_suspected : t -> bool

(** Telemetry truth channel: last xgyro raw value seen in RAW_IMU. *)
val last_gyro_raw : t -> int option

val frames_received : t -> int

(** [attach_metrics t registry] exports the ground station's counters as
    sampled gauges ([gcs.frames], [gcs.heartbeats], [gcs.alarms]) and
    the private downlink parser's statistics under [gcs.link]
    (frames_ok, crc_errors, bytes_dropped, bytes_pending). *)
val attach_metrics : t -> Mavr_telemetry.Metrics.registry -> unit

(** {2 Test hooks}

    Used only by the tests, to check what the ground station decoded. *)

(** Last xacc raw value seen in RAW_IMU. *)
val last_accel_raw : t -> int option

val heartbeats_received : t -> int
