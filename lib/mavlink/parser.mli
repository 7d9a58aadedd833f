(** Incremental MAVLink byte-stream parser.

    Decodes frames from an arbitrary chunking of the serial stream, the
    way a ground station (or the APM's software decoder, §II-C) consumes
    telemetry.  Resynchronizes on the start magic after garbage and keeps
    link-quality statistics used by the anomaly detector. *)

type stats = {
  frames_ok : int;
  crc_errors : int;
  bytes_dropped : int;  (** garbage bytes skipped while hunting for magic *)
}

type t

val create : unit -> t

(** [feed t bytes] consumes a chunk and returns the frames completed by
    it, in order. *)
val feed : t -> string -> Frame.t list

val stats : t -> stats

(** Bytes currently buffered waiting for a complete frame. *)
val pending : t -> int

(** [attach_metrics t registry] exports the link-quality counters of the
    ground station's downlink parser ([gcs.link.frames_ok],
    [.crc_errors], [.bytes_dropped], [.bytes_pending]) as sampled gauges
    — read at snapshot time, zero cost on the parse path. *)
val attach_metrics : t -> Mavr_telemetry.Metrics.registry -> unit
