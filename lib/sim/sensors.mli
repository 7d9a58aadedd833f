(** The APM 2.5 sensor suite (§II-A): 3-axis gyroscope, accelerometer and
    barometer models.

    Each sensor samples the physical truth from {!Dynamics} and applies a
    seeded noise process (white noise plus a slowly-drifting bias, the
    standard MEMS error model).  All randomness flows from the seed, so
    closed-loop scenarios stay reproducible. *)

type reading = {
  gyro_x_raw : int;  (** roll rate, 1000 LSB per rad/s, two's complement 16-bit *)
  accel_x_raw : int;  (** forward acceleration, 1000 LSB per g *)
  baro_alt_cm : int;  (** barometric altitude in centimetres *)
}

type t

(** [create ~seed ()] — white noise of at most 3 LSB on the gyroscope,
    8 LSB on the accelerometer and 15 cm on the barometer; the gyroscope
    and accelerometer biases wander within the same magnitudes. *)
val create : seed:int -> unit -> t

(** [sample t state] draws one noisy reading of [state]. *)
val sample : t -> Dynamics.state -> reading

(** [write_to_cpu reading cpu] latches the reading into the memory-mapped
    sensor registers the firmware reads. *)
val write_to_cpu : reading -> Mavr_avr.Cpu.t -> unit
