(** Minimal fixed-wing UAV kinematics.

    Supplies the physical truth the sensor models sample.  The point of
    the simulation is the {e observability} argument of the paper — what
    a ground station can and cannot see during an attack — so the
    dynamics are deliberately simple: first-order attitude response to
    commanded rates plus slow cruise drift. *)

type state = {
  time_s : float;
  roll : float;  (** radians *)
  pitch : float;
  yaw : float;
  roll_rate : float;  (** rad/s *)
  pitch_rate : float;
  yaw_rate : float;
  altitude_m : float;
  airspeed_ms : float;
}

val initial : state

(** [step state ~dt] advances the physics by [dt] seconds: a gentle
    banked-circle cruise pattern. *)
val step : state -> dt:float -> state

(** [gyro_x_raw state] is the roll-rate as the 16-bit raw unit the
    ATmega-attached IMU reports (1000 LSB per rad/s, two's complement). *)
val gyro_x_raw : state -> int
