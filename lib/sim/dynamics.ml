type state = {
  time_s : float;
  roll : float;
  pitch : float;
  yaw : float;
  roll_rate : float;
  pitch_rate : float;
  yaw_rate : float;
  altitude_m : float;
  airspeed_ms : float;
}

let initial =
  {
    time_s = 0.0;
    roll = 0.0;
    pitch = 0.02;
    yaw = 0.0;
    roll_rate = 0.0;
    pitch_rate = 0.0;
    yaw_rate = 0.0;
    altitude_m = 120.0;
    airspeed_ms = 14.0;
  }

(* A gentle banked circle: the commanded roll follows a slow sinusoid,
   attitude lags with a first-order response, yaw follows the bank. *)
let step s ~dt =
  let commanded_roll = 0.25 *. sin (s.time_s /. 7.0) in
  let tau = 0.8 in
  let roll_rate = (commanded_roll -. s.roll) /. tau in
  let pitch_rate = (0.02 -. s.pitch) /. tau in
  let yaw_rate = 9.81 /. s.airspeed_ms *. tan s.roll in
  {
    time_s = s.time_s +. dt;
    roll = s.roll +. (roll_rate *. dt);
    pitch = s.pitch +. (pitch_rate *. dt);
    yaw = s.yaw +. (yaw_rate *. dt);
    roll_rate;
    pitch_rate;
    yaw_rate;
    altitude_m = s.altitude_m +. (2.0 *. s.pitch *. s.airspeed_ms *. dt);
    airspeed_ms = s.airspeed_ms;
  }

let gyro_x_raw s =
  let raw = int_of_float (Float.round (s.roll_rate *. 1000.0)) in
  let clamped = max (-32768) (min 32767 raw) in
  clamped land 0xFFFF
