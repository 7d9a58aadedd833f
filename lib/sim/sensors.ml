module Rng = Mavr_prng.Splitmix
module Cpu = Mavr_avr.Cpu
module Io = Mavr_avr.Device.Io

type reading = { gyro_x_raw : int; accel_x_raw : int; baro_alt_cm : int }

type t = { rng : Rng.t; mutable gyro_bias : float; mutable accel_bias : float }

(* Noise magnitudes: raw LSB for the gyroscope and accelerometer,
   centimetres for the barometer. *)
let gyro_noise = 3.0
let accel_noise = 8.0
let baro_noise = 15.0

let create ~seed () = { rng = Rng.create ~seed; gyro_bias = 0.0; accel_bias = 0.0 }

(* Symmetric triangular noise in [-mag, mag] (sum of two uniforms): cheap
   and bounded, unlike a true Gaussian. *)
let noise t mag =
  let u () = float_of_int (Rng.int t.rng 10_000) /. 10_000.0 in
  mag *. (u () +. u () -. 1.0)

let drift t bias mag =
  (* A bounded random walk: the slow bias wander of MEMS parts. *)
  let b = bias +. noise t (mag /. 50.0) in
  Float.max (-.mag) (Float.min mag b)

let to_i16_raw v =
  let raw = int_of_float (Float.round v) in
  max (-32768) (min 32767 raw) land 0xFFFF

let sample t (s : Dynamics.state) =
  t.gyro_bias <- drift t t.gyro_bias gyro_noise;
  t.accel_bias <- drift t t.accel_bias accel_noise;
  let gyro = (s.roll_rate *. 1000.0) +. t.gyro_bias +. noise t gyro_noise in
  (* Forward acceleration ~ pitch attitude in steady flight (1000 LSB/g). *)
  let accel = (s.pitch *. 1000.0) +. t.accel_bias +. noise t accel_noise in
  let baro = (s.altitude_m *. 100.0) +. noise t baro_noise in
  {
    gyro_x_raw = to_i16_raw gyro;
    accel_x_raw = to_i16_raw accel;
    baro_alt_cm = int_of_float (Float.round baro);
  }

let write_to_cpu r cpu =
  Cpu.io_poke cpu Io.gyro_lo (r.gyro_x_raw land 0xFF);
  Cpu.io_poke cpu Io.gyro_hi ((r.gyro_x_raw lsr 8) land 0xFF);
  Cpu.io_poke cpu Io.accel_lo (r.accel_x_raw land 0xFF);
  Cpu.io_poke cpu Io.accel_hi ((r.accel_x_raw lsr 8) land 0xFF)
