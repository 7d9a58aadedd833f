(** Closed-loop scenarios: AVR firmware in the loop with UAV dynamics, a
    ground station, and optionally the MAVR master processor.

    Wall-clock is modeled in milliseconds; each tick advances the
    physics, refreshes the memory-mapped sensor registers, executes the
    application processor for the corresponding cycle budget, ships its
    UART output to the ground station and (with the defense enabled) lets
    the master processor run its watchdog check.  This is the rig behind
    the paper's effectiveness experiments (§VII-A) and the in-flight
    recovery argument (§VIII-A). *)

type defense =
  | No_defense  (** bare APM: a failed attack bricks the autopilot *)
  | Mavr of Mavr_core.Master.config

type t

(** [create ?cycles_per_ms ?faults ?stored ~image defense] boots the
    system.
    [cycles_per_ms] scales the emulated clock (default 2000 — a slowed
    16 MHz part, keeping long scenarios fast while preserving ordering).
    [faults] arms the fault-injection rig for the whole flight: the
    downlink channel corrupts the app→GCS telemetry stream, the uplink
    channel corrupts injected attacker frames, SEUs strike between
    ticks, and the master's programming sessions (including the very
    first boot) run under the reflash-stream fault model.  The master
    is provisioned from [stored] when given — it must be
    [Master.store image], made once and shared by many flights — and
    from [image] otherwise. *)
val create :
  ?cycles_per_ms:int ->
  ?faults:Mavr_fault.Injector.t ->
  ?stored:Mavr_core.Master.stored ->
  image:Mavr_obj.Image.t ->
  defense ->
  t

val app : t -> Mavr_avr.Cpu.t
val gcs : t -> Groundstation.t

(** The master processor (when the defense is enabled). *)
val master : t -> Mavr_core.Master.t option

val now_ms : t -> float

(** [run t ~ms] advances the closed loop by [ms] milliseconds. *)
val run : t -> ms:float -> unit

(** [inject t frames] queues attacker frames on the uplink (delivered at
    the start of the next tick). *)
val inject : t -> string list -> unit

(** [attach_telemetry ?recorder_capacity t ~registry] instruments the
    whole rig: attaches the standard CPU probe bundle (prefix ["app"]) to
    the application processor, exports ground-station and master counters
    as sampled gauges, counts ticks ([sim.ticks]) and samples the clock
    ([sim.now_ms]), and records scenario milestones — uplink deliveries
    ([sim.inject] / [sim.uplink_delivered]) and fresh GCS alarms
    ([gcs.alarm.<kind>], value = ms timestamp) — on the probe bundle's
    flight-recorder ring, which the master's flash-session spans share.
    Returns the probe bundle (its [flight_record] is the unified ring). *)
val attach_telemetry :
  ?recorder_capacity:int ->
  t ->
  registry:Mavr_telemetry.Metrics.registry ->
  Mavr_avr.Probes.t

(** The probe bundle installed by [attach_telemetry], if any. *)
val probes : t -> Mavr_avr.Probes.t option

(** Summary counters for reports. *)
type report = {
  duration_ms : float;
  gcs_frames : int;
  gcs_alarms : Groundstation.alarm list;
  master_detections : int;
  app_halted : bool;
  reflashes : int;
}

val report : t -> report

val pp_report : Format.formatter -> report -> unit
