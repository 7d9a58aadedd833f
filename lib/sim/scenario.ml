module Cpu = Mavr_avr.Cpu
module Io = Mavr_avr.Device.Io
module Probes = Mavr_avr.Probes
module Image = Mavr_obj.Image
module Master = Mavr_core.Master

type defense = No_defense | Mavr of Master.config

(* Optional telemetry wiring: the application CPU's probe bundle owns the
   flight-recorder ring, and scenario milestones (uplink deliveries, GCS
   alarms) plus the master's flash-session spans share it so one dump
   tells the whole story in cycle order. *)
type tel = {
  probes : Probes.t;
  recorder : Mavr_telemetry.Recorder.t;
  ticks : Mavr_telemetry.Metrics.counter;
}

type t = {
  app : Cpu.t;
  master : Master.t option;
  gcs : Groundstation.t;
  sensors : Sensors.t;
  cycles_per_ms : int;
  faults : Mavr_fault.Injector.t option;
  uplink : string Queue.t;
  mutable dyn : Dynamics.state;
  mutable now_ms : float;
  mutable tel : tel option;
}

let create ?(cycles_per_ms = 2000) ?faults ?stored ~image defense =
  let app = Cpu.create () in
  let master =
    match defense with
    | No_defense ->
        Cpu.load_program app image.Image.code;
        None
    | Mavr config ->
        let m = Master.create ~config () in
        (match stored with
        | Some s -> Master.provision_stored m s
        | None -> Master.provision m image);
        (* Arm the reflash-stream fault model before the first boot so
           the initial programming session is already under test. *)
        Option.iter (fun f -> Master.set_reflash_faults m (Mavr_fault.Injector.reflash f)) faults;
        Master.boot m ~app;
        Some m
  in
  {
    app;
    master;
    gcs = Groundstation.create ();
    sensors = Sensors.create ~seed:0xBADC0FFEE ();
    cycles_per_ms;
    faults;
    uplink = Queue.create ();
    dyn = Dynamics.initial;
    now_ms = 0.0;
    tel = None;
  }

let attach_telemetry ?(recorder_capacity = 256) t ~registry =
  let module M = Mavr_telemetry.Metrics in
  let probes = Probes.attach ~prefix:"app" ~recorder_capacity ~registry t.app in
  let recorder = Probes.recorder probes in
  M.sampled registry "sim.now_ms" (fun () -> int_of_float t.now_ms);
  Groundstation.attach_metrics t.gcs registry;
  (match t.master with
  | Some m -> Master.attach_telemetry m ~registry ~recorder
  | None -> ());
  (match t.faults with
  | Some f -> Mavr_fault.Injector.attach_metrics f registry
  | None -> ());
  t.tel <- Some { probes; recorder; ticks = M.counter registry "sim.ticks" };
  probes

let probes t = match t.tel with Some tel -> Some tel.probes | None -> None

let app t = t.app
let gcs t = t.gcs
let master t = t.master
let now_ms t = t.now_ms

let uplink_channel faults = Option.bind faults Mavr_fault.Injector.uplink
let downlink_channel faults = Option.bind faults Mavr_fault.Injector.downlink

let record_event t name ~value =
  match t.tel with
  | None -> ()
  | Some tel ->
      Mavr_telemetry.Recorder.record tel.recorder ~cycle:(Cpu.cycles t.app) ~value name

let tick t =
  (* 1 ms of simulated time. *)
  (match t.tel with Some tel -> Mavr_telemetry.Metrics.incr tel.ticks | None -> ());
  let module Channel = Mavr_fault.Channel in
  let tick_no = int_of_float t.now_ms in
  t.dyn <- Dynamics.step t.dyn ~dt:0.001;
  Sensors.write_to_cpu (Sensors.sample t.sensors t.dyn) t.app;
  (* Uplink: at most one queued attacker frame enters the radio per
     tick; with a channel armed it is corrupted/jittered on the way, and
     earlier frames still in flight can land this tick too. *)
  let uplink_bytes =
    let frame = Queue.take_opt t.uplink in
    match uplink_channel t.faults with
    | None -> Option.value frame ~default:""
    | Some ch ->
        Option.iter (fun f -> Channel.push ch ~now:tick_no f) frame;
        Channel.due ch ~now:tick_no
  in
  if uplink_bytes <> "" then begin
    record_event t "sim.uplink_delivered" ~value:(String.length uplink_bytes);
    Cpu.uart_send t.app uplink_bytes
  end;
  ignore (Cpu.run_until_halt t.app ~max_cycles:t.cycles_per_ms);
  (* Drain this tick's telemetry BEFORE the watchdog check: a recovery
     reflash resets the application CPU, which clears the UART TX
     buffer — draining afterwards would destroy exactly the bytes the
     GCS needs to see at the moment of an attack. *)
  let tx = Cpu.uart_take_tx t.app in
  (match t.master with Some m -> ignore (Master.check_and_recover m ~app:t.app) | None -> ());
  t.now_ms <- t.now_ms +. 1.0;
  let downlink_bytes =
    match downlink_channel t.faults with
    | None -> tx
    | Some ch -> Channel.transmit ch ~now:(tick_no + 1) tx
  in
  Groundstation.feed t.gcs ~now_ms:t.now_ms downlink_bytes;
  let fresh = Groundstation.check t.gcs ~now_ms:t.now_ms in
  List.iter
    (fun a ->
      record_event t ("gcs.alarm." ^ Groundstation.alarm_key a)
        ~value:(int_of_float t.now_ms))
    fresh;
  (* Single-event upsets strike between ticks, after this tick's state
     has been delivered and judged. *)
  match t.faults with Some f -> Mavr_fault.Injector.seu_tick f t.app | None -> ()

let run t ~ms =
  let n = int_of_float (Float.ceil ms) in
  for _ = 1 to n do
    tick t
  done

let inject t frames =
  record_event t "sim.inject" ~value:(List.length frames);
  List.iter (fun f -> Queue.add f t.uplink) frames

type report = {
  duration_ms : float;
  gcs_frames : int;
  gcs_alarms : Groundstation.alarm list;
  master_detections : int;
  app_halted : bool;
  reflashes : int;
}

let report t =
  {
    duration_ms = t.now_ms;
    gcs_frames = Groundstation.frames_received t.gcs;
    gcs_alarms = Groundstation.alarms t.gcs;
    master_detections =
      (match t.master with Some m -> Master.attacks_detected m | None -> 0);
    app_halted = Cpu.halted t.app <> None;
    reflashes = (match t.master with Some m -> Master.reflashes m | None -> 0);
  }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%.0f ms simulated; %d frames at GCS; %d GCS alarms; %d master detections; %d reflashes; app %s@]"
    r.duration_ms r.gcs_frames (List.length r.gcs_alarms) r.master_detections r.reflashes
    (if r.app_halted then "HALTED" else "running");
  List.iter (fun a -> Format.fprintf fmt "@,  alarm: %a" Groundstation.pp_alarm a) r.gcs_alarms
