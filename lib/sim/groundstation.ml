module Parser = Mavr_mavlink.Parser
module Frame = Mavr_mavlink.Frame
module Messages = Mavr_mavlink.Messages

type alarm =
  | Heartbeat_lost of { silent_ms : float }
  | Telemetry_silence of { silent_ms : float }
  | Link_corruption of { crc_errors : int; bytes_dropped : int }
  | Unexpected_reboot of { seq_jump : int }

let alarm_key = function
  | Heartbeat_lost _ -> "heartbeat_lost"
  | Telemetry_silence _ -> "telemetry_silence"
  | Link_corruption _ -> "link_corruption"
  | Unexpected_reboot _ -> "unexpected_reboot"

let pp_alarm fmt = function
  | Heartbeat_lost { silent_ms } -> Format.fprintf fmt "heartbeat lost (%.0f ms silent)" silent_ms
  | Telemetry_silence { silent_ms } -> Format.fprintf fmt "telemetry silence (%.0f ms)" silent_ms
  | Link_corruption { crc_errors; bytes_dropped } ->
      Format.fprintf fmt "link corruption (%d CRC errors, %d bytes dropped)" crc_errors bytes_dropped
  | Unexpected_reboot { seq_jump } -> Format.fprintf fmt "unexpected reboot (seq jump %d)" seq_jump

(* Alarm thresholds: a silence longer than these raises the alarm. *)
let heartbeat_timeout_ms = 3000.0
let telemetry_timeout_ms = 1000.0

type t = {
  parser : Parser.t;
  mutable last_heartbeat_ms : float;
  mutable last_frame_ms : float;
  mutable started : bool;
  mutable last_seq : int option;
  mutable alarms : alarm list;
  mutable reported_corruption : int;
  mutable silent_latched : bool;
  mutable hb_latched : bool;
  mutable last_gyro : int option;
  mutable last_accel : int option;
  mutable frames : int;
  mutable heartbeats : int;
}

let create () =
  {
    parser = Parser.create ();
    last_heartbeat_ms = 0.0;
    last_frame_ms = 0.0;
    started = false;
    last_seq = None;
    alarms = [];
    reported_corruption = 0;
    silent_latched = false;
    hb_latched = false;
    last_gyro = None;
    last_accel = None;
    frames = 0;
    heartbeats = 0;
  }

let raise_alarm t a = t.alarms <- a :: t.alarms

let on_frame t ~now_ms (f : Frame.t) =
  t.frames <- t.frames + 1;
  t.last_frame_ms <- now_ms;
  t.started <- true;
  (match t.last_seq with
  | Some prev ->
      let expected = (prev + 1) land 0xFF in
      (* The transmitter resets its sequence counter on reboot; a jump
         back near zero after an established stream is a reboot tell. *)
      if f.seq <> expected && f.seq < 3 && prev > 10 then
        raise_alarm t (Unexpected_reboot { seq_jump = prev - f.seq })
  | None -> ());
  t.last_seq <- Some f.seq;
  if f.msgid = Messages.heartbeat.msgid then begin
    t.heartbeats <- t.heartbeats + 1;
    t.last_heartbeat_ms <- now_ms
  end;
  if f.msgid = Messages.raw_imu.msgid then
    match Messages.Raw_imu.decode f.payload with
    | Ok imu ->
        t.last_gyro <- Some (imu.xgyro land 0xFFFF);
        t.last_accel <- Some (imu.xacc land 0xFFFF)
    | Error _ -> ()

let feed t ~now_ms bytes =
  let frames = Parser.feed t.parser bytes in
  List.iter (on_frame t ~now_ms) frames

let check t ~now_ms =
  let before = t.alarms in
  if t.started then begin
    (* The two timeout alarms are independent watchdogs, each
       edge-triggered (one alarm per episode).  Evaluating them in
       lock-step matters: heartbeats stopping while other telemetry
       still flows is exactly the partial-failure signature a nested
       check would miss — and a latched silence episode must not stop
       the heartbeat clock from being re-armed when frames resume. *)
    if now_ms -. t.last_frame_ms > telemetry_timeout_ms then begin
      if not t.silent_latched then begin
        t.silent_latched <- true;
        raise_alarm t (Telemetry_silence { silent_ms = now_ms -. t.last_frame_ms })
      end
    end
    else t.silent_latched <- false;
    if t.heartbeats > 0 && now_ms -. t.last_heartbeat_ms > heartbeat_timeout_ms then begin
      if not t.hb_latched then begin
        t.hb_latched <- true;
        raise_alarm t (Heartbeat_lost { silent_ms = now_ms -. t.last_heartbeat_ms })
      end
    end
    else t.hb_latched <- false;
    let stats = Parser.stats t.parser in
    let corruption = stats.crc_errors + stats.bytes_dropped in
    if corruption > t.reported_corruption then begin
      t.reported_corruption <- corruption;
      raise_alarm t
        (Link_corruption { crc_errors = stats.crc_errors; bytes_dropped = stats.bytes_dropped })
    end
  end;
  let rec fresh acc l = if l == before then List.rev acc else
      match l with [] -> List.rev acc | x :: tl -> fresh (x :: acc) tl
  in
  fresh [] t.alarms

let alarms t = List.rev t.alarms
let attack_suspected t = t.alarms <> []

let attach_metrics t registry =
  let module M = Mavr_telemetry.Metrics in
  M.sampled registry "gcs.frames" (fun () -> t.frames);
  M.sampled registry "gcs.heartbeats" (fun () -> t.heartbeats);
  M.sampled registry "gcs.alarms" (fun () -> List.length t.alarms);
  Parser.attach_metrics t.parser registry
let last_gyro_raw t = t.last_gyro
let last_accel_raw t = t.last_accel
let frames_received t = t.frames
let heartbeats_received t = t.heartbeats
