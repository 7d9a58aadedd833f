module Dynamics = Mavr_sim.Dynamics
module Gcs = Mavr_sim.Groundstation
module Sc = Mavr_sim.Scenario
module Rop = Mavr_core.Rop
module Frame = Mavr_mavlink.Frame

let image () = (Helpers.build_mavr ()).image

(* ---- dynamics ---- *)

let test_dynamics_progresses () =
  let s = ref Dynamics.initial in
  for _ = 1 to 1000 do
    s := Dynamics.step !s ~dt:0.01
  done;
  Alcotest.(check bool) "time advanced" true (!s.time_s > 9.9);
  Alcotest.(check bool) "bounded roll" true (Float.abs !s.roll < 0.5);
  Alcotest.(check bool) "altitude sane" true (!s.altitude_m > 50.0 && !s.altitude_m < 500.0)

let test_gyro_raw_encoding () =
  let s = { Dynamics.initial with roll_rate = 0.5 } in
  Alcotest.(check int) "positive rate" 500 (Dynamics.gyro_x_raw s);
  let s = { Dynamics.initial with roll_rate = -0.5 } in
  Alcotest.(check int) "negative rate two's complement" 0xFE0C (Dynamics.gyro_x_raw s);
  let s = { Dynamics.initial with roll_rate = 1000.0 } in
  Alcotest.(check int) "clamped" 32767 (Dynamics.gyro_x_raw s)

(* ---- sensor suite ---- *)

let test_sensors_deterministic () =
  let a = Mavr_sim.Sensors.create ~seed:9 () in
  let b = Mavr_sim.Sensors.create ~seed:9 () in
  let st = Dynamics.initial in
  for _ = 1 to 50 do
    Alcotest.(check bool) "same stream" true
      (Mavr_sim.Sensors.sample a st = Mavr_sim.Sensors.sample b st)
  done

let test_sensors_noise_bounded () =
  let s = Mavr_sim.Sensors.create ~seed:4 () in
  let st = { Dynamics.initial with roll_rate = 0.25 } in
  for _ = 1 to 500 do
    let r = Mavr_sim.Sensors.sample s st in
    let signed = if r.gyro_x_raw >= 0x8000 then r.gyro_x_raw - 0x10000 else r.gyro_x_raw in
    (* truth 250 LSB, white noise <= 3, bias walk bounded by 3 *)
    if abs (signed - 250) > 7 then Alcotest.failf "gyro sample %d too far from 250" signed
  done

let test_sensors_baro_tracks_altitude () =
  let s = Mavr_sim.Sensors.create ~seed:4 () in
  let st = { Dynamics.initial with altitude_m = 150.0 } in
  let r = Mavr_sim.Sensors.sample s st in
  Alcotest.(check bool) "baro near 15000 cm" true (abs (r.baro_alt_cm - 15000) < 100)

let test_accel_reaches_gcs () =
  let s = Sc.create ~image:(image ()) Sc.No_defense in
  Sc.run s ~ms:1500.0;
  match Gcs.last_accel_raw (Sc.gcs s) with
  | None -> Alcotest.fail "no accel telemetry"
  | Some raw ->
      let signed = if raw >= 0x8000 then raw - 0x10000 else raw in
      (* pitch ~0.02 rad -> ~20 LSB, noise/bias ~ +-16 *)
      Alcotest.(check bool) "accel plausible" true (abs signed < 80)

(* ---- ground station ---- *)

let hb_frame seq =
  Frame.encode
    { Frame.seq; sysid = 1; compid = 1; msgid = 0;
      payload = Mavr_mavlink.Messages.Heartbeat.encode
          { typ = 1; autopilot = 3; base_mode = 0; custom_mode = 0; system_status = 4 } }

let test_gcs_clean_stream_no_alarms () =
  let g = Gcs.create () in
  for i = 0 to 40 do
    Gcs.feed g ~now_ms:(float_of_int (i * 100)) (hb_frame (i land 0xFF));
    ignore (Gcs.check g ~now_ms:(float_of_int (i * 100)))
  done;
  Alcotest.(check bool) "no alarms" false (Gcs.attack_suspected g);
  Alcotest.(check int) "heartbeats" 41 (Gcs.heartbeats_received g)

(* The ground station's alarm thresholds: telemetry silence past
   1000 ms, heartbeat loss past 3000 ms. *)

let test_gcs_telemetry_silence_alarm () =
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  ignore (Gcs.check g ~now_ms:100.0);
  Alcotest.(check bool) "quiet at first" false (Gcs.attack_suspected g);
  ignore (Gcs.check g ~now_ms:1300.0);
  Alcotest.(check bool) "silence alarm" true (Gcs.attack_suspected g);
  (* Edge-triggered: the episode raises one alarm, not one per check. *)
  ignore (Gcs.check g ~now_ms:1400.0);
  ignore (Gcs.check g ~now_ms:1500.0);
  Alcotest.(check int) "latched" 1 (List.length (Gcs.alarms g))

let imu_frame seq =
  Frame.encode
    { Frame.seq; sysid = 1; compid = 1; msgid = 27;
      payload = Mavr_mavlink.Messages.Raw_imu.encode
          { time_usec = 1; xacc = 0; yacc = 0; zacc = 0; xgyro = 0; ygyro = 0;
            zgyro = 0; xmag = 0; ymag = 0; zmag = 0 } }

let test_gcs_silence_exact_timeout_edge () =
  (* The contract is strictly-greater-than: silence of exactly the
     timeout is still on time; one millisecond past it alarms. *)
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  Alcotest.(check int) "at the edge: no alarm" 0
    (List.length (Gcs.check g ~now_ms:1000.0));
  Alcotest.(check (list string)) "past the edge: one alarm" [ "telemetry_silence" ]
    (List.map Gcs.alarm_key (Gcs.check g ~now_ms:1001.0))

let test_gcs_heartbeat_exact_timeout_edge () =
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  (* Non-heartbeat traffic keeps the telemetry stream alive, isolating
     the heartbeat clock. *)
  List.iteri (fun i now_ms -> Gcs.feed g ~now_ms (imu_frame (i + 1))) [ 900.0; 1800.0; 2700.0 ];
  Alcotest.(check int) "at the edge: no alarm" 0 (List.length (Gcs.check g ~now_ms:3000.0));
  Gcs.feed g ~now_ms:3001.0 (imu_frame 4);
  Alcotest.(check (list string)) "past the edge: heartbeat lost" [ "heartbeat_lost" ]
    (List.map Gcs.alarm_key (Gcs.check g ~now_ms:3001.0))

let test_gcs_duplicate_alarm_suppression () =
  (* One alarm per episode: repeated checks inside the same silence must
     not stack alarms, and a recovered-then-silent-again stream starts a
     new episode. *)
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  let seq = ref 0 in
  let imu_at t =
    incr seq;
    Gcs.feed g ~now_ms:t (imu_frame (!seq land 0xFF))
  in
  (* Heartbeats go silent; IMU traffic continues. *)
  let alarms = ref 0 in
  for t = 1 to 50 do
    let now = float_of_int (t * 100) in
    imu_at now;
    alarms := !alarms + List.length (Gcs.check g ~now_ms:now)
  done;
  Alcotest.(check int) "episode raises exactly one alarm" 1 !alarms;
  (* Heartbeat resumes (continuing the sequence, so no reboot alarm):
     the latch re-arms... *)
  incr seq;
  Gcs.feed g ~now_ms:5050.0 (hb_frame (!seq land 0xFF));
  Alcotest.(check int) "recovered: no alarm" 0 (List.length (Gcs.check g ~now_ms:5100.0));
  (* ...and a second silence episode raises exactly one more. *)
  for t = 52 to 90 do
    let now = float_of_int (t * 100) in
    imu_at now;
    alarms := !alarms + List.length (Gcs.check g ~now_ms:now)
  done;
  Alcotest.(check int) "second episode, second alarm" 2 !alarms;
  Alcotest.(check int) "retained history matches" 2 (List.length (Gcs.alarms g))

let test_gcs_heartbeat_lost_while_telemetry_flows () =
  (* Regression: the heartbeat-lost check used to live in the [else] of
     the telemetry-silence branch, so it could only fire when telemetry
     was healthy AND the silence latch was clear.  Heartbeats stopping
     while IMU traffic keeps flowing is exactly the partial-failure the
     nested check handled by accident — pin it down explicitly. *)
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  let keys = ref [] in
  for t = 1 to 45 do
    let now = float_of_int (t * 100) in
    Gcs.feed g ~now_ms:now (imu_frame (t land 0xFF));
    keys := !keys @ List.map Gcs.alarm_key (Gcs.check g ~now_ms:now)
  done;
  Alcotest.(check (list string)) "only the heartbeat alarm, exactly once"
    [ "heartbeat_lost" ] !keys

let test_gcs_both_silent_raises_both_alarms () =
  (* Regression for the same nesting bug from the other side: once the
     telemetry-silence episode latches, the heartbeat clock must keep
     running — a fully dead link owes the operator BOTH alarms. *)
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  Alcotest.(check (list string)) "silence fires first" [ "telemetry_silence" ]
    (List.map Gcs.alarm_key (Gcs.check g ~now_ms:1500.0));
  (* Pre-fix, the latched silence episode starved this check forever. *)
  Alcotest.(check (list string)) "heartbeat loss still surfaces" [ "heartbeat_lost" ]
    (List.map Gcs.alarm_key (Gcs.check g ~now_ms:3500.0));
  Alcotest.(check int) "both retained" 2 (List.length (Gcs.alarms g))

let test_gcs_corruption_alarm () =
  let g = Gcs.create () in
  Gcs.feed g ~now_ms:0.0 (hb_frame 0);
  Gcs.feed g ~now_ms:10.0 "\x12\x34garbage bytes\x56";
  Gcs.feed g ~now_ms:20.0 (hb_frame 1);
  ignore (Gcs.check g ~now_ms:30.0);
  Alcotest.(check bool) "corruption alarm" true
    (List.exists (function Gcs.Link_corruption _ -> true | _ -> false) (Gcs.alarms g))

let test_gcs_reboot_detection () =
  let g = Gcs.create () in
  for i = 0 to 30 do
    Gcs.feed g ~now_ms:(float_of_int i) (hb_frame i)
  done;
  (* Sequence jumps back to 0: the transmitter rebooted. *)
  Gcs.feed g ~now_ms:40.0 (hb_frame 1);
  Alcotest.(check bool) "reboot alarm" true
    (List.exists (function Gcs.Unexpected_reboot _ -> true | _ -> false) (Gcs.alarms g))

let test_gcs_noise_corruption_without_reboot_alarm () =
  (* Severe radio noise over an honest transmitter: the GCS must flag
     link corruption, but must NOT read corrupted sequence numbers as an
     unexpected reboot — CRC rejection keeps damaged frames out of the
     sequence tracker, so only genuine resets can trip that alarm. *)
  let module Channel = Mavr_fault.Channel in
  let severe =
    {
      Channel.bit_flip_ppm = 10_000;
      drop_ppm = 5_000;
      dup_ppm = 2_000;
      burst_ppm = 100_000;
      burst_len_max = 16;
      jitter_max_ticks = 0;
    }
  in
  let ch = Channel.create ~rng:(Mavr_prng.Splitmix.create ~seed:3) severe in
  let g = Gcs.create () in
  for i = 0 to 400 do
    let now = float_of_int (i * 50) in
    let wire = if i mod 4 = 0 then hb_frame (i land 0xFF) else imu_frame (i land 0xFF) in
    Gcs.feed g ~now_ms:now (Channel.corrupt ch wire);
    ignore (Gcs.check g ~now_ms:now)
  done;
  let alarms = Gcs.alarms g in
  Alcotest.(check bool) "corruption flagged" true
    (List.exists (function Gcs.Link_corruption _ -> true | _ -> false) alarms);
  Alcotest.(check bool) "no phantom reboot" false
    (List.exists (function Gcs.Unexpected_reboot _ -> true | _ -> false) alarms);
  Alcotest.(check bool) "most frames still got through" true (Gcs.frames_received g > 200)

let test_gcs_tracks_gyro () =
  let g = Gcs.create () in
  let imu =
    Frame.encode
      { Frame.seq = 0; sysid = 1; compid = 1; msgid = 27;
        payload = Mavr_mavlink.Messages.Raw_imu.encode
            { time_usec = 1; xacc = 0; yacc = 0; zacc = 0; xgyro = 0x1234; ygyro = 0;
              zgyro = 0; xmag = 0; ymag = 0; zmag = 0 } }
  in
  Gcs.feed g ~now_ms:1.0 imu;
  Alcotest.(check (option int)) "gyro tracked" (Some 0x1234) (Gcs.last_gyro_raw g)

(* ---- closed-loop scenarios ---- *)

let test_baseline_flight () =
  let s = Sc.create ~image:(image ()) Sc.No_defense in
  Sc.run s ~ms:2000.0;
  let r = Sc.report s in
  Alcotest.(check bool) "frames flowed" true (r.gcs_frames > 100);
  Alcotest.(check int) "no alarms" 0 (List.length r.gcs_alarms);
  Alcotest.(check bool) "app alive" true (not r.app_halted)

let test_gyro_truth_reaches_gcs () =
  let s = Sc.create ~image:(image ()) Sc.No_defense in
  Sc.run s ~ms:1500.0;
  match Gcs.last_gyro_raw (Sc.gcs s) with
  | None -> Alcotest.fail "no gyro telemetry"
  | Some raw ->
      (* The reported value must equal a plausible physical rate (the
         dynamics' roll rate is within ±0.5 rad/s => ±500 raw). *)
      let signed = if raw >= 0x8000 then raw - 0x10000 else raw in
      Alcotest.(check bool) "physically plausible" true (abs signed <= 500)

let test_stealthy_attack_invisible_to_gcs () =
  let b, ti, obs = Helpers.attack_target () in
  ignore b;
  let s = Sc.create ~image:(image ()) Sc.No_defense in
  Sc.run s ~ms:400.0;
  Sc.inject s
    (Rop.v2_stealthy ti obs
       ~writes:[ Rop.write_u16 obs ~addr:Mavr_firmware.Layout.gyro_cfg ~value:0x4000 ~neighbour:0 ]);
  Sc.run s ~ms:2000.0;
  let r = Sc.report s in
  Alcotest.(check int) "GCS saw nothing" 0 (List.length r.gcs_alarms);
  Alcotest.(check bool) "app alive" true (not r.app_halted);
  (* ... yet the sensor stream is now attacker-biased. *)
  match Gcs.last_gyro_raw (Sc.gcs s) with
  | Some raw ->
      Alcotest.(check bool) "gyro biased by ~0x4000" true (abs (raw - 0x4000) < 1000)
  | None -> Alcotest.fail "no gyro telemetry"

let test_v1_attack_visible_to_gcs () =
  let b, ti, obs = Helpers.attack_target () in
  ignore b;
  let s = Sc.create ~image:(image ()) Sc.No_defense in
  Sc.run s ~ms:400.0;
  Sc.inject s
    (Rop.v1_basic ti obs
       ~writes:[ Rop.write_u16 obs ~addr:Mavr_firmware.Layout.gyro_cfg ~value:0x4000 ~neighbour:0 ]);
  Sc.run s ~ms:3000.0;
  let r = Sc.report s in
  Alcotest.(check bool) "app crashed" true r.app_halted;
  Alcotest.(check bool) "GCS noticed" true (List.length r.gcs_alarms > 0)

let test_mavr_recovers_in_flight () =
  let b, ti, obs = Helpers.attack_target () in
  ignore b;
  let config = { Mavr_core.Master.default_config with watchdog_window_cycles = 20_000 } in
  let s = Sc.create ~image:(image ()) (Sc.Mavr config) in
  Sc.run s ~ms:400.0;
  ignore obs;
  (* A failed guess whose return address leaves flash: the deterministic
     failure mode the paper's watchdog argument assumes. *)
  Sc.inject s (Rop.crash_probe ti);
  Sc.run s ~ms:4000.0;
  let r = Sc.report s in
  Alcotest.(check bool) "master detected the failed attack" true (r.master_detections >= 1);
  Alcotest.(check bool) "app recovered" true (not r.app_halted);
  Alcotest.(check bool) "reflashed at least twice (boot + recovery)" true (r.reflashes >= 2)

let test_scenario_telemetry () =
  (* The full instrumented rig: a defended flight hit by a crash probe
     must leave the story in the registry (app fault counters, master
     detections, GCS counters) and on the shared flight-recorder ring
     (the master's flash-session span and the attack-detected event). *)
  let _b, ti, _obs = Helpers.attack_target () in
  let config = { Mavr_core.Master.default_config with watchdog_window_cycles = 20_000 } in
  let s = Sc.create ~image:(image ()) (Sc.Mavr config) in
  let registry = Mavr_telemetry.Metrics.create () in
  let probes = Sc.attach_telemetry s ~registry in
  Sc.run s ~ms:400.0;
  Sc.inject s (Rop.crash_probe ti);
  Sc.run s ~ms:3000.0;
  let snap = Mavr_telemetry.Metrics.snapshot registry in
  let get name =
    match List.assoc_opt name snap with
    | Some (Mavr_telemetry.Metrics.Counter_value n)
    | Some (Mavr_telemetry.Metrics.Gauge_value n) ->
        n
    | _ -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check int) "ticks counted" 3400 (get "sim.ticks");
  Alcotest.(check bool) "instructions counted" true (get "app.insn.total" > 0);
  Alcotest.(check bool) "fault recorded" true (get "app.halt.wild_pc" >= 1);
  Alcotest.(check bool) "master saw the attack" true (get "master.attacks_detected" >= 1);
  Alcotest.(check bool) "gcs frames exported" true (get "gcs.frames" > 0);
  Alcotest.(check bool) "probes retained" true
    (match Sc.probes s with Some p -> p == probes | None -> false);
  Alcotest.(check int) "faults seen by bundle" (get "app.halt.wild_pc")
    (Mavr_avr.Probes.faults_seen probes);
  (* The dump was captured the instant the probe faulted, even though the
     master then recovered the CPU and execution continued. *)
  Alcotest.(check bool) "fault dump captured" true (Mavr_avr.Probes.last_fault_dump probes <> None);
  (* The recovery flash session landed in the Table II phase histograms
     (the boot flash predates attach and is rightly absent). *)
  match List.assoc_opt "master.flash.total_us" snap with
  | Some (Mavr_telemetry.Metrics.Histogram_value h) ->
      Alcotest.(check bool) "recovery session timed" true (h.Mavr_telemetry.Metrics.count >= 1)
  | _ -> Alcotest.fail "master flash histogram missing"

let test_recovery_tick_still_delivers_telemetry () =
  (* Regression: the tick used to run the master's watchdog BEFORE
     draining the app's UART — a recovery reflash resets the CPU and
     clears TX, so every byte the app transmitted during the tick it
     died in was silently destroyed.  Pin the order: the GCS must
     receive the dying tick's telemetry AND the reflash must happen. *)
  let config = { Mavr_core.Master.default_config with watchdog_window_cycles = 20_000 } in
  let s = Sc.create ~image:(image ()) (Sc.Mavr config) in
  Sc.run s ~ms:400.0;
  (* Fill the TX buffer outside the tick loop, then kill the CPU: the
     next tick holds both pending telemetry and a recovery. *)
  ignore (Mavr_avr.Cpu.run_until_halt (Sc.app s) ~max_cycles:200_000);
  Mavr_avr.Cpu.force_halt (Sc.app s) (Mavr_avr.Cpu.Wild_pc 0);
  let frames_before = Gcs.frames_received (Sc.gcs s) in
  let reflashes_before = (Sc.report s).reflashes in
  Sc.run s ~ms:1.0;
  let r = Sc.report s in
  Alcotest.(check int) "master recovered in that tick" (reflashes_before + 1) r.reflashes;
  Alcotest.(check bool) "the dying tick's telemetry reached the GCS" true
    (Gcs.frames_received (Sc.gcs s) > frames_before)

let test_uplink_queue_preserves_order () =
  (* Regression companion for the O(n^2) uplink-append fix: batches
     queued across multiple [inject] calls must still be delivered one
     per tick, in injection order (asserted via the recorder's
     [sim.uplink_delivered] events, whose value is the chunk length). *)
  let s = Sc.create ~image:(image ()) Sc.No_defense in
  let registry = Mavr_telemetry.Metrics.create () in
  (* The ring also carries the per-instruction trace; size it so the
     milestone events survive a few ticks of execution. *)
  let probes = Sc.attach_telemetry ~recorder_capacity:20_000 s ~registry in
  Sc.run s ~ms:5.0;
  Sc.inject s [ "aa" ];
  Sc.inject s [ "bbb"; "cccc" ];
  Sc.run s ~ms:5.0;
  let delivered =
    List.filter_map
      (fun (e : Mavr_telemetry.Recorder.event) ->
        if e.name = "sim.uplink_delivered" then Some e.value else None)
      (Mavr_avr.Probes.flight_record probes)
  in
  Alcotest.(check (list int)) "one chunk per tick, injection order" [ 2; 3; 4 ] delivered

let test_mavr_prevents_takeover () =
  let b, ti, obs = Helpers.attack_target () in
  ignore b;
  let s = Sc.create ~image:(image ()) (Sc.Mavr Mavr_core.Master.default_config) in
  Sc.run s ~ms:400.0;
  Sc.inject s
    (Rop.v2_stealthy ti obs
       ~writes:[ Rop.write_u16 obs ~addr:Mavr_firmware.Layout.gyro_cfg ~value:0x4000 ~neighbour:0 ]);
  Sc.run s ~ms:3000.0;
  let cfg =
    Mavr_avr.Cpu.data_peek (Sc.app s) Mavr_firmware.Layout.gyro_cfg
    lor (Mavr_avr.Cpu.data_peek (Sc.app s) (Mavr_firmware.Layout.gyro_cfg + 1) lsl 8)
  in
  Alcotest.(check bool) "takeover prevented" false (cfg = 0x4000)

let () =
  Alcotest.run "sim"
    [
      ( "dynamics",
        [
          Alcotest.test_case "progresses" `Quick test_dynamics_progresses;
          Alcotest.test_case "gyro raw encoding" `Quick test_gyro_raw_encoding;
        ] );
      ( "sensors",
        [
          Alcotest.test_case "deterministic" `Quick test_sensors_deterministic;
          Alcotest.test_case "noise bounded" `Quick test_sensors_noise_bounded;
          Alcotest.test_case "baro tracks altitude" `Quick test_sensors_baro_tracks_altitude;
          Alcotest.test_case "accel reaches GCS" `Quick test_accel_reaches_gcs;
        ] );
      ( "groundstation",
        [
          Alcotest.test_case "clean stream" `Quick test_gcs_clean_stream_no_alarms;
          Alcotest.test_case "silence alarm" `Quick test_gcs_telemetry_silence_alarm;
          Alcotest.test_case "silence exact edge" `Quick test_gcs_silence_exact_timeout_edge;
          Alcotest.test_case "heartbeat exact edge" `Quick test_gcs_heartbeat_exact_timeout_edge;
          Alcotest.test_case "duplicate suppression" `Quick test_gcs_duplicate_alarm_suppression;
          Alcotest.test_case "heartbeat lost, telemetry flowing" `Quick
            test_gcs_heartbeat_lost_while_telemetry_flows;
          Alcotest.test_case "both silent, both alarms" `Quick
            test_gcs_both_silent_raises_both_alarms;
          Alcotest.test_case "corruption alarm" `Quick test_gcs_corruption_alarm;
          Alcotest.test_case "reboot detection" `Quick test_gcs_reboot_detection;
          Alcotest.test_case "noise: corruption, not reboot" `Quick
            test_gcs_noise_corruption_without_reboot_alarm;
          Alcotest.test_case "gyro tracking" `Quick test_gcs_tracks_gyro;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "baseline flight" `Quick test_baseline_flight;
          Alcotest.test_case "gyro truth at GCS" `Quick test_gyro_truth_reaches_gcs;
          Alcotest.test_case "stealthy attack invisible" `Slow test_stealthy_attack_invisible_to_gcs;
          Alcotest.test_case "V1 attack visible" `Slow test_v1_attack_visible_to_gcs;
          Alcotest.test_case "MAVR recovers in flight" `Slow test_mavr_recovers_in_flight;
          Alcotest.test_case "recovery tick delivers telemetry" `Slow
            test_recovery_tick_still_delivers_telemetry;
          Alcotest.test_case "uplink queue order" `Quick test_uplink_queue_preserves_order;
          Alcotest.test_case "MAVR prevents takeover" `Slow test_mavr_prevents_takeover;
          Alcotest.test_case "scenario telemetry" `Slow test_scenario_telemetry;
        ] );
    ]
