module Cpu = Mavr_avr.Cpu
module Io = Mavr_avr.Device.Io
module Image = Mavr_obj.Image
module F = Mavr_firmware
module Frame = Mavr_mavlink.Frame

let test_profiles_table1 () =
  (* Table I: number of functions per application. *)
  List.iter
    (fun ((p : F.Profile.t), expected) ->
      let b = F.Build.build p F.Profile.mavr in
      Alcotest.(check int) p.name expected (F.Build.function_count b))
    [ (F.Profile.arduplane, 917); (F.Profile.arducopter, 1030); (F.Profile.ardurover, 800) ]

let test_stock_sizes_table3 () =
  (* Table III: stock code sizes calibrate to the paper's bytes. *)
  List.iter
    (fun ((p : F.Profile.t), expected) ->
      let b = F.Build.build p F.Profile.stock in
      Alcotest.(check int) p.name expected (F.Build.code_size b))
    [ (F.Profile.arduplane, 221608); (F.Profile.arducopter, 244532); (F.Profile.ardurover, 177870) ]

let test_mavr_size_delta_small () =
  let stock, mavr = F.Build.build_pair F.Profile.ardurover in
  let delta = abs (F.Build.code_size mavr - F.Build.code_size stock) in
  (* Paper: the toolchain change moves code size by well under 1%. *)
  Alcotest.(check bool) "delta under 0.5%" true
    (float_of_int delta /. float_of_int (F.Build.code_size stock) < 0.005)

let test_deterministic_builds () =
  let a = F.Build.build Helpers.tiny_profile F.Profile.mavr in
  let b = F.Build.build Helpers.tiny_profile F.Profile.mavr in
  Alcotest.(check bool) "same bytes" true (a.image.Image.code = b.image.Image.code)

let test_boot_feeds_watchdog () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  Alcotest.(check bool) "watchdog fed" true (Cpu.watchdog_feeds cpu > 10)

let test_telemetry_stream_valid () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  let r, frames, stats = Helpers.telemetry cpu ~cycles:400_000 in
  Alcotest.(check string) "still running" "running" (Helpers.run_result_to_string r);
  Alcotest.(check bool) "frames streamed" true (List.length frames > 5);
  Alcotest.(check int) "no CRC errors" 0 stats.crc_errors;
  Alcotest.(check int) "no dropped bytes" 0 stats.bytes_dropped;
  Alcotest.(check bool) "heartbeats present" true
    (List.exists (fun (f : Frame.t) -> f.msgid = 0) frames);
  Alcotest.(check bool) "raw_imu present" true
    (List.exists (fun (f : Frame.t) -> f.msgid = 27) frames)

let test_gyro_flows_to_telemetry () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot ~gyro:0x0BAD b.image in
  let _, frames, _ = Helpers.telemetry cpu ~cycles:400_000 in
  match List.find_opt (fun (f : Frame.t) -> f.msgid = 27) frames with
  | Some f -> (
      match Mavr_mavlink.Messages.Raw_imu.decode f.payload with
      | Ok imu -> Alcotest.(check int) "xgyro" 0x0BAD (imu.xgyro land 0xFFFF)
      | Error e -> Alcotest.fail e)
  | None -> Alcotest.fail "no RAW_IMU frame"

let test_param_set_roundtrip () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  let payload = "\xDE\xAD\xBF" ^ String.make 13 '\x00' in
  Cpu.uart_send cpu (Frame.encode { Frame.seq = 0; sysid = 255; compid = 0; msgid = 23; payload });
  ignore (Cpu.run cpu ~max_cycles:400_000);
  let pa = F.Layout.param_area in
  Alcotest.(check int) "byte 1" 0xDE (Cpu.data_peek cpu (pa + 1));
  Alcotest.(check int) "byte 2" 0xAD (Cpu.data_peek cpu (pa + 2));
  Alcotest.(check int) "byte 3" 0xBF (Cpu.data_peek cpu (pa + 3))

let test_command_long_bounded_copy () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  let payload = String.init 255 (fun i -> Char.chr (i land 0xFF)) in
  Cpu.uart_send cpu (Frame.encode { Frame.seq = 0; sysid = 255; compid = 0; msgid = 76; payload });
  let r = Cpu.run cpu ~max_cycles:600_000 in
  Alcotest.(check string) "no crash from 255-byte command" "running"
    (Helpers.run_result_to_string r);
  (* only 16 bytes copied *)
  Alcotest.(check int) "cmd[0]" 0 (Cpu.data_peek cpu F.Layout.cmd_area);
  Alcotest.(check int) "cmd[15]" 15 (Cpu.data_peek cpu (F.Layout.cmd_area + 15))

let test_bad_crc_frame_rejected () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  let wire = Frame.encode { Frame.seq = 0; sysid = 255; compid = 0; msgid = 23;
                            payload = "\x99\x99\x99" } in
  let bad = Bytes.of_string wire in
  Bytes.set bad (Bytes.length bad - 1) '\x00';
  Cpu.uart_send cpu (Bytes.to_string bad);
  ignore (Cpu.run cpu ~max_cycles:400_000);
  Alcotest.(check int) "param area untouched" 0 (Cpu.data_peek cpu (F.Layout.param_area + 1))

let test_heartbeat_uplink_recorded () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  Alcotest.(check int) "no beat yet" 0 (Cpu.data_peek cpu F.Layout.gcs_beat);
  let hb = Mavr_mavlink.Messages.Heartbeat.encode
      { typ = 6; autopilot = 8; base_mode = 0; custom_mode = 0; system_status = 4 } in
  Cpu.uart_send cpu (Frame.encode { Frame.seq = 0; sysid = 255; compid = 0; msgid = 0; payload = hb });
  ignore (Cpu.run cpu ~max_cycles:300_000);
  Alcotest.(check int) "gcs heartbeat recorded" 1 (Cpu.data_peek cpu F.Layout.gcs_beat)

let test_gyro_cfg_offset_applied () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot ~gyro:0x0100 b.image in
  Cpu.data_poke cpu F.Layout.gyro_cfg 0x10;
  Cpu.data_poke cpu (F.Layout.gyro_cfg + 1) 0x20;
  ignore (Cpu.run cpu ~max_cycles:100_000);
  let v = Cpu.data_peek cpu F.Layout.gyro_val lor (Cpu.data_peek cpu (F.Layout.gyro_val + 1) lsl 8) in
  Alcotest.(check int) "raw + offset" ((0x0100 + 0x2010) land 0xFFFF) v

let test_vulnerable_vs_patched () =
  (* The patched toolchain clamps the copy: a 200-byte PARAM_SET must not
     take over. *)
  let vuln = Helpers.build_mavr () in
  let patched = Helpers.build_patched () in
  let attack_payload = String.make 200 '\xF4' in
  let frame = Frame.encode { Frame.seq = 0; sysid = 255; compid = 0; msgid = 23; payload = attack_payload } in
  let crash image =
    let cpu = Helpers.boot image in
    Cpu.uart_send cpu frame;
    match Cpu.run cpu ~max_cycles:1_000_000 with `Halted _ -> true | `Budget_exhausted -> false
  in
  Alcotest.(check bool) "vulnerable build crashes" true (crash vuln.image);
  Alcotest.(check bool) "patched build survives" false (crash patched.image)

let test_vtable_dispatch_runs () =
  (* The vtable entries point at filler functions; dispatch must not
     crash over a long run (exercises icall through RAM pointers). *)
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  let r = Cpu.run cpu ~max_cycles:1_000_000 in
  Alcotest.(check string) "long run stable" "running" (Helpers.run_result_to_string r)

let test_data_init_copied () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  (* The RAM vtable copy must match the flash initializer. *)
  let flash_off = Mavr_asm.Assembler.label_value b.asm "__data_init" in
  let n = 2 * F.Layout.vtable_entries in
  let flash = String.sub b.image.Image.code flash_off n in
  let ram = Cpu.stack_slice cpu ~pos:F.Layout.vtable_vma ~len:n in
  Alcotest.(check string) "vtable copied to RAM" flash ram

let test_runtime_function_count () =
  (* Every runtime-kernel function is in the build, and the generated
     filler makes up the rest of the profile's function count. *)
  let b = Helpers.build_mavr () in
  Alcotest.(check int) "profile function count" Helpers.tiny_profile.F.Profile.n_functions
    (F.Build.function_count b);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " built") true
        (List.exists (fun (s : Image.symbol) -> s.name = name) b.image.Image.symbols))
    F.Runtime.function_names

let () =
  Alcotest.run "firmware"
    [
      ( "profiles",
        [
          Alcotest.test_case "Table I function counts" `Slow test_profiles_table1;
          Alcotest.test_case "Table III stock sizes" `Slow test_stock_sizes_table3;
          Alcotest.test_case "toolchain delta small" `Slow test_mavr_size_delta_small;
          Alcotest.test_case "builds deterministic" `Quick test_deterministic_builds;
          Alcotest.test_case "runtime function count" `Quick test_runtime_function_count;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "boot feeds watchdog" `Quick test_boot_feeds_watchdog;
          Alcotest.test_case "telemetry stream valid" `Quick test_telemetry_stream_valid;
          Alcotest.test_case "gyro flows to telemetry" `Quick test_gyro_flows_to_telemetry;
          Alcotest.test_case "PARAM_SET roundtrip" `Quick test_param_set_roundtrip;
          Alcotest.test_case "COMMAND_LONG bounded" `Quick test_command_long_bounded_copy;
          Alcotest.test_case "bad CRC rejected" `Quick test_bad_crc_frame_rejected;
          Alcotest.test_case "uplink heartbeat" `Quick test_heartbeat_uplink_recorded;
          Alcotest.test_case "gyro config offset" `Quick test_gyro_cfg_offset_applied;
          Alcotest.test_case "vulnerable vs patched" `Quick test_vulnerable_vs_patched;
          Alcotest.test_case "vtable dispatch stable" `Quick test_vtable_dispatch_runs;
          Alcotest.test_case "data initializer copied" `Quick test_data_init_copied;
        ] );
    ]
