module Cpu = Mavr_avr.Cpu
module Image = Mavr_obj.Image
module Master = Mavr_core.Master
module Serial = Mavr_core.Serial
module Rop = Mavr_core.Rop

let image () = (Helpers.build_mavr ()).image

let fresh_master ?config () =
  let m = Master.create ?config () in
  Master.provision m (image ());
  m

let test_provision_stores_hex () =
  let m = fresh_master () in
  let hex = Master.stored_hex m in
  Alcotest.(check bool) "hex text stored" true (String.length hex > 0);
  Alcotest.(check char) "intel hex records" ':' hex.[0];
  Alcotest.(check string) "stored verbatim" (Mavr_obj.Symtab.to_hex (image ())) hex;
  (* The stored file round-trips to the original image. *)
  let img = Mavr_obj.Symtab.of_hex hex in
  Alcotest.(check string) "image preserved" (image ()).Image.code img.Image.code

let test_boot_randomizes () =
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  Alcotest.(check int) "one boot" 1 (Master.boots m);
  Alcotest.(check int) "one reflash" 1 (Master.reflashes m);
  let cur = Master.current_image m in
  Alcotest.(check bool) "layout differs from stored" true
    (Mavr_core.Randomize.layout_distance (image ()) cur > 0);
  (* The booted application actually runs. *)
  ignore (Cpu.run app ~max_cycles:100_000);
  Alcotest.(check bool) "app alive" true (Cpu.watchdog_feeds app > 10)

let test_boot_schedule () =
  (* randomize_every_boots = 3: boots 1 and 4 randomize, 2-3 reuse. *)
  let config = { Master.default_config with randomize_every_boots = 3 } in
  let m = fresh_master ~config () in
  let app = Cpu.create () in
  let layouts = ref [] in
  for _ = 1 to 4 do
    Master.boot m ~app;
    layouts := (Master.current_image m).Image.code :: !layouts
  done;
  match List.rev !layouts with
  | [ l1; l2; l3; l4 ] ->
      Alcotest.(check bool) "boot2 reuses boot1 layout" true (l1 = l2);
      Alcotest.(check bool) "boot3 reuses" true (l2 = l3);
      Alcotest.(check bool) "boot4 re-randomizes" true (l3 <> l4)
  | _ -> Alcotest.fail "expected 4 boots"

let test_unprovisioned_boot_fails () =
  let m = Master.create () in
  let app = Cpu.create () in
  match Master.boot m ~app with
  | () -> Alcotest.fail "boot without provisioning must fail"
  | exception Invalid_argument _ -> ()

(* The master decodes the HEX once, at provisioning, so a HEX it could
   not decode is refused there, not at the first boot, and the external
   flash keeps what it held. *)
let test_provision_refuses_undecodable () =
  let m = fresh_master () in
  let before = Master.stored_hex m in
  let img = image () in
  let bad = { img with Image.funptr_locs = [ String.length img.Image.code ] } in
  (match Master.provision m bad with
  | () -> Alcotest.fail "provision must refuse a HEX the master cannot decode"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "previous HEX kept" before (Master.stored_hex m);
  let app = Cpu.create () in
  Master.boot m ~app;
  Alcotest.(check int) "boots from the previous provision" 1 (Master.boots m)

(* Provisioning before every session makes the master decode the stored
   HEX afresh each time; boots, cached-layout boots and recoveries must
   produce the same layouts as from the one decode. *)
let test_decode_once_same_layouts () =
  let config = { Master.default_config with randomize_every_boots = 2 } in
  let sessions ~reprovision =
    let m = fresh_master ~config () in
    let app = Cpu.create () in
    List.map
      (fun recover ->
        if reprovision then Master.provision m (image ());
        if recover then begin
          Cpu.force_halt app (Cpu.Wild_pc 0);
          ignore (Master.check_and_recover m ~app)
        end
        else Master.boot m ~app;
        Image.fingerprint (Master.current_image m))
      [ false; false; true; false; true; false ]
  in
  let once = sessions ~reprovision:false in
  Alcotest.(check (list int)) "same layouts" (sessions ~reprovision:true) once;
  Alcotest.(check bool) "layouts change" true (List.length (List.sort_uniq compare once) >= 4)

let test_detects_halt_and_rerandomizes () =
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  let gen1 = (Master.current_image m).Image.code in
  ignore (Cpu.run app ~max_cycles:50_000);
  Cpu.force_halt app (Cpu.Wild_pc 0x1234);
  Alcotest.(check bool) "detected" true (Master.check_and_recover m ~app);
  Alcotest.(check int) "attack counted" 1 (Master.attacks_detected m);
  Alcotest.(check bool) "new layout installed" true ((Master.current_image m).Image.code <> gen1);
  (* The application restarts and runs on the new binary. *)
  ignore (Cpu.run app ~max_cycles:100_000);
  Alcotest.(check bool) "recovered" true (Cpu.watchdog_feeds app > 10)

let test_detects_feed_silence () =
  let config = { Master.default_config with watchdog_window_cycles = 10_000 } in
  let m = fresh_master ~config () in
  let app = Cpu.create () in
  Master.boot m ~app;
  ignore (Cpu.run app ~max_cycles:20_000);
  (* Freeze the firmware in a busy loop by pointing its PC at the
     bad-irq spin (an rjmp-to-self, bytes ff cf) — no feeds, no halt.
     Symbol names do not survive the HEX round-trip, so locate it by
     its byte pattern, as the randomized image would be searched. *)
  let code = (Master.current_image m).Image.code in
  let rec find_spin i =
    if i + 1 >= String.length code then Alcotest.fail "no rjmp-self found"
    else if Char.code code.[i] = 0xFF && Char.code code.[i + 1] = 0xCF then i
    else find_spin (i + 2)
  in
  let spin_addr = find_spin ((Master.current_image m).Image.text_start) in
  Cpu.set_pc app (spin_addr / 2);
  ignore (Cpu.run app ~max_cycles:50_000);
  Alcotest.(check bool) "silence detected" true (Master.check_and_recover m ~app);
  Alcotest.(check int) "one detection" 1 (Master.attacks_detected m)

let test_streaming_stats_exposed () =
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  let img_pages = (Image.size (Master.current_image m) + 255) / 256 in
  Alcotest.(check int) "pages per programming" img_pages (Master.pages_programmed m);
  Alcotest.(check bool) "working set recorded" true (Master.peak_working_set m > 0);
  Alcotest.(check bool) "working set fits the 1284P SRAM" true
    (Master.peak_working_set m < Mavr_avr.Device.atmega1284p.sram_bytes)

let test_no_crashloop_after_recovery () =
  (* Regression: cycle-anchored peripheral state (UART busy-until, the
     watchdog feed timestamp) must restart with the clock on reset, or a
     recovered application spins on a "busy" transmitter for an entire
     previous lifetime and the master detects silence forever. *)
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  ignore (Cpu.run app ~max_cycles:300_000) (* plenty of telemetry sent *);
  Cpu.force_halt app (Cpu.Wild_pc 0);
  ignore (Master.check_and_recover m ~app);
  let detections = Master.supervise m ~app ~cycles:300_000 in
  Alcotest.(check int) "no further detections" 0 detections;
  Alcotest.(check bool) "feeds are fresh" true
    (Cpu.cycles app - Cpu.last_feed_cycles app < 10_000)

let test_supervise_counts () =
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  let detected = Master.supervise m ~app ~cycles:200_000 in
  Alcotest.(check int) "healthy run has no detections" 0 detected

let test_supervised_attack_recovery () =
  (* End-to-end §VII-A: stealthy attack vs randomized binary, supervised. *)
  let b, ti, obs = Helpers.attack_target () in
  ignore b;
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  ignore (Cpu.run app ~max_cycles:60_000);
  List.iter (Cpu.uart_send app)
    (Rop.v2_stealthy ti obs ~writes:[ Rop.write_u16 obs ~addr:Mavr_firmware.Layout.gyro_cfg ~value:0x4000 ~neighbour:0 ]);
  ignore (Master.supervise m ~app ~cycles:3_000_000);
  let cfg =
    Cpu.data_peek app Mavr_firmware.Layout.gyro_cfg
    lor (Cpu.data_peek app (Mavr_firmware.Layout.gyro_cfg + 1) lsl 8)
  in
  Alcotest.(check bool) "attack did not succeed" false (cfg = 0x4000);
  Alcotest.(check bool) "app healthy at the end" true (Cpu.halted app = None)

let test_events_recorded () =
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  Cpu.force_halt app (Cpu.Wild_pc 2);
  ignore (Master.check_and_recover m ~app);
  let events = Master.events m in
  Alcotest.(check int) "boot + detect + reflash" 3 (List.length events);
  match events with
  | [ Master.Booted _; Master.Attack_detected _; Master.Reflashed _ ] -> ()
  | _ -> Alcotest.fail "unexpected event sequence"

(* ---- Serial / Table II timing model ---- *)

let test_prototype_throughput () =
  (* The paper's 11 bytes per millisecond at 115200 baud. *)
  let bpm = Serial.bytes_per_ms Serial.prototype in
  Alcotest.(check bool) "11-12 bytes/ms" true (bpm > 11.0 && bpm < 12.0)

let test_table2_numbers () =
  (* Table II: transfer-bound startup overhead from the MAVR code sizes. *)
  List.iter
    (fun (bytes, expected_ms) ->
      let ms = Serial.programming_ms Serial.prototype bytes in
      let err = Float.abs (ms -. expected_ms) /. expected_ms in
      if err > 0.01 then
        Alcotest.failf "%d bytes: %.0f ms, paper %.0f ms (%.1f%% off)" bytes ms expected_ms
          (100. *. err))
    [ (221294, 19209.0); (244292, 21206.0); (177556, 15412.0) ]

let test_production_estimate () =
  (* §VII-B1: on a mega-baud production PCB the bottleneck becomes the
     internal flash writes — a conservative 4 s for a full part. *)
  let ms = Serial.programming_ms Serial.production (256 * 1024) in
  Alcotest.(check bool) "about 4 seconds" true (ms > 3000.0 && ms < 5000.0);
  Alcotest.(check bool) "much faster than prototype" true
    (ms < Serial.programming_ms Serial.prototype (256 * 1024) /. 4.0)

let test_master_overhead_uses_link () =
  let m = fresh_master () in
  let app = Cpu.create () in
  Master.boot m ~app;
  let expected = Serial.programming_ms Serial.prototype (Image.size (Master.current_image m)) in
  Alcotest.(check (float 0.01)) "overhead recorded" expected (Master.last_overhead_ms m)

let () =
  Alcotest.run "master"
    [
      ( "provision-boot",
        [
          Alcotest.test_case "provision stores hex" `Quick test_provision_stores_hex;
          Alcotest.test_case "boot randomizes" `Quick test_boot_randomizes;
          Alcotest.test_case "boot schedule" `Quick test_boot_schedule;
          Alcotest.test_case "streaming stats" `Quick test_streaming_stats_exposed;
          Alcotest.test_case "unprovisioned boot fails" `Quick test_unprovisioned_boot_fails;
          Alcotest.test_case "undecodable HEX refused at provision" `Quick
            test_provision_refuses_undecodable;
          Alcotest.test_case "decode once, same layouts" `Quick test_decode_once_same_layouts;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "halt detection" `Quick test_detects_halt_and_rerandomizes;
          Alcotest.test_case "no crashloop after recovery" `Quick test_no_crashloop_after_recovery;
          Alcotest.test_case "feed-silence detection" `Quick test_detects_feed_silence;
          Alcotest.test_case "healthy supervision" `Quick test_supervise_counts;
          Alcotest.test_case "supervised attack recovery" `Quick test_supervised_attack_recovery;
          Alcotest.test_case "events recorded" `Quick test_events_recorded;
        ] );
      ( "timing",
        [
          Alcotest.test_case "prototype throughput" `Quick test_prototype_throughput;
          Alcotest.test_case "Table II numbers" `Quick test_table2_numbers;
          Alcotest.test_case "production estimate" `Quick test_production_estimate;
          Alcotest.test_case "master overhead" `Quick test_master_overhead_uses_link;
        ] );
    ]
