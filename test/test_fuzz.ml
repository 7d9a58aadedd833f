(* Robustness fuzzing: the firmware must survive arbitrary link garbage
   (the only intentional weakness is the PARAM_SET length check), and the
   host-side MAVLink parser must be invariant to stream chunking. *)

module Cpu = Mavr_avr.Cpu
module Frame = Mavr_mavlink.Frame
module Parser = Mavr_mavlink.Parser
module Rng = Mavr_prng.Splitmix

let prop_firmware_survives_garbage =
  QCheck.Test.make ~name:"firmware survives random uplink garbage" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let b = Helpers.build_mavr () in
      let cpu = Helpers.boot b.image in
      let rng = Rng.create ~seed in
      let garbage = String.init 600 (fun _ -> Char.chr (Rng.int rng 256)) in
      Cpu.uart_send cpu garbage;
      match Cpu.run cpu ~max_cycles:2_000_000 with
      | `Budget_exhausted -> Cpu.watchdog_feeds cpu > 100
      | `Halted _ -> false)

let prop_firmware_survives_valid_random_frames =
  (* Valid CRC, random msgid/payload (excluding the one intentionally
     vulnerable path: PARAM_SET with an oversized payload). *)
  QCheck.Test.make ~name:"firmware survives valid random frames" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let b = Helpers.build_mavr () in
      let cpu = Helpers.boot b.image in
      let rng = Rng.create ~seed in
      for _ = 1 to 6 do
        let msgid = Rng.int rng 256 in
        let len = Rng.int rng 256 in
        let len = if msgid = 23 then min len 60 else len in
        let payload = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
        Cpu.uart_send cpu
          (Frame.encode { Frame.seq = Rng.int rng 256; sysid = 255; compid = 0; msgid; payload })
      done;
      match Cpu.run cpu ~max_cycles:3_000_000 with
      | `Budget_exhausted -> true
      | `Halted _ -> false)

let prop_parser_chunking_invariant =
  QCheck.Test.make ~name:"parser invariant to stream chunking" ~count:60
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 9))
    (fun (seed, nframes) ->
      let rng = Rng.create ~seed in
      let frames =
        List.init nframes (fun k ->
            let len = Rng.int rng 40 in
            { Frame.seq = k; sysid = 1; compid = 1; msgid = Rng.int rng 256;
              payload = String.init len (fun _ -> Char.chr (Rng.int rng 256)) })
      in
      let stream = String.concat "" (List.map Frame.encode frames) in
      (* Reference: one shot. *)
      let p1 = Parser.create () in
      let whole = Parser.feed p1 stream in
      (* Random chunking. *)
      let p2 = Parser.create () in
      let out = ref [] in
      let pos = ref 0 in
      while !pos < String.length stream do
        let n = min (1 + Rng.int rng 17) (String.length stream - !pos) in
        out := !out @ Parser.feed p2 (String.sub stream !pos n);
        pos := !pos + n
      done;
      whole = !out && List.length whole = nframes)

let prop_parser_never_raises =
  QCheck.Test.make ~name:"parser total on arbitrary bytes" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 400))
    (fun junk ->
      let p = Parser.create () in
      ignore (Parser.feed p junk);
      true)

let prop_decode_cache_oracle =
  (* The predecode cache must never dispatch a stale decode: random code
     (dense AVR encodings make random words mostly-valid instructions,
     with illegal/wild halts mixed in) is stepped under the decode
     oracle.  Each round reflashes fresh random code of the same size,
     then rewrites the first page and runs from reset again, so a cache
     that survives either kind of flash write dispatches a decode the
     flash no longer holds. *)
  QCheck.Test.make ~name:"decode cache matches live flash" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let cpu = Cpu.create () in
      let oracle = Helpers.decode_oracle cpu in
      let random n = String.init n (fun _ -> Char.chr (Rng.int rng 256)) in
      let run () =
        Cpu.reset cpu;
        let rec go k = if k > 0 && Cpu.halted cpu = None then (Cpu.step cpu; go (k - 1)) in
        go 200
      in
      for _round = 1 to 3 do
        Cpu.load_program cpu (random 512);
        run ();
        Cpu.flash_write_page cpu ~page_addr:0
          (random (Cpu.device cpu).Mavr_avr.Device.flash_page_bytes);
        run ()
      done;
      snd (oracle ()) = None)

let test_zero_length_param_set_harmless () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  Cpu.uart_send cpu
    (Frame.encode { Frame.seq = 0; sysid = 255; compid = 0; msgid = 23; payload = "" });
  match Cpu.run cpu ~max_cycles:1_000_000 with
  | `Budget_exhausted -> ()
  | `Halted h -> Alcotest.failf "crashed on empty PARAM_SET: %s" (Format.asprintf "%a" Cpu.pp_halt h)

let test_interleaved_truncated_frames () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  let good =
    Frame.encode { Frame.seq = 1; sysid = 255; compid = 0; msgid = 76; payload = "ok" }
  in
  (* A truncated frame head swallows the next frame's bytes as its own
     payload/CRC (there is no framing gap on a byte stream) and is then
     rejected on checksum; the frame after that parses cleanly. *)
  Cpu.uart_send cpu (String.sub good 0 5);
  Cpu.uart_send cpu good;
  Cpu.uart_send cpu good;
  (match Cpu.run cpu ~max_cycles:1_500_000 with
  | `Budget_exhausted -> ()
  | `Halted _ -> Alcotest.fail "crashed on truncated frame");
  Alcotest.(check int) "recovered on the following frame" (Char.code 'o')
    (Cpu.data_peek cpu Mavr_firmware.Layout.cmd_area)

let test_wrong_crc_extra_rejected_by_firmware () =
  let b = Helpers.build_mavr () in
  let cpu = Helpers.boot b.image in
  (* PARAM_SET encoded with the wrong CRC_EXTRA: firmware must drop it. *)
  Cpu.uart_send cpu
    (Helpers.encode_with_crc_extra ~crc_extra:99
       { Frame.seq = 0; sysid = 255; compid = 0; msgid = 23; payload = "\xEE\xEE\xEE" });
  ignore (Cpu.run cpu ~max_cycles:1_000_000);
  Alcotest.(check int) "param area untouched" 0
    (Cpu.data_peek cpu (Mavr_firmware.Layout.param_area + 1))

let () =
  Alcotest.run "fuzz"
    [
      ( "firmware",
        [
          Helpers.qtest prop_firmware_survives_garbage;
          Helpers.qtest prop_firmware_survives_valid_random_frames;
          Alcotest.test_case "zero-length PARAM_SET" `Quick test_zero_length_param_set_harmless;
          Alcotest.test_case "interleaved truncated frames" `Quick test_interleaved_truncated_frames;
          Alcotest.test_case "wrong CRC_EXTRA rejected" `Quick test_wrong_crc_extra_rejected_by_firmware;
        ] );
      ( "parser",
        [
          Helpers.qtest prop_parser_chunking_invariant;
          Helpers.qtest prop_parser_never_raises;
        ] );
      ("decode-cache", [ Helpers.qtest prop_decode_cache_oracle ]);
    ]
