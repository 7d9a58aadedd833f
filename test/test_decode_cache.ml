(* Predecode-cache oracle: every instruction the stepper dispatches must
   be the decode of the flash as it is at that moment, on the real
   firmware images and across reflashes (the per-lifetime
   re-randomization path), and a reflash or page write must never leave
   a stale decode behind. *)

module Cpu = Mavr_avr.Cpu
module Opcode = Mavr_avr.Opcode
module Isa = Mavr_avr.Isa
module Device = Mavr_avr.Device
module Image = Mavr_obj.Image
module F = Mavr_firmware

let check_oracle name oracle =
  let steps, mismatch = oracle () in
  Alcotest.(check bool) (name ^ ": instructions stepped") true (steps > 0);
  Alcotest.(check (option string)) (name ^ ": every decode matches live flash") None
    (Option.map
       (fun (pc, cached, live) ->
         Printf.sprintf "word 0x%x dispatched %s, flash holds %s" pc (Isa.to_string cached)
           (Isa.to_string live))
       mismatch)

let test_firmware_profiles_identical () =
  (* Run each toolchain variant of the tiny profile for a full firmware
     slice (boot, MAVLink traffic, telemetry). *)
  List.iter
    (fun (name, build) ->
      let b : F.Build.t = build () in
      let cpu = Cpu.create () in
      let oracle = Helpers.decode_oracle cpu in
      Cpu.load_program cpu b.F.Build.image.Image.code;
      Cpu.uart_send cpu
        (Mavr_mavlink.Frame.encode
           { Mavr_mavlink.Frame.seq = 1; sysid = 255; compid = 0; msgid = 76; payload = "go" });
      ignore (Cpu.run_until_halt cpu ~max_cycles:400_000);
      check_oracle name oracle)
    [
      ("mavr", Helpers.build_mavr);
      ("stock", Helpers.build_stock);
      ("patched", Helpers.build_patched);
    ]

let test_identical_across_reflash_lifetimes () =
  (* Drive one CPU through randomized reflash lifetimes: every generation
     is a different layout of the same image, so the same size, at the
     reflash cadence the MAVR master produces. *)
  let b = Helpers.build_mavr () in
  let cpu = Cpu.create () in
  let oracle = Helpers.decode_oracle cpu in
  Cpu.load_program cpu b.F.Build.image.Image.code;
  for generation = 1 to 4 do
    let r = Mavr_core.Randomize.randomize ~seed:(generation * 31) b.F.Build.image in
    Cpu.load_program cpu r.Image.code;
    ignore (Cpu.run_until_halt cpu ~max_cycles:150_000);
    check_oracle (Printf.sprintf "generation %d" generation) oracle
  done

let test_cache_invalidated_on_load_program () =
  (* Same CPU, two programs: after a reflash the CPU must execute the new
     code, not stale decodes of the old. *)
  let prog insns = String.concat "" (List.map Opcode.encode_bytes insns) in
  let cpu = Cpu.create () in
  Cpu.load_program cpu (prog Isa.[ Ldi (16, 0x11); Break ]);
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "first program ran" 0x11 (Cpu.reg cpu 16);
  Cpu.load_program cpu (prog Isa.[ Ldi (16, 0x22); Break ]);
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "reflash executes new code" 0x22 (Cpu.reg cpu 16)

let test_cache_invalidated_on_flash_page_write () =
  (* A bootloader-style page write must also drop cached decodes. *)
  let prog insns = String.concat "" (List.map Opcode.encode_bytes insns) in
  let cpu = Cpu.create () in
  let page = (Cpu.device cpu).Device.flash_page_bytes in
  let pad code = code ^ String.make (page - String.length code) '\xff' in
  Cpu.load_program cpu (pad (prog Isa.[ Ldi (16, 0x11); Break ]));
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "first program ran" 0x11 (Cpu.reg cpu 16);
  Cpu.flash_write_page cpu ~page_addr:0
    (pad (prog Isa.[ Ldi (16, 0x33); Break ]));
  Cpu.reset cpu;
  ignore (Cpu.run cpu ~max_cycles:100);
  Alcotest.(check int) "page write executes new code" 0x33 (Cpu.reg cpu 16)

let () =
  Alcotest.run "decode-cache"
    [
      ( "equivalence",
        [
          Alcotest.test_case "firmware profiles identical" `Quick
            test_firmware_profiles_identical;
          Alcotest.test_case "identical across reflash lifetimes" `Quick
            test_identical_across_reflash_lifetimes;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "load_program invalidates" `Quick
            test_cache_invalidated_on_load_program;
          Alcotest.test_case "flash page write invalidates" `Quick
            test_cache_invalidated_on_flash_page_write;
        ] );
    ]
