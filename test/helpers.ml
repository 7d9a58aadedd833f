(* Shared fixtures for the test suites.  Firmware builds are cached so
   the many suites that need an image do not re-run code generation. *)

module Cpu = Mavr_avr.Cpu
module Io = Mavr_avr.Device.Io
module Image = Mavr_obj.Image

let tiny_profile = Mavr_firmware.Profile.tiny ~n:120 ~seed:99

let tiny_mavr =
  lazy (Mavr_firmware.Build.build tiny_profile Mavr_firmware.Profile.mavr)

let tiny_stock =
  lazy (Mavr_firmware.Build.build tiny_profile Mavr_firmware.Profile.stock)

let tiny_patched =
  lazy (Mavr_firmware.Build.build tiny_profile Mavr_firmware.Profile.patched)

let build_mavr () = Lazy.force tiny_mavr
let build_stock () = Lazy.force tiny_stock
let build_patched () = Lazy.force tiny_patched

(* Boot an image and run past startup. *)
let boot ?(gyro = 0x1234) (image : Image.t) =
  let cpu = Cpu.create () in
  Cpu.load_program cpu image.code;
  Cpu.io_poke cpu Io.gyro_lo (gyro land 0xFF);
  Cpu.io_poke cpu Io.gyro_hi ((gyro lsr 8) land 0xFF);
  ignore (Cpu.run cpu ~max_cycles:60_000);
  cpu

let attack_target () =
  let b = build_mavr () in
  let ti = Mavr_core.Rop.analyze b in
  let obs = Mavr_core.Rop.observe ti in
  (b, ti, obs)

let assert_ok = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "expected Ok, got Error %S" m

let run_result_to_string = function
  | `Halted h -> Format.asprintf "halt(%a)" Cpu.pp_halt h
  | `Budget_exhausted -> "running"

(* Collect parsed telemetry after running for a cycle budget. *)
let telemetry cpu ~cycles =
  ignore (Cpu.uart_take_tx cpu);
  let r = Cpu.run cpu ~max_cycles:cycles in
  let parser = Mavr_mavlink.Parser.create () in
  let frames = Mavr_mavlink.Parser.feed parser (Cpu.uart_take_tx cpu) in
  (r, frames, Mavr_mavlink.Parser.stats parser)

(* [f]'s wire bytes with the checksum taken over [crc_extra] in place of
   the catalog's CRC_EXTRA byte: a frame from a sender that disagrees
   with the receiver's message catalog. *)
let encode_with_crc_extra ~crc_extra f =
  let module Crc = Mavr_mavlink.Crc in
  let wire = Mavr_mavlink.Frame.encode f in
  let n = String.length wire in
  let body = String.sub wire 0 (n - 2) in
  let crc =
    Crc.value (Crc.accumulate (Crc.accumulate_string Crc.init (String.sub body 1 (n - 3))) crc_extra)
  in
  body ^ String.init 2 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xFF))

let qtest = QCheck_alcotest.to_alcotest

(* The predecode-cache oracle.  It turns superblocks off, so every
   instruction is stepped, and taps each step: the decode the stepper
   dispatches at a pc must be the decode of the flash as it is at that
   moment.  The returned function reads [(steps, first mismatch)], the
   mismatch as (pc, dispatched, live). *)
let decode_oracle cpu =
  let word pc = Cpu.flash_byte cpu (2 * pc) lor (Cpu.flash_byte cpu ((2 * pc) + 1) lsl 8) in
  let steps = ref 0 and mismatch = ref None in
  Cpu.set_superblocks cpu false;
  Cpu.set_block_tap cpu
    ~on_block:(fun _ _ -> ())
    ~on_step:(fun pc insn ->
      incr steps;
      let live = fst (Mavr_avr.Decode.decode (word pc) (word (pc + 1))) in
      if insn <> live && !mismatch = None then mismatch := Some (pc, insn, live));
  fun () -> (!steps, !mismatch)
