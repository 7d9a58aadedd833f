(* Coverage for the host-side inspection tools: the linear-sweep
   disassembler, the Fig. 6 stack snapshot, and the serial timing model's
   edges. *)

module Cpu = Mavr_avr.Cpu
module Isa = Mavr_avr.Isa
module Opcode = Mavr_avr.Opcode
module Disasm = Mavr_avr.Disasm
module Trace = Mavr_avr.Trace
module Serial = Mavr_core.Serial

let program insns = String.concat "" (List.map Opcode.encode_bytes insns)

(* Naive substring check (avoids a Str dependency). *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_sweep_addresses_and_sizes () =
  let code = program Isa.[ Nop; Call 7; Ldi (16, 1); Ret ] in
  let lines = Disasm.sweep code in
  let expect = [ (0, 2); (2, 4); (6, 2); (8, 2) ] in
  Alcotest.(check int) "line count" (List.length expect) (List.length lines);
  List.iter2
    (fun (addr, size) (l : Disasm.line) ->
      Alcotest.(check int) "addr" addr l.byte_addr;
      Alcotest.(check int) "size" size l.size_bytes)
    expect lines

let test_sweep_window () =
  let code = program Isa.[ Nop; Nop; Push 1; Pop 1; Ret ] in
  let lines = Disasm.sweep ~pos:4 ~len:4 code in
  Alcotest.(check int) "two instructions in window" 2 (List.length lines);
  match lines with
  | [ a; b ] ->
      Alcotest.(check bool) "push decoded" true (a.insn = Isa.Push 1);
      Alcotest.(check bool) "pop decoded" true (b.insn = Isa.Pop 1)
  | _ -> Alcotest.fail "unexpected shape"

let test_listing_format () =
  let code = program Isa.[ Out (0x3E, 29); Ret ] in
  let text = Disasm.listing code in
  Alcotest.(check bool) "contains mnemonic" true (contains text "out 0x3e, r29")

let test_snapshot_contents () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (program Isa.[ Break ]);
  Cpu.data_poke cpu 0x700 0xAB;
  Cpu.data_poke cpu 0x701 0xCD;
  let s = Trace.snapshot cpu ~label:"test" ~window_start:0x700 ~window_len:2 in
  Alcotest.(check string) "bytes" "\xAB\xCD" s.bytes;
  let rendered = Format.asprintf "%a" Trace.pp_snapshot s in
  Alcotest.(check bool) "renders address" true (contains rendered "0x000700");
  Alcotest.(check bool) "renders hex bytes" true (contains rendered "0xAB 0xCD")

(* ---- serial model edges ---- *)

let test_serial_zero_bytes () =
  Alcotest.(check (float 0.001)) "no bytes, no transfer time" 0.0
    (Serial.transfer_ms Serial.prototype 0)

let test_serial_monotone () =
  let t1 = Serial.programming_ms Serial.prototype 1000 in
  let t2 = Serial.programming_ms Serial.prototype 2000 in
  Alcotest.(check bool) "monotone in size" true (t2 > t1)

let test_serial_page_rounding () =
  (* 1 byte still programs a whole page. *)
  let one = Serial.flash_ms Serial.prototype 1 in
  let page = Serial.flash_ms Serial.prototype Serial.prototype.page_bytes in
  Alcotest.(check (float 0.001)) "page granularity" page one

let test_serial_crossover () =
  (* Somewhere between the prototype and production baud rates the
     bottleneck flips from the wire to the flash writes. *)
  let bytes = 256 * 1024 in
  let wire_bound = Serial.transfer_ms Serial.prototype bytes in
  let flash_bound = Serial.flash_ms Serial.prototype bytes in
  Alcotest.(check bool) "prototype is wire-bound" true (wire_bound > flash_bound);
  let wire_prod = Serial.transfer_ms Serial.production bytes in
  Alcotest.(check bool) "production is flash-bound" true (wire_prod < flash_bound)

let () =
  Alcotest.run "disasm-trace"
    [
      ( "disasm",
        [
          Alcotest.test_case "sweep addresses/sizes" `Quick test_sweep_addresses_and_sizes;
          Alcotest.test_case "windowed sweep" `Quick test_sweep_window;
          Alcotest.test_case "listing format" `Quick test_listing_format;
        ] );
      ( "trace",
        [
          Alcotest.test_case "snapshot contents" `Quick test_snapshot_contents;
        ] );
      ( "serial",
        [
          Alcotest.test_case "zero bytes" `Quick test_serial_zero_bytes;
          Alcotest.test_case "monotone" `Quick test_serial_monotone;
          Alcotest.test_case "page rounding" `Quick test_serial_page_rounding;
          Alcotest.test_case "wire/flash crossover" `Quick test_serial_crossover;
        ] );
    ]
