module Cpu = Mavr_avr.Cpu
module Isa = Mavr_avr.Isa
module Opcode = Mavr_avr.Opcode
module Device = Mavr_avr.Device

(* Assemble a raw instruction list (no labels) and load it. *)
let load insns =
  let cpu = Cpu.create () in
  let code = String.concat "" (List.map Opcode.encode_bytes insns) in
  Cpu.load_program cpu code;
  cpu

let run_all cpu = ignore (Cpu.run cpu ~max_cycles:100_000)

let check_reg cpu r expected =
  Alcotest.(check int) (Printf.sprintf "r%d" r) expected (Cpu.reg cpu r)

let test_ldi_mov_add () =
  let cpu = load Isa.[ Ldi (16, 0x21); Ldi (17, 0x12); Mov (18, 16); Add (18, 17); Break ] in
  run_all cpu;
  check_reg cpu 16 0x21;
  check_reg cpu 18 0x33

let test_add_carry_flags () =
  let cpu = load Isa.[ Ldi (16, 0xFF); Ldi (17, 0x02); Add (16, 17); Break ] in
  run_all cpu;
  check_reg cpu 16 0x01;
  Alcotest.(check int) "carry set" 1 (Cpu.sreg cpu land 1);
  let cpu = load Isa.[ Ldi (16, 0x10); Ldi (17, 0x10); Add (16, 17); Break ] in
  run_all cpu;
  Alcotest.(check int) "carry clear" 0 (Cpu.sreg cpu land 1)

let test_sub_zero_flag () =
  let cpu = load Isa.[ Ldi (16, 0x42); Subi (16, 0x42); Break ] in
  run_all cpu;
  check_reg cpu 16 0;
  Alcotest.(check int) "Z set" 2 (Cpu.sreg cpu land 2)

let test_adc_16bit_chain () =
  (* 0x00FF + 0x0101 = 0x0200 through add/adc. *)
  let cpu =
    load
      Isa.[ Ldi (24, 0xFF); Ldi (25, 0x00); Ldi (18, 0x01); Ldi (19, 0x01);
            Add (24, 18); Adc (25, 19); Break ]
  in
  run_all cpu;
  check_reg cpu 24 0x00;
  check_reg cpu 25 0x02

let test_logic_ops () =
  let cpu =
    load Isa.[ Ldi (16, 0xF0); Ldi (17, 0x3C); And (16, 17); Ldi (18, 0x0F); Or (16, 18);
               Ldi (19, 0xFF); Eor (19, 16); Break ]
  in
  run_all cpu;
  check_reg cpu 16 0x3F;
  check_reg cpu 19 0xC0

let test_shifts () =
  let cpu = load Isa.[ Ldi (16, 0x81); Lsr 16; Break ] in
  run_all cpu;
  check_reg cpu 16 0x40;
  Alcotest.(check int) "carry from lsb" 1 (Cpu.sreg cpu land 1);
  let cpu = load Isa.[ Ldi (16, 0x81); Asr 16; Break ] in
  run_all cpu;
  check_reg cpu 16 0xC0

(* asr's SREG, computed by hand from the manual: C = bit 0 of Rd,
   N = bit 7 of the result, V = N xor C, S = N xor V = C.  The V it
   overwrites must not matter. *)
let test_asr_flags () =
  List.iter
    (fun (a, res, sreg) ->
      List.iter
        (fun v_before ->
          let set_v = if v_before then Isa.Bset Isa.Flag.v else Isa.Bclr Isa.Flag.v in
          let cpu = load Isa.[ Ldi (16, a); set_v; Asr 16; Break ] in
          run_all cpu;
          check_reg cpu 16 res;
          Alcotest.(check int)
            (Printf.sprintf "SREG after asr 0x%02x, V before %b" a v_before)
            sreg (Cpu.sreg cpu))
        [ false; true ])
    [
      (* 0xC0: C=1 N=1 V=0 S=1 *)
      (0x81, 0xC0, 0b1_0101);
      (* 0x00: C=1 Z=1 N=0 V=1 S=1 *)
      (0x01, 0x00, 0b1_1011);
      (* 0x00: Z=1, the rest clear *)
      (0x00, 0x00, 0b0_0010);
      (* 0xC1: C=0 N=1 V=1 S=0 *)
      (0x82, 0xC1, 0b0_1100);
    ]

let test_swap_com_neg () =
  let cpu = load Isa.[ Ldi (16, 0xA5); Swap 16; Ldi (17, 0x0F); Com 17; Ldi (18, 1); Neg 18; Break ] in
  run_all cpu;
  check_reg cpu 16 0x5A;
  check_reg cpu 17 0xF0;
  check_reg cpu 18 0xFF

let test_mul () =
  let cpu = load Isa.[ Ldi (16, 200); Ldi (17, 100); Mul (16, 17); Break ] in
  run_all cpu;
  Alcotest.(check int) "product" 20000 (Cpu.reg cpu 0 lor (Cpu.reg cpu 1 lsl 8))

let test_stack_push_pop () =
  let cpu = load Isa.[ Ldi (16, 0xAB); Push 16; Ldi (16, 0); Pop 17; Break ] in
  let sp0 = Device.data_end Device.atmega2560 - 1 in
  run_all cpu;
  check_reg cpu 17 0xAB;
  Alcotest.(check int) "SP restored" sp0 (Cpu.sp cpu)

let test_sp_memory_mapped () =
  (* Writing SPL/SPH via out moves the stack pointer — the stk_move
     primitive the paper's attack pivots with. *)
  let cpu = load Isa.[ Ldi (28, 0x34); Ldi (29, 0x12); Out (0x3D, 28); Out (0x3E, 29); Break ] in
  run_all cpu;
  Alcotest.(check int) "SP = 0x1234" 0x1234 (Cpu.sp cpu)

let test_call_ret_3byte () =
  (* call pushes a 3-byte return address on the ATmega2560. *)
  let insns = Isa.[ Call 4; Break; (* pc 0,2(words): call occupies words 0-1; break at word 2 *)
                    Nop; Ldi (16, 0x77); Ret ] in
  (* layout (words): 0-1 call 4; 2 break; 3 nop; 4 ldi; 5 ret *)
  let cpu = load insns in
  let sp0 = Cpu.sp cpu in
  Cpu.step cpu (* call *);
  Alcotest.(check int) "SP dropped by 3" (sp0 - 3) (Cpu.sp cpu);
  Alcotest.(check int) "PC at target" 4 (Cpu.pc cpu);
  (* return address bytes: big-endian in memory, pointing at word 2 *)
  Alcotest.(check int) "ret hi" 0 (Cpu.data_peek cpu (sp0 - 2));
  Alcotest.(check int) "ret mid" 0 (Cpu.data_peek cpu (sp0 - 1));
  Alcotest.(check int) "ret lo" 2 (Cpu.data_peek cpu sp0);
  run_all cpu;
  check_reg cpu 16 0x77;
  Alcotest.(check int) "SP restored after ret" sp0 (Cpu.sp cpu)

let test_rcall_icall () =
  let cpu = load Isa.[ Ldi (30, 5); Ldi (31, 0); Icall; Break; Nop; Ldi (16, 9); Ret ] in
  run_all cpu;
  check_reg cpu 16 9

let test_branches () =
  (* breq skips the ldi when Z is set. *)
  let cpu = load Isa.[ Ldi (16, 1); Cpi (16, 1); Brbs (1, 1); Ldi (17, 0xEE); Break ] in
  run_all cpu;
  check_reg cpu 17 0;
  let cpu = load Isa.[ Ldi (16, 1); Cpi (16, 2); Brbs (1, 1); Ldi (17, 0xEE); Break ] in
  run_all cpu;
  check_reg cpu 17 0xEE

let test_cpse_skips_two_word () =
  (* cpse must skip a full 2-word instruction. *)
  let cpu = load Isa.[ Ldi (16, 5); Ldi (17, 5); Cpse (16, 17); Sts (0x500, 16); Ldi (18, 1); Break ] in
  run_all cpu;
  Alcotest.(check int) "sts skipped" 0 (Cpu.data_peek cpu 0x500);
  check_reg cpu 18 1

let test_data_space_ld_st () =
  let cpu =
    load
      Isa.[ Ldi (16, 0x5A); Sts (0x700, 16); Lds (17, 0x700);
            Ldi (26, 0x00); Ldi (27, 0x07); Ld (18, X); Break ]
  in
  run_all cpu;
  check_reg cpu 17 0x5A;
  check_reg cpu 18 0x5A

let test_displacement_and_pointers () =
  let cpu =
    load
      Isa.[ Ldi (28, 0x00); Ldi (29, 0x07); Ldi (16, 0x42); Std (Y, 3, 16);
            Ldd (17, Y, 3);
            Ldi (30, 0x00); Ldi (31, 0x07); Ldi (18, 0x24); St (Z_inc, 18); St (Z_inc, 18);
            Lds (19, 0x701); Break ]
  in
  run_all cpu;
  check_reg cpu 17 0x42;
  Alcotest.(check int) "st Z+ advanced" 0x24 (Cpu.reg cpu 19);
  Alcotest.(check int) "Z advanced twice" 0x702 (Cpu.reg cpu 30 lor (Cpu.reg cpu 31 lsl 8))

let test_registers_memory_mapped () =
  (* Storing to data address 5 IS register r5 — the property write_mem
     exploits. *)
  let cpu = load Isa.[ Ldi (16, 0x99); Sts (5, 16); Break ] in
  run_all cpu;
  check_reg cpu 5 0x99

let test_lpm_reads_flash () =
  let cpu = load Isa.[ Ldi (30, 0x00); Ldi (31, 0x00); Lpm (16, false); Break ] in
  run_all cpu;
  (* flash[0] = low byte of the first ldi encoding *)
  let expected = Char.code (Opcode.encode_bytes (Isa.Ldi (30, 0x00))).[0] in
  check_reg cpu 16 expected

let test_harvard_faults () =
  (* Erased flash beyond the program = illegal instruction halt. *)
  let cpu = load Isa.[ Nop; Nop ] in
  (match Cpu.run cpu ~max_cycles:100 with
  | `Halted (Cpu.Wild_pc _) -> ()
  | r -> Alcotest.failf "expected wild PC, got %s" (Helpers.run_result_to_string r));
  (* A ret into garbage halts too. *)
  let cpu = load (Isa.[ Ldi (16, 0xFF); Push 16; Push 16; Push 16; Ret ]) in
  match Cpu.run cpu ~max_cycles:1000 with
  | `Halted _ -> ()
  | r -> Alcotest.failf "expected halt, got %s" (Helpers.run_result_to_string r)

let test_uart_roundtrip () =
  (* Echo firmware: poll UCSRA bit7, read UDR, write it back. *)
  let insns =
    Isa.[
      In (24, Device.Io.ucsra); Andi (24, 0x80);
      Brbs (1, -3) (* breq back to start *);
      In (24, Device.Io.udr); Out (Device.Io.udr, 24);
      Rjmp (-6);
    ]
  in
  let cpu = load insns in
  Cpu.uart_send cpu "hello";
  ignore (Cpu.run cpu ~max_cycles:2_000);
  Alcotest.(check string) "echoed" "hello" (Cpu.uart_take_tx cpu);
  Alcotest.(check int) "rx drained" 0 (Cpu.uart_rx_pending cpu)

let test_watchdog_feed () =
  let cpu = load Isa.[ Ldi (16, 1); Out (Device.Io.wdt_feed, 16); Out (Device.Io.wdt_feed, 16); Break ] in
  run_all cpu;
  Alcotest.(check int) "two feeds" 2 (Cpu.watchdog_feeds cpu);
  Alcotest.(check bool) "feed timestamp" true (Cpu.last_feed_cycles cpu > 0)

let test_cycle_counts () =
  let cycles insns =
    let cpu = load insns in
    (* run to break, subtract break's own cycle *)
    run_all cpu;
    Cpu.cycles cpu - 1
  in
  Alcotest.(check int) "nop is 1" 1 (cycles Isa.[ Nop; Break ]);
  Alcotest.(check int) "push is 2" 2 (cycles Isa.[ Push 0; Break ]);
  Alcotest.(check int) "jmp is 3" 3 (cycles Isa.[ Jmp 2; Break ]);
  Alcotest.(check int) "call+ret = 10 (3-byte PC)" 10 (cycles Isa.[ Call 3; Break; Ret ]);
  Alcotest.(check int) "taken branch is 2" 3
    (cycles Isa.[ Cp (0, 0); Brbs (1, 0); Break ])

let test_skip_cycle_costs () =
  (* Datasheet costs for cpse/sbic/sbis: 1 cycle when not skipping,
     2 when skipping a 1-word instruction, 3 when skipping a 2-word
     one.  Step up to the skip instruction, then measure it alone. *)
  let skip_cost ~setup_steps insns =
    let cpu = load insns in
    for _ = 1 to setup_steps do Cpu.step cpu done;
    let c0 = Cpu.cycles cpu in
    Cpu.step cpu;
    Cpu.cycles cpu - c0
  in
  Alcotest.(check int) "cpse no skip" 1
    (skip_cost ~setup_steps:2 Isa.[ Ldi (16, 1); Ldi (17, 2); Cpse (16, 17); Nop; Break ]);
  Alcotest.(check int) "cpse skip 1-word" 2
    (skip_cost ~setup_steps:2 Isa.[ Ldi (16, 1); Ldi (17, 1); Cpse (16, 17); Nop; Break ]);
  Alcotest.(check int) "cpse skip 2-word" 3
    (skip_cost ~setup_steps:2
       Isa.[ Ldi (16, 1); Ldi (17, 1); Cpse (16, 17); Sts (0x500, 16); Break ]);
  (* I/O 0x15 is plain memory-backed: bit 0 starts clear. *)
  Alcotest.(check int) "sbic skip 1-word (bit clear)" 2
    (skip_cost ~setup_steps:0 Isa.[ Sbic (0x15, 0); Nop; Break ]);
  Alcotest.(check int) "sbic no skip" 1
    (skip_cost ~setup_steps:1 Isa.[ Sbi (0x15, 0); Sbic (0x15, 0); Nop; Break ]);
  Alcotest.(check int) "sbis no skip (bit clear)" 1
    (skip_cost ~setup_steps:0 Isa.[ Sbis (0x15, 0); Nop; Break ]);
  Alcotest.(check int) "sbis skip 2-word" 3
    (skip_cost ~setup_steps:1
       Isa.[ Sbi (0x15, 0); Sbis (0x15, 0); Sts (0x500, 16); Break ])

let test_reflash_clears_peripherals () =
  (* A reflash mid-receive must start the new lifetime clean: no pending
     RX bytes (a half-received attack payload would replay into the
     fresh image), no untaken TX, no inherited watchdog/interrupt
     tallies. *)
  let insns =
    Isa.[
      Ldi (16, 1); Out (Device.Io.wdt_feed, 16);
      In (24, Device.Io.udr); Out (Device.Io.udr, 24);
      Break;
    ]
  in
  let cpu = load insns in
  Cpu.uart_send cpu "attack-payload";
  run_all cpu;
  Alcotest.(check bool) "rx pending before reflash" true (Cpu.uart_rx_pending cpu > 0);
  Alcotest.(check bool) "feeds counted" true (Cpu.watchdog_feeds cpu > 0);
  (* Reflash (same image, fresh lifetime) while bytes are still queued. *)
  Cpu.load_program cpu (String.concat "" (List.map Opcode.encode_bytes insns));
  Alcotest.(check int) "rx drained" 0 (Cpu.uart_rx_pending cpu);
  Alcotest.(check string) "tx cleared" "" (Cpu.uart_take_tx cpu);
  Alcotest.(check int) "feeds zeroed" 0 (Cpu.watchdog_feeds cpu);
  Alcotest.(check int) "interrupts zeroed" 0 (Cpu.interrupts_taken cpu);
  (* The fresh lifetime reads zeroes from the UART, not old bytes. *)
  run_all cpu;
  Alcotest.(check string) "fresh lifetime echoes silence" "\x00" (Cpu.uart_take_tx cpu)

let test_reset_preserves_memory () =
  let cpu = load Isa.[ Ldi (16, 7); Sts (0x600, 16); Break ] in
  run_all cpu;
  Cpu.reset cpu;
  Alcotest.(check int) "PC reset" 0 (Cpu.pc cpu);
  Alcotest.(check int) "cycles reset" 0 (Cpu.cycles cpu);
  Alcotest.(check bool) "halt cleared" true (Cpu.halted cpu = None);
  Alcotest.(check int) "SRAM preserved" 7 (Cpu.data_peek cpu 0x600)

(* ---- Instruction semantics digests --------------------------------- *)

(* Every non-control instruction is stepped over its whole operand space
   (every 8-bit operand pair, every immediate, all 65,536 word values
   over a spread of immediates, every value of the SREG bits it reads)
   and the state it leaves — destination registers, SREG, the cycles it
   charged, the PC it left, and for data-space instructions the bytes
   they touched — is folded into one FNV-1a digest per opcode (64-bit
   offset basis and prime, in OCaml's 63-bit int).  The digests pin the
   stepper's semantics independently of the superblock engine, whose
   differential tests compare the two engines against each other.  They
   change only when an instruction's semantics change on purpose. *)

type digest = { mutable h : int }

let fnv_prime = 0x100000001b3
let fold_byte d b = d.h <- (d.h lxor (b land 0xFF)) * fnv_prime

let fold d v =
  fold_byte d v;
  fold_byte d (v lsr 8)

(* Every subset of the SREG bits in [mask]. *)
let sreg_combos mask =
  let rec go acc m =
    if m = 0 then acc
    else
      let b = m land -m in
      go (acc @ List.map (fun s -> s lor b) acc) (m lxor b)
  in
  go [ 0 ] mask

(* The bits an instruction does not read vary with its operands, so a
   flag the instruction must preserve is seen both set and clear.  I is
   kept clear: an I/O store may arm the timer, and no case should take
   an interrupt. *)
let background a b = (a * 31 + b * 7) land 0x7F

(* Step the instruction at word [pc] once, with SREG [sreg], and fold
   the cycles it charged, the PC it left and the SREG it wrote. *)
let sem_step d cpu ~pc ~sreg =
  Cpu.io_poke cpu Device.Io.sreg sreg;
  Cpu.set_pc cpu pc;
  let c0 = Cpu.cycles cpu in
  Cpu.step cpu;
  fold d (Cpu.cycles cpu - c0);
  fold d (Cpu.pc cpu - pc);
  fold_byte d (Cpu.sreg cpu)

let fold_regs d cpu rs = List.iter (fun r -> fold_byte d (Cpu.reg cpu r)) rs
let cflag = 1 lsl Isa.Flag.c
let zflag = 1 lsl Isa.Flag.z

(* Two-register ALU ops: every (Rd, Rr) value pair with d <> r, then
   every value with d = r, under every value of the flags read. *)
let sem_alu2 mk ~reads d =
  let cpu = load [ mk 16 17; mk 16 16 ] in
  for a = 0 to 255 do
    for b = 0 to 255 do
      List.iter
        (fun s ->
          Cpu.set_reg cpu 16 a;
          Cpu.set_reg cpu 17 b;
          sem_step d cpu ~pc:0 ~sreg:(background a b land lnot reads lor s);
          fold_regs d cpu [ 16; 17; 0; 1 ])
        (sreg_combos reads)
    done;
    List.iter
      (fun s ->
        Cpu.set_reg cpu 16 a;
        sem_step d cpu ~pc:1 ~sreg:(background a a land lnot reads lor s);
        fold_regs d cpu [ 16; 0; 1 ])
      (sreg_combos reads)
  done

(* Register-immediate ops: every immediate over every register value. *)
let sem_imm mk ~reads d =
  let cpu = load (List.init 256 (fun k -> mk 16 k)) in
  for k = 0 to 255 do
    for a = 0 to 255 do
      List.iter
        (fun s ->
          Cpu.set_reg cpu 16 a;
          sem_step d cpu ~pc:k ~sreg:(background a k land lnot reads lor s);
          fold_regs d cpu [ 16 ])
        (sreg_combos reads)
    done
  done

let sem_unary mk ~reads d =
  let cpu = load [ mk 16 ] in
  for a = 0 to 255 do
    List.iter
      (fun s ->
        Cpu.set_reg cpu 16 a;
        sem_step d cpu ~pc:0 ~sreg:(background a 0 land lnot reads lor s);
        fold_regs d cpu [ 16 ])
      (sreg_combos reads)
  done

(* adiw/sbiw: all 65,536 pair values, over a spread of registers and
   immediates. *)
let sem_word mk d =
  let cases =
    [ (24, 0); (24, 1); (24, 2); (24, 31); (24, 32); (24, 63); (26, 63); (28, 1); (30, 17) ]
  in
  let cpu = load (List.map (fun (r, k) -> mk r k) cases) in
  List.iteri
    (fun pc (r, _) ->
      for v = 0 to 0xFFFF do
        Cpu.set_reg cpu r (v land 0xFF);
        Cpu.set_reg cpu (r + 1) (v lsr 8);
        sem_step d cpu ~pc ~sreg:(background v pc);
        fold_regs d cpu [ r; r + 1 ]
      done)
    cases

(* bld/bst/bset/bclr: every bit number over every register (or SREG)
   value. *)
let sem_bit mk ~reads d =
  let cpu = load (List.init 8 (fun b -> mk b)) in
  for b = 0 to 7 do
    for a = 0 to 255 do
      List.iter
        (fun s ->
          Cpu.set_reg cpu 16 a;
          sem_step d cpu ~pc:b ~sreg:(background a b land lnot reads lor s);
          fold_regs d cpu [ 16 ])
        (sreg_combos reads)
    done
  done

let sem_sreg_op mk d =
  let cpu = load (List.init 8 (fun b -> mk b)) in
  for b = 0 to 7 do
    for s = 0 to 255 do
      sem_step d cpu ~pc:b ~sreg:s
    done
  done

let sem_nullary insn d =
  let cpu = load [ insn ] in
  for s = 0 to 255 do
    sem_step d cpu ~pc:0 ~sreg:s
  done

(* Observable side effects of a data-space store: the stack pointer
   and whatever the UART transmitted. *)
let fold_io_effects d cpu =
  fold d (Cpu.sp cpu);
  fold d (String.length (Cpu.uart_take_tx cpu))

let sem_in d =
  let cpu = load (List.init 64 (fun a -> Isa.In (16, a))) in
  for a = 0 to 63 do
    for v = 0 to 255 do
      Cpu.io_poke cpu a v;
      sem_step d cpu ~pc:a ~sreg:(background v a);
      fold_regs d cpu [ 16 ]
    done
  done

let sem_out d =
  let cpu = load (List.init 64 (fun a -> Isa.Out (a, 16))) in
  for a = 0 to 63 do
    for v = 0 to 255 do
      Cpu.set_reg cpu 16 v;
      sem_step d cpu ~pc:a ~sreg:(background v a);
      fold d (Cpu.io_peek cpu a);
      fold d (Cpu.io_peek cpu Device.Io.eedr);
      fold_io_effects d cpu
    done
  done

let sem_sbi_cbi mk d =
  let cpu = load (List.init 256 (fun i -> mk (i / 8) (i mod 8))) in
  for i = 0 to 255 do
    for v = 0 to 255 do
      Cpu.io_poke cpu (i / 8) v;
      sem_step d cpu ~pc:i ~sreg:(background v i);
      fold d (Cpu.io_peek cpu (i / 8));
      fold_io_effects d cpu
    done
  done

(* Data addresses: the register file, the I/O file, the extended I/O
   space, SRAM edges and addresses past the end of data space. *)
let data_addrs = List.init 0x200 Fun.id @ [ 0x200; 0x201; 0x1000; 0x21FE; 0x21FF; 0x2200; 0xFFFF ]
let data_vals = [ 0x00; 0x5A; 0xA5; 0xFF ]

let sem_lds d =
  let cpu = load (List.map (fun a -> Isa.Lds (16, a)) data_addrs) in
  List.iteri
    (fun i a ->
      List.iter
        (fun v ->
          Cpu.data_poke cpu a v;
          sem_step d cpu ~pc:(2 * i) ~sreg:(background v i);
          fold_regs d cpu [ 16 ])
        data_vals)
    data_addrs

let sem_sts d =
  let cpu = load (List.map (fun a -> Isa.Sts (a, 16)) data_addrs) in
  List.iteri
    (fun i a ->
      List.iter
        (fun v ->
          Cpu.set_reg cpu 16 v;
          sem_step d cpu ~pc:(2 * i) ~sreg:(background v i);
          fold d (Cpu.data_peek cpu a);
          fold_io_effects d cpu)
        data_vals)
    data_addrs

let pointers = [ 0x0000; 0x0008; 0x0020; 0x0100; 0x0200; 0x21C0; 0x21F0; 0xFFFF ]

let set_pair cpu r v =
  Cpu.set_reg cpu r (v land 0xFF);
  Cpu.set_reg cpu (r + 1) ((v lsr 8) land 0xFF)

let sem_ldd_std ~store d =
  let slots = List.concat_map (fun b -> List.init 64 (fun q -> (b, q))) Isa.[ Y; Z ] in
  let cpu =
    load (List.map (fun (b, q) -> if store then Isa.Std (b, q, 16) else Isa.Ldd (16, b, q)) slots)
  in
  List.iteri
    (fun pc (b, q) ->
      let r = if b = Isa.Y then 28 else 30 in
      List.iter
        (fun p ->
          List.iter
            (fun v ->
              set_pair cpu r p;
              if store then Cpu.set_reg cpu 16 v else Cpu.data_poke cpu (p + q) v;
              sem_step d cpu ~pc ~sreg:(background v pc);
              if store then begin
                fold d (Cpu.data_peek cpu (p + q));
                fold_io_effects d cpu
              end
              else fold_regs d cpu [ 16 ])
            data_vals)
        pointers)
    slots

let ptr_modes = Isa.[ X; X_inc; X_dec; Y_inc; Y_dec; Z_inc; Z_dec ]
let ptr_values = List.init 0x400 Fun.id @ [ 0x21FF; 0x2200; 0xFFFF ]

let sem_ld_st ~store d =
  let cpu =
    load (List.map (fun p -> if store then Isa.St (p, 16) else Isa.Ld (16, p)) ptr_modes)
  in
  List.iteri
    (fun pc mode ->
      let r = match mode with Isa.X | X_inc | X_dec -> 26 | Y_inc | Y_dec -> 28 | _ -> 30 in
      List.iter
        (fun p ->
          List.iter
            (fun v ->
              set_pair cpu r p;
              if store then Cpu.set_reg cpu 16 v
              else begin
                Cpu.data_poke cpu p v;
                Cpu.data_poke cpu ((p - 1) land 0xFFFF) (v lxor 0xFF)
              end;
              sem_step d cpu ~pc ~sreg:(background v p);
              fold_regs d cpu [ 16; r; r + 1 ];
              if store then begin
                fold d (Cpu.data_peek cpu p);
                fold d (Cpu.data_peek cpu ((p - 1) land 0xFFFF));
                fold_io_effects d cpu
              end)
            [ 0x00; 0xA5 ])
        ptr_values)
    ptr_modes

let stack_pointers = [ 0x21FF; 0x2000; 0x0200; 0x0100; 0x0060; 0x0021; 0x0010; 0x0000 ]

let sem_push_pop ~push d =
  let cpu = load [ (if push then Isa.Push 16 else Isa.Pop 16) ] in
  List.iter
    (fun sp ->
      for v = 0 to 255 do
        Cpu.set_sp cpu sp;
        if push then Cpu.set_reg cpu 16 v else Cpu.data_poke cpu (sp + 1) v;
        sem_step d cpu ~pc:0 ~sreg:(background v sp);
        fold_regs d cpu [ 16 ];
        fold d (Cpu.data_peek cpu sp);
        fold_io_effects d cpu
      done)
    stack_pointers

(* Program-memory loads: Z over the first 2 KB of a patterned image and
   the 64 KB edge, and RAMPZ over its low values for the extended
   forms. *)
let sem_lpm insn ~rampz d =
  let filler = List.init 512 (fun i -> Isa.Ldi (16 + (i mod 16), (i * 37) land 0xFF)) in
  let cpu = load (insn :: filler) in
  let zs = List.init 0x800 Fun.id @ [ 0x8000; 0xFFFE; 0xFFFF ] in
  List.iter
    (fun rz ->
      List.iter
        (fun z ->
          set_pair cpu 30 z;
          Cpu.io_poke cpu Device.Io.rampz rz;
          sem_step d cpu ~pc:0 ~sreg:(background z rz);
          fold_regs d cpu [ 0; 16; 30; 31 ];
          fold d (Cpu.io_peek cpu Device.Io.rampz))
        zs)
    (if rampz then [ 0; 1; 3 ] else [ 0 ])

let semantics_cases =
  Isa.
    [
      ("nop", sem_nullary Nop);
      ("wdr", sem_nullary Wdr);
      ("movw", sem_alu2 (fun d _ -> Movw (d, 18)) ~reads:0);
      ("mov", sem_alu2 (fun d r -> Mov (d, r)) ~reads:0);
      ("add", sem_alu2 (fun d r -> Add (d, r)) ~reads:0);
      ("adc", sem_alu2 (fun d r -> Adc (d, r)) ~reads:cflag);
      ("sub", sem_alu2 (fun d r -> Sub (d, r)) ~reads:0);
      ("sbc", sem_alu2 (fun d r -> Sbc (d, r)) ~reads:(cflag lor zflag));
      ("and", sem_alu2 (fun d r -> And (d, r)) ~reads:0);
      ("or", sem_alu2 (fun d r -> Or (d, r)) ~reads:0);
      ("eor", sem_alu2 (fun d r -> Eor (d, r)) ~reads:0);
      ("cp", sem_alu2 (fun d r -> Cp (d, r)) ~reads:0);
      ("cpc", sem_alu2 (fun d r -> Cpc (d, r)) ~reads:(cflag lor zflag));
      ("mul", sem_alu2 (fun d r -> Mul (d, r)) ~reads:0);
      ("ldi", sem_imm (fun d k -> Ldi (d, k)) ~reads:0);
      ("subi", sem_imm (fun d k -> Subi (d, k)) ~reads:0);
      ("sbci", sem_imm (fun d k -> Sbci (d, k)) ~reads:(cflag lor zflag));
      ("andi", sem_imm (fun d k -> Andi (d, k)) ~reads:0);
      ("ori", sem_imm (fun d k -> Ori (d, k)) ~reads:0);
      ("cpi", sem_imm (fun d k -> Cpi (d, k)) ~reads:0);
      ("com", sem_unary (fun d -> Com d) ~reads:0);
      ("neg", sem_unary (fun d -> Neg d) ~reads:0);
      ("inc", sem_unary (fun d -> Inc d) ~reads:0);
      ("dec", sem_unary (fun d -> Dec d) ~reads:0);
      ("lsr", sem_unary (fun d -> Lsr d) ~reads:0);
      ("ror", sem_unary (fun d -> Ror d) ~reads:cflag);
      ("asr", sem_unary (fun d -> Asr d) ~reads:0);
      ("swap", sem_unary (fun d -> Swap d) ~reads:0);
      ("adiw", sem_word (fun d k -> Adiw (d, k)));
      ("sbiw", sem_word (fun d k -> Sbiw (d, k)));
      ("bld", sem_bit (fun b -> Bld (16, b)) ~reads:(1 lsl Flag.t));
      ("bst", sem_bit (fun b -> Bst (16, b)) ~reads:0);
      ("bset", sem_sreg_op (fun b -> Bset b));
      ("bclr", sem_sreg_op (fun b -> Bclr b));
      ("in", sem_in);
      ("out", sem_out);
      ("sbi", sem_sbi_cbi (fun a b -> Sbi (a, b)));
      ("cbi", sem_sbi_cbi (fun a b -> Cbi (a, b)));
      ("lds", sem_lds);
      ("sts", sem_sts);
      ("ldd", sem_ldd_std ~store:false);
      ("std", sem_ldd_std ~store:true);
      ("ld", sem_ld_st ~store:false);
      ("st", sem_ld_st ~store:true);
      ("push", sem_push_pop ~push:true);
      ("pop", sem_push_pop ~push:false);
      ("lpm0", sem_lpm Lpm0 ~rampz:false);
      ("lpm", sem_lpm (Lpm (16, false)) ~rampz:false);
      ("lpm+", sem_lpm (Lpm (16, true)) ~rampz:false);
      ("elpm0", sem_lpm Elpm0 ~rampz:true);
      ("elpm", sem_lpm (Elpm (16, false)) ~rampz:true);
      ("elpm+", sem_lpm (Elpm (16, true)) ~rampz:true);
    ]

let semantics_digest run =
  let d = { h = Int64.to_int 0xcbf29ce484222325L } in
  run d;
  d.h

(* Recorded at the stepper as it stood before the instruction semantics
   were shared with the trace compiler, except asr's, re-recorded when
   its S flag was corrected to S = C. *)
let pinned_digests =
  [
    ("nop", "0ab62a52251a0425"); ("wdr", "0ab62a52251a0425"); ("movw", "0c34eb9167f39b25");
    ("mov", "38e8dc89009d8725"); ("add", "63db5d0e0670a1a5"); ("adc", "225ef78e998aad81");
    ("sub", "732bbfc3db720225"); ("sbc", "6ed2208553e5da55"); ("and", "05e3d06091d92b11");
    ("or", "2ab82df0d3beba25"); ("eor", "0f066cdb0f6a2525"); ("cp", "610a2e8bd8685225");
    ("cpc", "0660a0d48053df55"); ("mul", "22f33c2dba12e7e9"); ("ldi", "7d626e48d515d325");
    ("subi", "68e207b4374bb8a5"); ("sbci", "0790045492626d8d"); ("andi", "525d33255be44f1b");
    ("ori", "62127c0e006b2307"); ("cpi", "08a6302c9c678d25"); ("com", "06634589434f1f77");
    ("neg", "60f788928be39c4e"); ("inc", "606804b7499e929f"); ("dec", "75847c883a704d43");
    ("lsr", "25ff6d8f1cdec115"); ("ror", "5c313320e78d8d85"); ("asr", "5b283106270a9015");
    ("swap", "4b75bd33feb971a5"); ("adiw", "1ef0e9c5455629b3"); ("sbiw", "2ad1eeff28670663");
    ("bld", "6c38726c0a09a125"); ("bst", "53710e0de8088a25"); ("bset", "0f8e318b687e8425");
    ("bclr", "62cdad2203fe6125"); ("in", "4d2c7ebd3c6c0525"); ("out", "6911d6b600541888");
    ("sbi", "048bdd9b9e703d25"); ("cbi", "0e2e8b6c78e52225"); ("lds", "01e156a0b844c5bd");
    ("sts", "436da608b4c5db41"); ("ldd", "540014ac9c859681"); ("std", "259338aab98198cd");
    ("ld", "537d8a8d567610a2"); ("st", "02a38c601b5aefc0"); ("push", "146d7a4d13446b25");
    ("pop", "462a2d090806c825"); ("lpm0", "647338cc13ae85fb"); ("lpm", "34f05752dc7973b7");
    ("lpm+", "07f7eb783b9bee5c"); ("elpm0", "7fd7fa6a5ffcabc1"); ("elpm", "576d4ac93064651f");
    ("elpm+", "38e31dea49223d0f");
  ]

(* Every opcode is checked before failing, so the message names each
   one whose digest moved, with the digest it now has. *)
let test_semantics_digests () =
  let moved =
    List.filter_map
      (fun (name, run) ->
        let got = Printf.sprintf "%016x" (semantics_digest run) in
        if got = List.assoc name pinned_digests then None else Some (name ^ " " ^ got))
      semantics_cases
  in
  Alcotest.(check (list string)) "opcodes whose digest moved" [] moved

let () =
  Alcotest.run "cpu"
    [
      ( "alu",
        [
          Alcotest.test_case "ldi/mov/add" `Quick test_ldi_mov_add;
          Alcotest.test_case "add carry" `Quick test_add_carry_flags;
          Alcotest.test_case "sub zero flag" `Quick test_sub_zero_flag;
          Alcotest.test_case "16-bit adc chain" `Quick test_adc_16bit_chain;
          Alcotest.test_case "logic" `Quick test_logic_ops;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "asr flags" `Quick test_asr_flags;
          Alcotest.test_case "swap/com/neg" `Quick test_swap_com_neg;
          Alcotest.test_case "mul" `Quick test_mul;
        ] );
      ( "control",
        [
          Alcotest.test_case "stack push/pop" `Quick test_stack_push_pop;
          Alcotest.test_case "SP memory-mapped" `Quick test_sp_memory_mapped;
          Alcotest.test_case "call/ret 3-byte PC" `Quick test_call_ret_3byte;
          Alcotest.test_case "icall" `Quick test_rcall_icall;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "cpse skips 2-word" `Quick test_cpse_skips_two_word;
          Alcotest.test_case "skip cycle costs" `Quick test_skip_cycle_costs;
        ] );
      ( "memory",
        [
          Alcotest.test_case "lds/sts/ld" `Quick test_data_space_ld_st;
          Alcotest.test_case "std/ldd/pointers" `Quick test_displacement_and_pointers;
          Alcotest.test_case "registers memory-mapped" `Quick test_registers_memory_mapped;
          Alcotest.test_case "lpm reads flash" `Quick test_lpm_reads_flash;
          Alcotest.test_case "Harvard faults" `Quick test_harvard_faults;
        ] );
      ( "peripherals",
        [
          Alcotest.test_case "uart echo" `Quick test_uart_roundtrip;
          Alcotest.test_case "watchdog feed" `Quick test_watchdog_feed;
          Alcotest.test_case "cycle accounting" `Quick test_cycle_counts;
          Alcotest.test_case "reset semantics" `Quick test_reset_preserves_memory;
          Alcotest.test_case "reflash clears peripherals" `Quick test_reflash_clears_peripherals;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "digests" `Quick test_semantics_digests;
        ] );
    ]
