open Mavr_asm.Assembler
module Isa = Mavr_avr.Isa
module Io = Mavr_avr.Device.Io

let i x = Insn x
let lbl s = Label s
let ldi r k = i (Isa.Ldi (r, k land 0xFF))
let lds r a = i (Isa.Lds (r, a))
let sts a r = i (Isa.Sts (a, r))
let call s = Call_sym s
let rjmp s = Rjmp_sym s
let breq s = Br (`Sbit Isa.Flag.z, s)
let brne s = Br (`Cbit Isa.Flag.z, s)
let brlo s = Br (`Sbit Isa.Flag.c, s)
let ret = i Isa.Ret

let label_stk_move = "hps_teardown"
let label_write_mem = "ps_write_mem"
let label_write_mem_pops = "ps_pops"

let defines =
  [
    ("STACK_TOP", Layout.stack_top);
    ("DATA_VMA", Layout.data_vma);
    ("VTABLE_VMA", Layout.vtable_vma);
    ("STAGE", Layout.stage);
  ]

(* The CRC-16/MCRF4XX step (see Mavr_mavlink.Crc), operating on a pair of
   SRAM accumulator bytes.  Input byte in r24; clobbers r18, r19 and r0
   only (r20+ carry send_frame's arguments across these calls). *)
let crc_step_body ~lo ~hi =
  [
    lds 18 lo;
    i (Isa.Eor (18, 24)) (* tmp = byte ^ crc_lo *);
    i (Isa.Mov (19, 18));
    i (Isa.Swap 19);
    i (Isa.Andi (19, 0xF0));
    i (Isa.Eor (18, 19)) (* tmp ^= tmp << 4 *);
    i (Isa.Mov (19, 18));
    i (Isa.Swap 19);
    i (Isa.Andi (19, 0x0F)) (* tmp >> 4 *);
    lds 0 hi;
    i (Isa.Eor (19, 0)) (* ^ crc_hi *);
    i (Isa.Mov (0, 18));
    i (Isa.Add (0, 0));
    i (Isa.Add (0, 0));
    i (Isa.Add (0, 0)) (* (tmp << 3) & 0xff *);
    i (Isa.Eor (19, 0)) (* new crc_lo *);
    sts lo 19;
    i (Isa.Mov (19, 18));
    i (Isa.Swap 19);
    i (Isa.Andi (19, 0x0F));
    i (Isa.Lsr 19) (* tmp >> 5 *);
    i (Isa.Eor (19, 18)) (* new crc_hi *);
    sts hi 19;
    ret;
  ]

let fn_rx_crc_step = { name = "rx_crc_step"; items = crc_step_body ~lo:Layout.rxcrc_lo ~hi:Layout.rxcrc_hi }
let fn_tx_crc_step = { name = "tx_crc_step"; items = crc_step_body ~lo:Layout.txcrc_lo ~hi:Layout.txcrc_hi }

(* Look up CRC_EXTRA for the staged message id and fold it into the RX
   checksum.  Tail-calls rx_crc_step with an absolute jmp — one of the
   cross-function transfers the MAVR patcher must rewrite. *)
let fn_rx_finalize =
  {
    name = "rx_finalize";
    items =
      [
        Ldi_sym (30, Lo8, "crc_extra_tbl");
        Ldi_sym (31, Hi8, "crc_extra_tbl");
        lds 24 Layout.st_msgid;
        i (Isa.Add (30, 24));
        i (Isa.Adc (31, 1));
        i (Isa.Lpm (24, false));
        Jmp_sym "rx_crc_step";
      ];
  }

(* The MAVLink receive state machine, one byte (in r24) per call. *)
let fn_rx_byte =
  let set_state n = [ ldi 25 n; sts Layout.st_state 25 ] in
  {
    name = "rx_byte";
    items =
      [ lds 25 Layout.st_state; i (Isa.Cpi (25, 0)); brne "rb_not0" ]
      @ [ i (Isa.Cpi (24, 0xFE)); breq "rb_st0_magic"; rjmp "rb_done"; lbl "rb_st0_magic" ]
      @ set_state 1
      @ [ ldi 25 0xFF; sts Layout.rxcrc_lo 25; sts Layout.rxcrc_hi 25; rjmp "rb_done" ]
      @ [ lbl "rb_not0"; i (Isa.Cpi (25, 1)); brne "rb_not1" ]
      @ [ sts Layout.st_len 24; sts Layout.st_idx 1; call "rx_crc_step" ]
      @ set_state 2 @ [ rjmp "rb_done" ]
      @ [ lbl "rb_not1"; i (Isa.Cpi (25, 2)); brne "rb_not2"; call "rx_crc_step" ]
      @ set_state 3 @ [ rjmp "rb_done" ]
      @ [ lbl "rb_not2"; i (Isa.Cpi (25, 3)); brne "rb_not3"; call "rx_crc_step" ]
      @ set_state 4 @ [ rjmp "rb_done" ]
      @ [ lbl "rb_not3"; i (Isa.Cpi (25, 4)); brne "rb_not4"; call "rx_crc_step" ]
      @ set_state 5 @ [ rjmp "rb_done" ]
      @ [
          lbl "rb_not4";
          i (Isa.Cpi (25, 5));
          brne "rb_not5";
          sts Layout.st_msgid 24;
          call "rx_crc_step";
          lds 25 Layout.st_len;
          i (Isa.Cp (25, 1));
          brne "rb_to_payload";
          call "rx_finalize";
        ]
      @ set_state 7 @ [ rjmp "rb_done" ]
      @ [ lbl "rb_to_payload" ] @ set_state 6 @ [ rjmp "rb_done" ]
      @ [
          lbl "rb_not5";
          i (Isa.Cpi (25, 6));
          brne "rb_not6";
          (* STAGE[idx] <- byte *)
          lds 25 Layout.st_idx;
          Ldi_sym (30, Lo8, "STAGE");
          Ldi_sym (31, Hi8, "STAGE");
          i (Isa.Add (30, 25));
          i (Isa.Adc (31, 1));
          i (Isa.Std (Isa.Z, 0, 24));
          call "rx_crc_step";
          lds 25 Layout.st_idx;
          i (Isa.Inc 25);
          sts Layout.st_idx 25;
          lds 24 Layout.st_len;
          i (Isa.Cp (25, 24));
          brne "rb_done";
          call "rx_finalize";
        ]
      @ set_state 7 @ [ rjmp "rb_done" ]
      @ [
          lbl "rb_not6";
          i (Isa.Cpi (25, 7));
          brne "rb_not7";
          lds 25 Layout.rxcrc_lo;
          i (Isa.Cp (24, 25));
          brne "rb_bad";
        ]
      @ set_state 8 @ [ rjmp "rb_done" ]
      @ [
          lbl "rb_not7";
          i (Isa.Cpi (25, 8));
          brne "rb_bad";
          lds 25 Layout.rxcrc_hi;
          i (Isa.Cp (24, 25));
          brne "rb_bad";
          sts Layout.st_state 1;
          (* Message handlers run with interrupts off: an ISR firing while
             a handler owns the frame (or, during the attack, while SP is
             pivoted) would corrupt the stack it pushes onto. *)
          i (Isa.Bclr 7) (* cli *);
          call "handle_msg";
          i (Isa.Bset 7) (* sei *);
          rjmp "rb_done";
          lbl "rb_bad";
          sts Layout.st_state 1;
          lbl "rb_done";
          ret;
        ];
  }

(* Drain up to 16 received bytes per main-loop iteration. *)
let fn_mavlink_poll =
  {
    name = "mavlink_poll";
    items =
      [
        i (Isa.Push 17);
        ldi 17 16;
        lbl "mp_loop";
        i (Isa.In (24, Io.ucsra));
        i (Isa.Andi (24, 0x80));
        breq "mp_done";
        i (Isa.In (24, Io.udr));
        call "rx_byte";
        i (Isa.Dec 17);
        brne "mp_loop";
        lbl "mp_done";
        i (Isa.Pop 17);
        ret;
      ];
  }

let fn_handle_msg =
  {
    name = "handle_msg";
    items =
      [
        lds 24 Layout.st_msgid;
        i (Isa.Cpi (24, 23));
        brne "hm_not_param";
        call "handle_param_set";
        ret;
        lbl "hm_not_param";
        i (Isa.Cpi (24, 76));
        brne "hm_not_cmd";
        call "handle_command";
        ret;
        lbl "hm_not_cmd";
        i (Isa.Cpi (24, 200));
        brne "hm_not_cfg";
        call "handle_cfg_save";
        ret;
        lbl "hm_not_cfg";
        i (Isa.Cpi (24, 0));
        brne "hm_done";
        ldi 24 1;
        sts Layout.gcs_beat 24;
        lbl "hm_done";
        ret;
      ];
  }

(* The vulnerable PARAM_SET handler.  Its frame teardown (hps_teardown) is
   exactly the Fig. 4 stk_move gadget.  With ~vulnerable:true the copy
   length is the attacker-controlled MAVLink length field, unclamped. *)
let fn_handle_param_set ~vulnerable =
  let fs = Layout.vuln_frame_size in
  let clamp =
    if vulnerable then []
    else
      [
        i (Isa.Cpi (16, Layout.vuln_buffer_len + 1));
        brlo "hps_clamp_ok";
        ldi 16 Layout.vuln_buffer_len;
        lbl "hps_clamp_ok";
      ]
  in
  {
    name = "handle_param_set";
    items =
      [
        i (Isa.Push 16);
        i (Isa.Push 29);
        i (Isa.Push 28);
        i (Isa.In (0, Io.sreg));
        i (Isa.In (28, Io.spl));
        i (Isa.In (29, Io.sph));
        i (Isa.Subi (28, fs land 0xFF));
        i (Isa.Sbci (29, 0));
        i (Isa.Out (Io.sph, 29));
        i (Isa.Out (Io.spl, 28));
        (* Z <- buffer (Y+1), X <- STAGE, r16 <- received length *)
        i (Isa.Movw (30, 28));
        i (Isa.Adiw (30, 1));
        Ldi_sym (26, Lo8, "STAGE");
        Ldi_sym (27, Hi8, "STAGE");
        lds 16 Layout.st_len;
      ]
      @ clamp
      @ [
          lbl "hps_copy";
          i (Isa.Cp (16, 1));
          breq "hps_copied";
          i (Isa.Ld (18, Isa.X_inc));
          i (Isa.St (Isa.Z_inc, 18));
          i (Isa.Dec 16);
          rjmp "hps_copy";
          lbl "hps_copied";
          call "param_store";
          (* release frame: Y += frame size *)
          i (Isa.Subi (28, (-fs) land 0xFF));
          i (Isa.Sbci (29, 0xFF));
          (* Fig. 4: the stk_move gadget *)
          lbl "hps_teardown";
          i (Isa.Out (Io.sph, 29));
          i (Isa.Out (Io.sreg, 0));
          i (Isa.Out (Io.spl, 28));
          i (Isa.Pop 28);
          i (Isa.Pop 29);
          i (Isa.Pop 16);
          ret;
        ];
  }

(* Stores the first three staged payload bytes to the parameter area.
   Its tail from ps_write_mem is exactly the Fig. 5 write_mem_gadget. *)
let fn_param_store =
  let pushes = List.init 14 (fun k -> i (Isa.Push (4 + k))) (* r4..r17 *) in
  let pops =
    List.map (fun r -> i (Isa.Pop r)) [ 17; 16; 15; 14; 13; 12; 11; 10; 9; 8; 7; 6; 5; 4 ]
  in
  {
    name = "param_store";
    items =
      pushes
      @ [
          i (Isa.Push 28);
          i (Isa.Push 29);
          lds 5 Layout.stage;
          lds 6 (Layout.stage + 1);
          lds 7 (Layout.stage + 2);
          ldi 28 (Layout.param_area land 0xFF);
          ldi 29 ((Layout.param_area lsr 8) land 0xFF);
          lbl "ps_write_mem";
          i (Isa.Std (Isa.Y, 1, 5));
          i (Isa.Std (Isa.Y, 2, 6));
          i (Isa.Std (Isa.Y, 3, 7));
          lbl "ps_pops";
          i (Isa.Pop 29);
          i (Isa.Pop 28);
        ]
      @ pops @ [ ret ];
  }

let fn_handle_command =
  {
    name = "handle_command";
    items =
      [
        lds 24 Layout.st_len;
        i (Isa.Cpi (24, 17));
        brlo "hc_ok";
        ldi 24 16;
        lbl "hc_ok";
        Ldi_sym (26, Lo8, "STAGE");
        Ldi_sym (27, Hi8, "STAGE");
        ldi 30 (Layout.cmd_area land 0xFF);
        ldi 31 ((Layout.cmd_area lsr 8) land 0xFF);
        lbl "hc_loop";
        i (Isa.Cp (24, 1));
        breq "hc_done";
        i (Isa.Ld (18, Isa.X_inc));
        i (Isa.St (Isa.Z_inc, 18));
        i (Isa.Dec 24);
        rjmp "hc_loop";
        lbl "hc_done";
        ret;
      ];
  }

let fn_sensor_update =
  {
    name = "sensor_update";
    items =
      [
        i (Isa.In (24, Io.gyro_lo));
        i (Isa.In (25, Io.gyro_hi));
        lds 18 Layout.gyro_cfg;
        i (Isa.Add (24, 18));
        lds 18 (Layout.gyro_cfg + 1);
        i (Isa.Adc (25, 18));
        sts Layout.gyro_val 24;
        sts (Layout.gyro_val + 1) 25;
        sts (Layout.telem + Layout.telem_gyro_off) 24;
        sts (Layout.telem + Layout.telem_gyro_off + 1) 25;
        i (Isa.In (24, Io.accel_lo));
        i (Isa.In (25, Io.accel_hi));
        sts (Layout.telem + Layout.telem_accel_off) 24;
        sts (Layout.telem + Layout.telem_accel_off + 1) 25;
        ret;
      ];
  }

(* Transmit one byte (waiting for the data register to go ready) and fold
   it into the TX checksum (tail jmp). *)
let fn_tx_send_crc =
  {
    name = "tx_send_crc";
    items =
      [
        lbl "tsc_wait";
        i (Isa.Sbis (Io.ucsra, 5)) (* skip the loop branch once UDRE is set *);
        rjmp "tsc_wait";
        i (Isa.Out (Io.udr, 24));
        Jmp_sym "tx_crc_step";
      ];
  }

(* Transmit one raw byte (no checksum), honouring the UDRE handshake. *)
let fn_tx_send_raw =
  {
    name = "tx_send_raw";
    items =
      [
        lbl "tsr_wait";
        i (Isa.Sbis (Io.ucsra, 5));
        rjmp "tsr_wait";
        i (Isa.Out (Io.udr, 24));
        ret;
      ];
  }

(* Generic frame sender: r20 = CRC_EXTRA, r21 = msgid, r22 = len,
   X = payload address. *)
let fn_send_frame =
  {
    name = "send_frame";
    items =
      [
        ldi 24 0xFF;
        sts Layout.txcrc_lo 24;
        sts Layout.txcrc_hi 24;
        ldi 24 0xFE;
        call "tx_send_raw";
        i (Isa.Mov (24, 22));
        call "tx_send_crc";
        lds 24 Layout.txseq;
        i (Isa.Inc 24);
        sts Layout.txseq 24;
        call "tx_send_crc";
        ldi 24 1;
        call "tx_send_crc";
        ldi 24 1;
        call "tx_send_crc";
        i (Isa.Mov (24, 21));
        call "tx_send_crc";
        i (Isa.Mov (25, 22));
        lbl "sf_loop";
        i (Isa.Cp (25, 1));
        breq "sf_crc";
        i (Isa.Ld (24, Isa.X_inc));
        call "tx_send_crc";
        i (Isa.Dec 25);
        rjmp "sf_loop";
        lbl "sf_crc";
        i (Isa.Mov (24, 20));
        call "tx_crc_step";
        lds 24 Layout.txcrc_lo;
        call "tx_send_raw";
        lds 24 Layout.txcrc_hi;
        call "tx_send_raw";
        ret;
      ];
  }

(* RAW_IMU telemetry every 32 iterations, HEARTBEAT every 64. *)
let fn_telemetry_send =
  {
    name = "telemetry_send";
    items =
      [
        lds 24 Layout.loop_lo;
        i (Isa.Andi (24, 31));
        i (Isa.Cp (24, 1));
        breq "ts_go";
        ret;
        lbl "ts_go";
        ldi 26 (Layout.telem land 0xFF);
        ldi 27 ((Layout.telem lsr 8) land 0xFF);
        ldi 20 144;
        ldi 21 27;
        ldi 22 26;
        call "send_frame";
        lds 24 Layout.loop_lo;
        i (Isa.Andi (24, 63));
        i (Isa.Cp (24, 1));
        breq "ts_hb";
        ret;
        lbl "ts_hb";
        ldi 26 (Layout.telem land 0xFF);
        ldi 27 ((Layout.telem lsr 8) land 0xFF);
        ldi 20 50;
        ldi 21 0;
        ldi 22 9;
        call "send_frame";
        ret;
      ];
  }

(* Indirect dispatch through the RAM copy of the vtable — the function
   pointers MAVR's preprocessing finds in the data section. *)
let fn_dispatch_vtable =
  {
    name = "dispatch_vtable";
    items =
      [
        lds 24 Layout.loop_lo;
        i (Isa.Andi (24, Layout.vtable_entries - 1));
        i (Isa.Add (24, 24));
        Ldi_sym (26, Lo8, "VTABLE_VMA");
        Ldi_sym (27, Hi8, "VTABLE_VMA");
        i (Isa.Add (26, 24));
        i (Isa.Adc (27, 1));
        i (Isa.Ld (30, Isa.X_inc));
        i (Isa.Ld (31, Isa.X));
        i Isa.Icall;
        ret;
      ];
  }

let fn_control_step ~roots =
  { name = "control_step"; items = List.map (fun r -> call r) roots @ [ ret ] }

let fn_main =
  {
    name = "__main";
    items =
      [
        lbl "main_loop";
        ldi 24 1;
        i (Isa.Out (Io.wdt_feed, 24));
        call "mavlink_poll";
        call "sensor_update";
        call "control_step";
        call "dispatch_vtable";
        call "telemetry_send";
        lds 24 Layout.loop_lo;
        i (Isa.Inc 24);
        sts Layout.loop_lo 24;
        sts Layout.telem 24;
        brne "ml_nohi";
        lds 24 Layout.loop_hi;
        i (Isa.Inc 24);
        sts Layout.loop_hi 24;
        sts (Layout.telem + 1) 24;
        lbl "ml_nohi";
        rjmp "main_loop";
      ];
  }

let fn_reset =
  {
    name = "__reset";
    items =
      [
        i (Isa.Eor (1, 1));
        Ldi_sym (28, Lo8, "STACK_TOP");
        Ldi_sym (29, Hi8, "STACK_TOP");
        i (Isa.Out (Io.spl, 28));
        i (Isa.Out (Io.sph, 29));
        (* copy .data initializer from flash to SRAM *)
        Ldi_sym (30, Lo8, "__data_init");
        Ldi_sym (31, Hi8, "__data_init");
        Ldi_sym (26, Lo8, "DATA_VMA");
        Ldi_sym (27, Hi8, "DATA_VMA");
        Ldi_sym (24, Lo8, "__data_init_end");
        Ldi_sym (25, Hi8, "__data_init_end");
        lbl "rst_copy";
        i (Isa.Cp (30, 24));
        i (Isa.Cpc (31, 25));
        breq "rst_copied";
        i (Isa.Lpm (0, true));
        i (Isa.St (Isa.X_inc, 0));
        rjmp "rst_copy";
        lbl "rst_copied";
        sts Layout.st_state 1;
        sts Layout.loop_lo 1;
        sts Layout.loop_hi 1;
        sts Layout.txseq 1;
        sts Layout.gcs_beat 1;
        sts Layout.tick 1;
        sts (Layout.tick + 1) 1;
        call "config_load";
        (* 4096-cycle periodic timer, interrupts on. *)
        ldi 24 63;
        i (Isa.Out (Io.ocr, 24));
        ldi 24 1;
        i (Isa.Out (Io.tccr, 24));
        i (Isa.Bset 7) (* sei *);
        call "__main";
        lbl "rst_hang";
        rjmp "rst_hang";
      ];
  }

let fn_bad_irq = { name = "__bad_irq"; items = [ lbl "irq_hang"; rjmp "irq_hang" ] }

(* Timer-compare ISR: increments a 16-bit tick counter.  Saves exactly
   what it touches (r24 and SREG), as a hand-written AVR ISR would. *)
let fn_timer_isr =
  {
    name = "__timer_isr";
    items =
      [
        i (Isa.Push 24);
        i (Isa.In (24, Io.sreg));
        i (Isa.Push 24);
        lds 24 Layout.tick;
        i (Isa.Inc 24);
        sts Layout.tick 24;
        brne "tisr_done";
        lds 24 (Layout.tick + 1);
        i (Isa.Inc 24);
        sts (Layout.tick + 1) 24;
        lbl "tisr_done";
        i (Isa.Pop 24);
        i (Isa.Out (Io.sreg, 24));
        i (Isa.Pop 24);
        i Isa.Reti;
      ];
  }

(* EEPROM driver (Fig. 1's third memory): byte read/write through the
   EEAR/EEDR/EECR strobe protocol. *)
let fn_eeprom_read_byte =
  {
    name = "eeprom_read_byte";
    items =
      [
        i (Isa.Out (Io.eearl, 24));
        i (Isa.Out (Io.eearh, 25));
        i (Isa.Sbi (Io.eecr, 0)) (* EERE strobe *);
        i (Isa.In (24, Io.eedr));
        ret;
      ];
  }

let fn_eeprom_write_byte =
  {
    name = "eeprom_write_byte";
    items =
      [
        i (Isa.Out (Io.eearl, 24));
        i (Isa.Out (Io.eearh, 25));
        i (Isa.Out (Io.eedr, 22));
        i (Isa.Sbi (Io.eecr, 1)) (* EEPE strobe *);
        ret;
      ];
  }

(* Load the persistent gyro calibration from EEPROM[0..1] at boot; an
   erased cell pair (0xFFFF) means factory default 0. *)
let fn_config_load =
  {
    name = "config_load";
    items =
      [
        ldi 24 0;
        ldi 25 0;
        call "eeprom_read_byte";
        i (Isa.Mov (20, 24));
        ldi 24 1;
        ldi 25 0;
        call "eeprom_read_byte";
        i (Isa.Mov (21, 24));
        i (Isa.Cpi (20, 0xFF));
        brne "cfl_store";
        i (Isa.Cpi (21, 0xFF));
        brne "cfl_store";
        ldi 20 0;
        ldi 21 0;
        lbl "cfl_store";
        sts Layout.gyro_cfg 20;
        sts (Layout.gyro_cfg + 1) 21;
        ret;
      ];
  }

(* CFG_SAVE (msgid 200): persist the first two staged payload bytes as the
   gyro calibration — in SRAM for immediate effect and in EEPROM so the
   setting survives reboots and MAVR reflashes. *)
let fn_handle_cfg_save =
  {
    name = "handle_cfg_save";
    items =
      [
        lds 22 Layout.stage;
        sts Layout.gyro_cfg 22;
        ldi 24 0;
        ldi 25 0;
        call "eeprom_write_byte";
        lds 22 (Layout.stage + 1);
        sts (Layout.gyro_cfg + 1) 22;
        ldi 24 1;
        ldi 25 0;
        call "eeprom_write_byte";
        ret;
      ];
  }

(* Shared pop-run epilogue (the -mcall-prologues consolidation, §VI-B1):
   functions jump into it at an offset selecting how many registers to
   restore.  Layout (word offsets): 0:pop r15 1:pop r14 ... 5:pop r10
   6:pop r29 7:pop r28 8:ret. *)
let fn_epilogue_restores =
  {
    name = "__epilogue_restores__";
    items = List.map (fun r -> i (Isa.Pop r)) [ 15; 14; 13; 12; 11; 10; 29; 28 ] @ [ ret ];
  }

(* A safe mid-entry shared tail: jumping to word offset 0/2/4 performs
   3/2/1 stores then returns — the "trampoline that does not point exactly
   to a symbol address" case of §VI-B3. *)
let fn_shared_tail =
  {
    name = "__shared_tail";
    items =
      [
        sts (Layout.cmd_area + 8) 24;
        sts (Layout.cmd_area + 9) 24;
        sts (Layout.cmd_area + 10) 24;
        ret;
      ];
  }

let function_names =
  [
    "__reset"; "__bad_irq"; "__main"; "mavlink_poll"; "rx_byte"; "rx_crc_step"; "rx_finalize";
    "handle_msg"; "handle_param_set"; "param_store"; "handle_command"; "sensor_update";
    "tx_crc_step"; "tx_send_crc"; "tx_send_raw"; "send_frame"; "telemetry_send"; "dispatch_vtable";
    "control_step"; "eeprom_read_byte"; "eeprom_write_byte"; "config_load";
    "handle_cfg_save"; "__timer_isr"; "__epilogue_restores__"; "__shared_tail";
  ]

let functions ~toolchain ~roots () =
  [
    fn_reset;
    fn_bad_irq;
    fn_main;
    fn_mavlink_poll;
    fn_rx_byte;
    fn_rx_crc_step;
    fn_rx_finalize;
    fn_handle_msg;
    fn_handle_param_set ~vulnerable:toolchain.Profile.vulnerable;
    fn_param_store;
    fn_handle_command;
    fn_sensor_update;
    fn_tx_crc_step;
    fn_tx_send_crc;
    fn_tx_send_raw;
    fn_send_frame;
    fn_telemetry_send;
    fn_dispatch_vtable;
    fn_control_step ~roots;
    fn_eeprom_read_byte;
    fn_eeprom_write_byte;
    fn_config_load;
    fn_handle_cfg_save;
    fn_timer_isr;
    fn_epilogue_restores;
    fn_shared_tail;
  ]

let vectors () =
  (* 57 interrupt vectors (ATmega2560): reset, the timer-compare handler,
     and spin stubs for the unused ones; then the early-flash rodata kept
     within 16-bit lpm reach (the .data initializer and CRC_EXTRA table
     are appended by Build). *)
  Jmp_sym "__reset" :: Jmp_sym "__timer_isr"
  :: List.init (Mavr_avr.Device.Vector.count - 2) (fun _ -> Jmp_sym "__bad_irq")
