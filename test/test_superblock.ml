(* Superblock engine equivalence and the cycle-accounting bugfix sweep:
   differential fuzz against single-step ground truth over randomized
   firmware of all three profiles (with mid-run SEU flash flips and
   corrupted reflash lifetimes rewriting flash), on both the
   flight controller's ATmega2560 and the master's ATmega1284P, with the
   shadow-stack monitor off and on; the saturating run budget,
   masked-vs-dispatch interrupt latency, and mid-run block-tap
   toggling. *)

module Cpu = Mavr_avr.Cpu
module Isa = Mavr_avr.Isa
module Io = Mavr_avr.Device.Io
module Opcode = Mavr_avr.Opcode
module Image = Mavr_obj.Image
module Device = Mavr_avr.Device
module Splitmix = Mavr_prng.Splitmix
module Seu = Mavr_fault.Seu
module Reflash = Mavr_fault.Reflash

let load ?(superblocks = true) insns =
  let cpu = Cpu.create () in
  Cpu.set_superblocks cpu superblocks;
  Cpu.load_program cpu (String.concat "" (List.map Opcode.encode_bytes insns));
  cpu

let arch_state cpu =
  ( Cpu.pc cpu,
    Cpu.sp cpu,
    Cpu.sreg cpu,
    Cpu.cycles cpu,
    Cpu.instructions_retired cpu,
    Cpu.halted cpu,
    Cpu.interrupts_taken cpu,
    Cpu.watchdog_feeds cpu,
    Cpu.sp_watermark cpu,
    Cpu.shadow_depth cpu,
    List.init 32 (Cpu.reg cpu) )

(* [shadow] arms the shadow-stack monitor with that per-call/ret
   overhead, the cost the superblock entry margin must cover. *)
let boot_pair ?(device = Device.atmega2560) ?shadow (image : Image.t) =
  let mk superblocks =
    let cpu = Cpu.create ~device () in
    Cpu.set_superblocks cpu superblocks;
    Cpu.load_program cpu image.Image.code;
    Option.iter (fun overhead_cycles -> Cpu.enable_shadow_stack cpu ~overhead_cycles) shadow;
    cpu
  in
  (mk true, mk false)

(* The engines may legally stop at different points for the same budget
   (block-boundary overshoot), so single-step the laggard until both sit
   on the same cycle count — both trajectories visit the same
   instruction-boundary states, so this converges iff they agree. *)
let align_pair a b =
  let rec go fuel =
    let ca = Cpu.cycles a and cb = Cpu.cycles b in
    if ca = cb || fuel = 0 then ()
    else if ca < cb && Cpu.halted a = None then (Cpu.step a; go (fuel - 1))
    else if cb < ca && Cpu.halted b = None then (Cpu.step b; go (fuel - 1))
    else ()
  in
  go 100_000

let check_same name fused stepped =
  Alcotest.(check bool) (name ^ ": architectural state identical") true
    (arch_state fused = arch_state stepped);
  Alcotest.(check string) (name ^ ": identical UART output")
    (Cpu.uart_take_tx stepped) (Cpu.uart_take_tx fused)

(* ---- differential fuzz ---------------------------------------------- *)

let frame seq =
  Mavr_mavlink.Frame.encode
    { Mavr_mavlink.Frame.seq; sysid = 255; compid = 0; msgid = 76; payload = "go" }

(* Drive both engines through identical slices, comparing full state and
   UART output at every boundary.  [fault] additionally applies
   identically seeded SEU upsets (SRAM pokes and flash bit flips — the
   latter rewrite flash mid-run, the stale-fused-code hazard) and
   one corrupted-reflash lifetime halfway through. *)
let diff_run ?device ?shadow name (image : Image.t) ~seed ~slices ~slice_cycles ~fault =
  let fused, stepped = boot_pair ?device ?shadow image in
  (* The block tap splits the fused engine's retirements into fused and
     single-stepped ones, so the compile threshold cannot quietly turn
     this comparison into stepping against stepping. *)
  let in_blocks = ref 0 and stepped_insns = ref 0 in
  Cpu.set_block_tap fused
    ~on_block:(fun _ n -> in_blocks := !in_blocks + n)
    ~on_step:(fun _ _ -> incr stepped_insns);
  let seu_for s =
    Seu.create
      ~rng:(Splitmix.create ~seed:(s * 7919))
      { Seu.sram_flip_ppm = 400_000; flash_flip_ppm = 400_000 }
  in
  let seu_fused = seu_for seed and seu_stepped = seu_for seed in
  for slice = 1 to slices do
    if slice mod 3 = 0 then begin
      let f = frame slice in
      Cpu.uart_send fused f;
      Cpu.uart_send stepped f
    end;
    ignore (Cpu.run fused ~max_cycles:slice_cycles);
    ignore (Cpu.run stepped ~max_cycles:slice_cycles);
    align_pair fused stepped;
    check_same (Printf.sprintf "%s seed=%d slice=%d" name seed slice) fused stepped;
    if fault then begin
      Seu.tick seu_fused fused;
      Seu.tick seu_stepped stepped;
      if slice = slices / 2 then begin
        let rf =
          Reflash.create
            ~rng:(Splitmix.create ~seed:(seed * 31))
            { Reflash.page_corrupt_ppm = 200_000; max_retries = 3 }
        in
        let streamed, _ = Reflash.stream rf ~page_bytes:256 image.Image.code in
        Cpu.load_program fused streamed;
        Cpu.load_program stepped streamed
      end
    end
  done;
  (* Every case retires 21% or more in blocks; a tenth is the floor. *)
  let share = 100 * !in_blocks / max 1 (!in_blocks + !stepped_insns) in
  if share < 10 then
    Alcotest.failf "%s seed=%d: blocks retired only %d%% of the instructions" name seed share

(* Randomized firmware: a fresh generator seed rebuilds each profile
   with different code layout; the mavr profile additionally gets
   per-lifetime layout randomization (the MAVR defense itself). *)
let randomized_images (name, variant) =
  let build gen_seed =
    (Mavr_firmware.Build.build (Mavr_firmware.Profile.tiny ~n:120 ~seed:gen_seed) variant)
      .Mavr_firmware.Build.image
  in
  [ (name ^ "/gen99", build 99); (name ^ "/gen7", build 7) ]

let fuzz_profiles =
  lazy
    (List.concat_map randomized_images
       [
         ("mavr", Mavr_firmware.Profile.mavr);
         ("stock", Mavr_firmware.Profile.stock);
         ("patched", Mavr_firmware.Profile.patched);
       ]
    @ (* layout-randomized reflash generations of the mavr image *)
    List.map
      (fun seed ->
        ( Printf.sprintf "mavr/layout%d" seed,
          Mavr_core.Randomize.randomize ~seed (Helpers.build_mavr ()).image ))
      [ 3; 17 ])

let test_differential_clean () =
  List.iter
    (fun (name, image) ->
      diff_run name image ~seed:11 ~slices:8 ~slice_cycles:40_000 ~fault:false)
    (Lazy.force fuzz_profiles)

let test_differential_faulted () =
  List.iter
    (fun (name, image) ->
      List.iter
        (fun seed -> diff_run name image ~seed ~slices:10 ~slice_cycles:25_000 ~fault:true)
        [ 5; 23 ])
    (Lazy.force fuzz_profiles)

(* The master's ATmega1284P has a 2-byte PC: calls and returns push one
   byte less and cost one cycle less, and the trace compiler's static
   costs must agree with the stepper on that.  The shadow-stack monitor charges its overhead on every call
   and return, which the superblock entry margin must cover, or a timer
   interrupt lands inside a fused block. *)
let test_differential_1284p () =
  List.iter
    (fun (name, image) ->
      diff_run ~device:Device.atmega1284p (name ^ "@1284p") image ~seed:11 ~slices:8
        ~slice_cycles:40_000 ~fault:false)
    (Lazy.force fuzz_profiles)

let test_differential_shadow_stack () =
  List.iter
    (fun (device : Device.t) ->
      List.iter
        (fun (name, image) ->
          let name = Printf.sprintf "%s@%s+shadow" name device.name in
          diff_run ~device ~shadow:40 name image ~seed:11 ~slices:8 ~slice_cycles:40_000
            ~fault:false;
          diff_run ~device ~shadow:40 name image ~seed:5 ~slices:10 ~slice_cycles:25_000
            ~fault:true)
        (Lazy.force fuzz_profiles))
    [ Device.atmega2560; Device.atmega1284p ]

let test_attack_identical_on_and_off () =
  (* The stealthy ROP chain exercises mid-instruction gadget entries and
     the cli window; the fused engine must land the identical write. *)
  let b, ti, obs = Helpers.attack_target () in
  let run superblocks =
    let cpu = Cpu.create () in
    Cpu.set_superblocks cpu superblocks;
    Cpu.load_program cpu b.image.Image.code;
    Cpu.io_poke cpu Io.gyro_lo 0x34;
    Cpu.io_poke cpu Io.gyro_hi 0x12;
    ignore (Cpu.run cpu ~max_cycles:60_000);
    List.iter (Cpu.uart_send cpu)
      (Mavr_core.Rop.v2_stealthy ti obs
         ~writes:
           [
             Mavr_core.Rop.write_u16 obs ~addr:Mavr_firmware.Layout.gyro_cfg
               ~value:0x4000 ~neighbour:0;
           ]);
    ignore (Cpu.run cpu ~max_cycles:3_000_000);
    cpu
  in
  let on = run true and off = run false in
  align_pair on off;
  let cfg cpu =
    Cpu.data_peek cpu Mavr_firmware.Layout.gyro_cfg
    lor (Cpu.data_peek cpu (Mavr_firmware.Layout.gyro_cfg + 1) lsl 8)
  in
  Alcotest.(check int) "attack landed under superblocks" 0x4000 (cfg on);
  Alcotest.(check int) "attack landed when stepping" 0x4000 (cfg off);
  Alcotest.(check bool) "identical attack outcome" true (arch_state on = arch_state off)

(* ---- timer- and budget-dense differential ----------------------------- *)

(* A timer-driven loop whose traces end every way a trace can: in a
   terminator ([ret], after a static call inside the trace, whose
   shadow-stack overhead the entry margin must cover), linked to a
   compiled callee with the static call as the last slot, linked after
   a jump, and cut by the length cap in the middle of a straight run.
   [sub] is first made hot through [icall], so it has a block of its
   own before the loop's trace reaches [rcall sub]; [leaf] is only
   reached by [rcall], so the caller's trace runs through it.  [pad]
   nops before the loop shift every instruction boundary against the
   compare matches and the run budgets; the ISR folds the loop counters
   into r3/r4 at each interrupt, so an interrupt taken one instruction
   late changes the state. *)
let timer_dense_program ~ocr ~pad =
  let module A = Mavr_asm.Assembler in
  let i x = A.Insn x in
  let program =
    {
      A.vectors = [ A.Jmp_sym "main"; A.Jmp_sym "isr" ];
      funcs =
        [
          {
            A.name = "main";
            items =
              List.map i Isa.[ Ldi (24, ocr); Out (Io.ocr, 24); Ldi (24, 1); Out (Io.tccr, 24) ]
              @ [ A.Ldi_sym (30, A.Lo8_word, "sub"); A.Ldi_sym (31, A.Hi8_word, "sub") ]
              @ List.map i Isa.[ Ldi (19, 20); Bset 7 ]
              @ [ A.Label "warm"; i Isa.Icall; i (Isa.Dec 19); A.Br (`Cbit 1, "warm") ]
              @ List.init pad (fun _ -> i Isa.Nop)
              @ [ A.Label "loop" ]
              @ List.map i Isa.[ Inc 16; Adiw (24, 1) ]
              @ [ A.Rcall_sym "sub" ]
              @ List.map i Isa.[ Inc 16; Sbrc (16, 1); Inc 20 ]
              @ [ A.Rcall_sym "leaf" ]
              @ List.init 70 (fun _ -> i (Isa.Inc 21))
              @ [ A.Rjmp_sym "loop" ];
          };
          { A.name = "sub"; items = List.map i Isa.[ Inc 17; Inc 17; Ret ] };
          { A.name = "leaf"; items = List.map i Isa.[ Inc 22; Ret ] };
          { A.name = "isr"; items = List.map i Isa.[ Add (3, 16); Add (4, 17); Reti ] };
        ];
      data = [];
      defines = [];
    }
  in
  (A.assemble ~relax:false program).A.code

(* Sweep the loop's phase against compare matches (two periods) and run
   budgets (a different length every slice), with the shadow-stack
   monitor off and on.  Both engines stop at the same instruction
   boundary for every budget, so states are compared at every slice
   end with no alignment, and so are the interrupts each engine took. *)
let test_differential_timer_dense () =
  List.iter
    (fun shadow ->
      List.iter
        (fun ocr ->
          for pad = 0 to 63 do
            let code = timer_dense_program ~ocr ~pad in
            let mk superblocks =
              let cpu = Cpu.create () in
              Cpu.set_superblocks cpu superblocks;
              Cpu.load_program cpu code;
              Option.iter (fun overhead_cycles -> Cpu.enable_shadow_stack cpu ~overhead_cycles) shadow;
              let irqs = ref [] in
              Cpu.set_irq_tap cpu
                (Some (fun ~latency ~masked -> irqs := (Cpu.cycles cpu, latency, masked) :: !irqs));
              (cpu, irqs)
            in
            let (fused, fused_irqs), (stepped, stepped_irqs) = (mk true, mk false) in
            let in_blocks = ref 0 in
            Cpu.set_block_tap fused
              ~on_block:(fun _ n -> in_blocks := !in_blocks + n)
              ~on_step:(fun _ _ -> ());
            for slice = 1 to 40 do
              let max_cycles = 150 + (slice * 37 mod 331) in
              ignore (Cpu.run fused ~max_cycles);
              ignore (Cpu.run stepped ~max_cycles);
              let name =
                Printf.sprintf "ocr=%d pad=%d shadow=%b slice=%d" ocr pad (shadow <> None) slice
              in
              check_same name fused stepped;
              Alcotest.(check bool) (name ^ ": identical interrupts") true
                (!fused_irqs = !stepped_irqs)
            done;
            Alcotest.(check bool) "interrupts were taken" true (Cpu.interrupts_taken fused > 10);
            (* 32% or more on every program; a tenth is the floor. *)
            Alcotest.(check bool) "blocks retired a tenth of the instructions" true
              (10 * !in_blocks >= Cpu.instructions_retired fused)
          done)
        [ 3; 9 ])
    [ None; Some 40 ]

(* The compile threshold: a loop head entered 15 times is only ever
   stepped; entered 16 times, it is compiled and run as a block.  Both
   end in the state single-stepping reaches. *)
let test_compile_threshold () =
  List.iter
    (fun (n, compiled) ->
      let prog = Isa.[ Ldi (16, n); (* word 1 *) Dec 16; Brbc (1, -2); Break ] in
      let fused = load prog and stepped = load ~superblocks:false prog in
      let blocks = ref 0 in
      Cpu.set_block_tap fused ~on_block:(fun _ _ -> incr blocks) ~on_step:(fun _ _ -> ());
      ignore (Cpu.run fused ~max_cycles:10_000);
      ignore (Cpu.run stepped ~max_cycles:10_000);
      Alcotest.(check bool) (Printf.sprintf "%d entries: block ran" n) compiled (!blocks > 0);
      check_same (Printf.sprintf "%d entries" n) fused stepped)
    [ (15, false); (16, true); (40, true) ]

(* inc writes V, asr overwrites every flag inc wrote, and brlt branches
   on S inside a hot loop.  asr once took S from the V it replaced, and
   a liveness table that missed that read made blocks and stepping
   disagree here; asr now sets S = C and reads no flag, so inc's flags
   are dead and may be skipped, and both engines must still agree. *)
let test_asr_after_v_writer () =
  let prog =
    Isa.
      [
        Ldi (20, 40);
        (* word 1 *) Ldi (16, 0x7F);
        Inc 16;
        Asr 17;
        Brbs (Flag.s, 1);
        Inc 18;
        Dec 20;
        Brbc (Flag.z, -7);
        Break;
      ]
  in
  let fused = load prog and stepped = load ~superblocks:false prog in
  let blocks = ref 0 in
  Cpu.set_block_tap fused ~on_block:(fun _ _ -> incr blocks) ~on_step:(fun _ _ -> ());
  ignore (Cpu.run fused ~max_cycles:100_000);
  ignore (Cpu.run stepped ~max_cycles:100_000);
  Alcotest.(check bool) "a block ran" true (!blocks > 0);
  check_same "inc; asr; brlt" fused stepped

(* ---- ALU trace forms -------------------------------------------------- *)

(* The trace compiler gives a pure ALU instruction one of three forms,
   depending on what follows it in the trace: its flags live (the trace
   ends after it), its flags dead (an [add] overwrites every flag it
   writes; a compare then compiles to nothing), and fused with a
   following [brbs]/[brbc] on a flag it writes.  Each form runs every
   operand value against single-stepping, with SREG entering with C
   clear (Z, V, H set) and C set (N, S, T set).  Operands: r16 and r17
   (r16 and every K for the immediate forms; for adiw/sbiw, r25:r24
   with every K, every low byte and six high bytes at the carry, sign
   and zero edges); the killer [add] works on r20/r21. *)

type alu_form = Live | Dead | Pair of bool * int (* brbs?, SREG bit *)

type alu_operands =
  | Bin of (int -> int -> Isa.t) (* every r16 x r17 *)
  | Imm of (int -> int -> Isa.t) (* every r16 x K *)
  | Un of (int -> Isa.t) (* every r16 *)
  | Word of (int -> int -> Isa.t) (* r25:r24 x every K of 0..63 *)

let alu_cases =
  let open Isa in
  let hcvzns = Flag.[ h; c; v; z; n; s ] and vzns = Flag.[ v; z; n; s ] in
  let cvzns = Flag.c :: vzns and cvzn = Flag.[ c; v; z; n ] in
  [
    ("add", Bin (fun d r -> Add (d, r)), hcvzns);
    ("adc", Bin (fun d r -> Adc (d, r)), hcvzns);
    ("sub", Bin (fun d r -> Sub (d, r)), hcvzns);
    ("sbc", Bin (fun d r -> Sbc (d, r)), hcvzns);
    ("cp", Bin (fun d r -> Cp (d, r)), hcvzns);
    ("cpc", Bin (fun d r -> Cpc (d, r)), hcvzns);
    ("and", Bin (fun d r -> And (d, r)), vzns);
    ("or", Bin (fun d r -> Or (d, r)), vzns);
    ("eor", Bin (fun d r -> Eor (d, r)), vzns);
    ("mul", Bin (fun d r -> Mul (d, r)), Flag.[ c; z ]);
    ("subi", Imm (fun d k -> Subi (d, k)), hcvzns);
    ("sbci", Imm (fun d k -> Sbci (d, k)), hcvzns);
    ("cpi", Imm (fun d k -> Cpi (d, k)), hcvzns);
    ("andi", Imm (fun d k -> Andi (d, k)), vzns);
    ("ori", Imm (fun d k -> Ori (d, k)), vzns);
    ("com", Un (fun d -> Com d), cvzns);
    ("neg", Un (fun d -> Neg d), hcvzns);
    ("inc", Un (fun d -> Inc d), vzns);
    ("dec", Un (fun d -> Dec d), vzns);
    ("lsr", Un (fun d -> Lsr d), cvzns);
    ("ror", Un (fun d -> Ror d), cvzns);
    ("asr", Un (fun d -> Asr d), cvzns);
    ("adiw", Word (fun d k -> Adiw (d, k)), cvzn);
    ("sbiw", Word (fun d k -> Sbiw (d, k)), cvzn);
  ]

(* One snippet per form, five words long whatever the form, so the
   immediate forms can lay one snippet per K side by side. *)
let alu_snippet form op =
  let killer = Isa.Add (20, 21) in
  match form with
  | Live -> Isa.[ op; Break; Nop; Nop; Nop ]
  | Dead -> Isa.[ op; killer; Break; Nop; Nop ]
  | Pair (set, b) ->
      let br = if set then Isa.Brbs (b, 2) else Isa.Brbc (b, 2) in
      Isa.[ op; br; killer; Break; Break ]

(* Everything an ALU snippet can change. *)
let alu_same a b =
  Cpu.pc a = Cpu.pc b
  && Cpu.cycles a = Cpu.cycles b
  && Cpu.instructions_retired a = Cpu.instructions_retired b
  && Cpu.sreg a = Cpu.sreg b
  && Cpu.halted a = Cpu.halted b
  && List.for_all (fun r -> Cpu.reg a r = Cpu.reg b r) [ 0; 1; 16; 17; 20; 21; 24; 25 ]

let alu_form_name = function
  | Live -> "flags live"
  | Dead -> "flags dead"
  | Pair (set, b) -> Printf.sprintf "%s %d" (if set then "brbs" else "brbc") b

let alu_form_diff name operands form =
  let ops =
    match operands with
    | Bin f -> [ f 16 17 ]
    | Un f -> [ f 16 ]
    | Imm f -> List.init 256 (f 16)
    | Word f -> List.init 64 (f 24)
  in
  let prog = List.concat_map (alu_snippet form) ops in
  let fused = load prog and stepped = load ~superblocks:false prog in
  let entered = ref 0 in
  Cpu.set_block_tap fused
    ~on_block:(fun info _ -> if info.Cpu.bi_pc mod 5 = 0 then incr entered)
    ~on_step:(fun _ _ -> ());
  let runs = ref 0 in
  let run_one snippet regs c =
    let go cpu =
      Cpu.reset cpu;
      Cpu.set_pc cpu (5 * snippet);
      List.iter (fun (r, v) -> Cpu.set_reg cpu r v) ((0, 0xA5) :: (1, 0x3C) :: regs);
      Cpu.io_poke cpu Io.sreg (if c = 0 then 0x2A else 0x55);
      ignore (Cpu.run cpu ~max_cycles:1_000)
    in
    incr runs;
    go fused;
    go stepped;
    if not (alu_same fused stepped) then
      Alcotest.failf "%s, %s at %s, C=%d (snippet %d): trace and stepping disagree" name
        (alu_form_name form)
        (String.concat "," (List.map (fun (r, v) -> Printf.sprintf "r%d=%d" r v) regs))
        c snippet
  in
  let killer_regs = [ (20, 0x5A); (21, 0xC3) ] in
  List.iteri
    (fun snippet _ ->
      for c = 0 to 1 do
        match operands with
        | Bin _ ->
            for a = 0 to 255 do
              for b = 0 to 255 do
                run_one snippet ((16, a) :: (17, b) :: killer_regs) c
              done
            done
        | Imm _ | Un _ ->
            for a = 0 to 255 do
              run_one snippet ((16, a) :: killer_regs) c
            done
        | Word _ ->
            List.iter
              (fun hi ->
                for lo = 0 to 255 do
                  run_one snippet ((24, lo) :: (25, hi) :: killer_regs) c
                done)
              [ 0x00; 0x01; 0x7F; 0x80; 0xFE; 0xFF ]
      done)
    ops;
  (* The first [hot_entries] - 1 entries of each snippet are stepped. *)
  let stepped_entries = 15 * List.length ops in
  if !entered < !runs - stepped_entries then
    Alcotest.failf "%s, %s: only %d of %d runs entered the trace" name (alu_form_name form)
      !entered !runs

let test_alu_trace_forms () =
  List.iter
    (fun (name, operands, written) ->
      let pairs = List.concat_map (fun b -> [ Pair (true, b); Pair (false, b) ]) written in
      List.iter (alu_form_diff name operands) (Live :: Dead :: pairs))
    alu_cases

(* ---- satellite 1: saturating run budget ----------------------------- *)

let test_max_int_budget_runs () =
  (* Pre-fix, [stop = t.cycles + max_int] wrapped negative and the loop
     returned [`Budget_exhausted] without retiring a single
     instruction. *)
  let cpu = load Isa.[ Ldi (16, 7); Break ] in
  (match Cpu.run cpu ~max_cycles:max_int with
  | `Halted Cpu.Break_hit -> ()
  | `Halted h -> Alcotest.failf "unexpected halt: %s" (Format.asprintf "%a" Cpu.pp_halt h)
  | `Budget_exhausted -> Alcotest.fail "max_int budget exhausted instantly (overflow)");
  Alcotest.(check int) "program actually ran" 7 (Cpu.reg cpu 16);
  (* Same for the other two entry points. *)
  let cpu = load Isa.[ Ldi (17, 9); Break ] in
  (match Cpu.run_until_halt cpu ~max_cycles:max_int with
  | Some Cpu.Break_hit -> ()
  | _ -> Alcotest.fail "run_until_halt overflowed the budget");
  let cpu = load Isa.[ Ldi (18, 4); Rjmp (-1) ] in
  match Cpu.run_until cpu ~max_cycles:max_int (fun c -> Cpu.reg c 18 = 4) with
  | `Pred -> ()
  | _ -> Alcotest.fail "run_until overflowed the budget"

let test_overshoot_bounded_by_one_block () =
  (* A long straight-line block entered with a 1-cycle budget: execution
     stops at the first block boundary, i.e. overshoot < the block's
     cycle span, not unbounded. *)
  let body = List.init 40 (fun _ -> Isa.Nop) in
  let cpu = load (body @ Isa.[ Rjmp (-41) ]) in
  ignore (Cpu.run cpu ~max_cycles:1);
  Alcotest.(check bool) "made progress" true (Cpu.cycles cpu >= 1);
  (* The trace compiler follows the back-edge, so one block spans up to
     [max_block_insns] = 64 instructions; nothing here costs more than
     2 cycles, so one block is at most 128 cycles. *)
  Alcotest.(check bool) "overshoot bounded by one block" true (Cpu.cycles cpu <= 128)

(* ---- satellite 2: masked time vs dispatch latency ------------------- *)

let test_masked_latency_split () =
  (* Arm the timer with interrupts disabled, burn a long delay loop, then
     sei: the compare match pends across the masked window.  The tap must
     bill that window as [masked], not dispatch [latency]. *)
  let insns =
    Isa.[
      Jmp 4 (* reset *);
      Jmp 14 (* timer vector -> isr *);
      (* main, word 4: arm timer, period (1+1)*64 = 128 cycles *)
      Ldi (24, 1); Out (Io.ocr, 24);
      Ldi (24, 1); Out (Io.tccr, 24);
      (* delay ~3*200 cycles with I clear *)
      Ldi (25, 200);
      (* word 9: *) Dec 25;
      Brbc (1, -2) (* until Z *);
      Bset 7 (* sei, word 11 *);
      Rjmp (-1) (* word 12: idle *);
      Nop (* word 13: pad *);
      (* isr, word 14: *) Inc 20; Reti;
    ]
  in
  let events = ref [] in
  let cpu = load insns in
  Cpu.set_irq_tap cpu
    (Some (fun ~latency ~masked -> events := (latency, masked) :: !events));
  ignore (Cpu.run cpu ~max_cycles:5_000);
  (match List.rev !events with
  | [] -> Alcotest.fail "no interrupt taken"
  | (latency, masked) :: _rest ->
      (* The first pending compare spent the delay loop masked: roughly
         3*200 - 128 cycles, far above any dispatch latency. *)
      Alcotest.(check bool) "masked window billed separately" true (masked > 300);
      Alcotest.(check bool) "dispatch latency small" true (latency >= 0 && latency < 20));
  (* Identical split with superblocks off. *)
  let events_off = ref [] in
  let cpu = load ~superblocks:false insns in
  Cpu.set_irq_tap cpu
    (Some (fun ~latency ~masked -> events_off := (latency, masked) :: !events_off));
  ignore (Cpu.run cpu ~max_cycles:5_000);
  Alcotest.(check bool) "split identical on/off" true (!events = !events_off)

(* ---- satellite 3: tap toggling at block boundaries ------------------ *)

let counting_program =
  (* A bounded loop long enough to span several fused traces even with
     the 64-instruction unrolling cap: r16 counts down from 200, then
     break. *)
  Isa.[ Ldi (16, 200); (* word 1 *) Dec 16; Brbc (1, -2); Break ]

let test_tap_removed_from_inside_callback () =
  let reference = load counting_program in
  ignore (Cpu.run reference ~max_cycles:1_000);
  let cpu = load counting_program in
  let blocks = ref 0 and late = ref 0 and cleared = ref false in
  let on_block _info _count =
    if !cleared then incr late;
    incr blocks;
    if !blocks = 2 then begin
      (* Clear from inside the callback: the tap must stop at the next
         boundary, neither firing again nor perturbing execution. *)
      Cpu.clear_block_tap cpu;
      cleared := true
    end
  in
  Cpu.set_block_tap cpu ~on_block ~on_step:(fun _ _ -> if !cleared then incr late);
  ignore (Cpu.run cpu ~max_cycles:1_000);
  Alcotest.(check int) "block tap fired until self-removal" 2 !blocks;
  Alcotest.(check int) "nothing fired after removal" 0 !late;
  Alcotest.(check bool) "tap inactive" false (Cpu.block_tap_active cpu);
  Alcotest.(check bool) "execution unperturbed" true
    (arch_state cpu = arch_state reference)

let test_tap_reinstalled_on_later_run () =
  (* Three slices: tapped, untapped, tapped again.  The loop needs ~600
     cycles, so each slice has work left to observe. *)
  let reference = load counting_program in
  List.iter (fun max_cycles -> ignore (Cpu.run reference ~max_cycles)) [ 200; 200; 1_000 ];
  let cpu = load counting_program in
  let fired = Array.make 3 0 and phase = ref 0 in
  let install () =
    Cpu.set_block_tap cpu
      ~on_block:(fun _ n -> fired.(!phase) <- fired.(!phase) + n)
      ~on_step:(fun _ _ -> fired.(!phase) <- fired.(!phase) + 1)
  in
  install ();
  ignore (Cpu.run cpu ~max_cycles:200);
  Cpu.clear_block_tap cpu;
  phase := 1;
  ignore (Cpu.run cpu ~max_cycles:200);
  phase := 2;
  install ();
  ignore (Cpu.run cpu ~max_cycles:1_000);
  Alcotest.(check bool) "tap fired on the first run" true (fired.(0) > 0);
  Alcotest.(check int) "silent while cleared" 0 fired.(1);
  Alcotest.(check bool) "re-installed tap fires again" true (fired.(2) > 0);
  Alcotest.(check bool) "halted on break" true (Cpu.halted cpu = Some Cpu.Break_hit);
  Alcotest.(check bool) "execution unperturbed" true
    (arch_state cpu = arch_state reference)

let test_block_tap_counts_partition_retired () =
  let cpu = load counting_program in
  let seen = ref 0 in
  Cpu.set_block_tap cpu
    ~on_block:(fun info count ->
      Alcotest.(check bool) "count within block" true
        (count >= 1 && count <= Array.length info.Cpu.bi_insns);
      seen := !seen + count)
    ~on_step:(fun _ _ -> incr seen);
  ignore (Cpu.run cpu ~max_cycles:1_000);
  Alcotest.(check int) "block counts partition retirements"
    (Cpu.instructions_retired cpu) !seen

let test_superblocks_toggle_mid_run () =
  let image = (Helpers.build_mavr ()).image in
  let run toggle =
    let cpu = Cpu.create () in
    Cpu.load_program cpu image.Image.code;
    ignore (Cpu.run cpu ~max_cycles:50_000);
    if toggle then Cpu.set_superblocks cpu false;
    ignore (Cpu.run cpu ~max_cycles:50_000);
    if toggle then Cpu.set_superblocks cpu true;
    ignore (Cpu.run cpu ~max_cycles:50_000);
    cpu
  in
  let toggled = run true and plain = run false in
  align_pair toggled plain;
  Alcotest.(check bool) "mid-run toggle equivalent" true
    (arch_state toggled = arch_state plain)

(* Superblocks switched on from a tap, mid-run, after a reflash made
   while they were off, must not run with the previous image's (smaller)
   tables, or they read past their end. *)
let test_switch_on_after_reflash () =
  let body = List.init 200 (fun _ -> Isa.Inc 17) @ Isa.[ Rjmp (-201) ] in
  let two_images ~superblocks =
    let cpu = load ~superblocks Isa.[ Ldi (16, 1); Rjmp (-1) ] in
    ignore (Cpu.run cpu ~max_cycles:1_000);
    cpu
  in
  let reflash cpu = Cpu.load_program cpu (String.concat "" (List.map Opcode.encode_bytes body)) in
  let reference = two_images ~superblocks:false in
  reflash reference;
  ignore (Cpu.run reference ~max_cycles:20_000);
  let cpu = two_images ~superblocks:true in
  Cpu.set_superblocks cpu false;
  reflash cpu;
  let steps = ref 0 in
  Cpu.set_block_tap cpu
    ~on_block:(fun _ _ -> ())
    ~on_step:(fun _ _ ->
      incr steps;
      if !steps = 50 then Cpu.set_superblocks cpu true);
  ignore (Cpu.run cpu ~max_cycles:20_000);
  Alcotest.(check bool) "superblocks flipped on mid-run" true
    (arch_state cpu = arch_state reference)

(* Flash rewritten from a tap, in the middle of a run: the code that
   runs next must be the new code, under either engine.  A hot loop
   [inc r16; rjmp] is rewritten to [inc r17; rjmp] after the first block
   (superblocks on) or before a stepped [rjmp] (off, so the instruction
   already fetched is the same in both); before the run returns, r17
   must count and r16 must stop. *)
let test_page_write_mid_run () =
  let page = Device.atmega2560.Device.flash_page_bytes in
  let page_of r =
    let code = String.concat "" (List.map Opcode.encode_bytes Isa.[ Ldi (16, 0); Inc r; Rjmp (-2) ]) in
    code ^ String.make (page - String.length code) '\xff'
  in
  List.iter
    (fun superblocks ->
      let cpu = Cpu.create () in
      Cpu.set_superblocks cpu superblocks;
      Cpu.load_program cpu (page_of 16);
      let at_rewrite = ref None and steps = ref 0 in
      let rewrite () =
        if !at_rewrite = None then begin
          at_rewrite := Some (Cpu.reg cpu 16);
          Cpu.flash_write_page cpu ~page_addr:0 (page_of 17)
        end
      in
      Cpu.set_block_tap cpu
        ~on_block:(fun _ _ -> rewrite ())
        ~on_step:(fun _ insn ->
          incr steps;
          match insn with
          | Isa.Rjmp _ when (not superblocks) && !steps >= 100 -> rewrite ()
          | _ -> ());
      ignore (Cpu.run cpu ~max_cycles:20_000);
      let name = if superblocks then "superblocks" else "stepper" in
      Alcotest.(check bool) (name ^ ": rewritten mid-run") true (!at_rewrite <> None);
      Alcotest.(check (option int)) (name ^ ": old loop stopped") !at_rewrite
        (Some (Cpu.reg cpu 16));
      Alcotest.(check bool) (name ^ ": new loop ran") true (Cpu.reg cpu 17 > 0))
    [ true; false ]

let () =
  Alcotest.run "superblock"
    [
      ( "differential",
        [
          Alcotest.test_case "clean profiles vs single-step" `Quick test_differential_clean;
          Alcotest.test_case "SEU + corrupted reflash epochs" `Quick
            test_differential_faulted;
          Alcotest.test_case "ATmega1284P vs single-step" `Quick test_differential_1284p;
          Alcotest.test_case "shadow stack on, both chips" `Quick
            test_differential_shadow_stack;
          Alcotest.test_case "ROP attack identical on/off" `Quick
            test_attack_identical_on_and_off;
          Alcotest.test_case "compare matches and budgets at every offset" `Quick
            test_differential_timer_dense;
          Alcotest.test_case "compile threshold" `Quick test_compile_threshold;
          Alcotest.test_case "asr after a V writer in a hot loop" `Quick
            test_asr_after_v_writer;
          Alcotest.test_case "ALU trace forms over every operand" `Quick test_alu_trace_forms;
        ] );
      ( "budget",
        [
          Alcotest.test_case "max_int budget saturates" `Quick test_max_int_budget_runs;
          Alcotest.test_case "overshoot bounded by one block" `Quick
            test_overshoot_bounded_by_one_block;
        ] );
      ( "irq-accounting",
        [ Alcotest.test_case "masked vs dispatch latency" `Quick test_masked_latency_split ] );
      ( "tap-toggling",
        [
          Alcotest.test_case "self-removal from callback" `Quick
            test_tap_removed_from_inside_callback;
          Alcotest.test_case "re-install on a later run" `Quick
            test_tap_reinstalled_on_later_run;
          Alcotest.test_case "block counts partition retired" `Quick
            test_block_tap_counts_partition_retired;
          Alcotest.test_case "engine toggle mid-run" `Quick test_superblocks_toggle_mid_run;
          Alcotest.test_case "switch on after a reflash" `Quick test_switch_on_after_reflash;
          Alcotest.test_case "page write mid-run" `Quick test_page_write_mid_run;
        ] );
    ]
