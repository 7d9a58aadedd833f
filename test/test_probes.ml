(* The CPU probe bundle: exact instruction-mix accounting, architectural
   invariance of the instrumentation, and the flight-recorder dump on a
   ROP-induced fault. *)

module Cpu = Mavr_avr.Cpu
module Isa = Mavr_avr.Isa
module Opcode = Mavr_avr.Opcode
module Probes = Mavr_avr.Probes
module Metrics = Mavr_telemetry.Metrics
module Json = Mavr_telemetry.Json
module Recorder = Mavr_telemetry.Recorder
module Rop = Mavr_core.Rop

let load_code code =
  let cpu = Cpu.create () in
  Cpu.load_program cpu code;
  cpu

let load insns = load_code (String.concat "" (List.map Opcode.encode_bytes insns))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let counter_value snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_value n) -> n
  | Some v -> Alcotest.failf "%s is not a counter: %a" name Metrics.pp_value v
  | None -> Alcotest.failf "%s not registered" name

(* ---- instruction mix ---- *)

let test_insn_mix_exact () =
  (* A fixed straight-line program with a known class breakdown. *)
  let cpu = load Isa.[ Ldi (16, 1); Dec 16; Nop; Push 16; Pop 16; Break ] in
  let registry = Metrics.create () in
  let _p = Probes.attach ~registry cpu in
  ignore (Cpu.run cpu ~max_cycles:1_000);
  let snap = Metrics.snapshot registry in
  Alcotest.(check int) "total" 6 (counter_value snap "avr.insn.total");
  Alcotest.(check int) "transfer (ldi)" 1 (counter_value snap "avr.insn.transfer");
  Alcotest.(check int) "alu (dec)" 1 (counter_value snap "avr.insn.alu");
  Alcotest.(check int) "system (nop+break)" 2 (counter_value snap "avr.insn.system");
  Alcotest.(check int) "store (push)" 1 (counter_value snap "avr.insn.store");
  Alcotest.(check int) "load (pop)" 1 (counter_value snap "avr.insn.load");
  Alcotest.(check int) "break halt counted" 1 (counter_value snap "avr.halt.break");
  (* The per-class counters must partition the total. *)
  let by_class =
    Array.fold_left
      (fun acc c -> acc + counter_value snap ("avr.insn." ^ c))
      0 Probes.class_names
  in
  Alcotest.(check int) "classes partition total" 6 by_class

let arch_state cpu =
  ( Cpu.pc cpu, Cpu.sp cpu, Cpu.sreg cpu, Cpu.cycles cpu, Cpu.instructions_retired cpu,
    Cpu.halted cpu, List.init 32 (Cpu.reg cpu) )

let test_probes_architecturally_invisible () =
  (* Instrumentation must not perturb execution: the same firmware run
     with and without the bundle ends in the identical state. *)
  let image = (Helpers.build_mavr ()).image in
  let run ~instrument =
    let cpu = Cpu.create () in
    Cpu.load_program cpu image.Mavr_obj.Image.code;
    if instrument then ignore (Probes.attach ~registry:(Metrics.create ()) cpu);
    ignore (Cpu.run_until_halt cpu ~max_cycles:500_000);
    arch_state cpu
  in
  Alcotest.(check bool) "identical end state" true
    (run ~instrument:true = run ~instrument:false)

let test_interrupt_latency_recorded () =
  let cpu = Helpers.boot (Helpers.build_mavr ()).image in
  let registry = Metrics.create () in
  let _p = Probes.attach ~registry cpu in
  ignore (Cpu.run_until_halt cpu ~max_cycles:500_000);
  let snap = Metrics.snapshot registry in
  Alcotest.(check bool) "timer interrupts taken" true
    (counter_value snap "avr.irq.taken" > 0);
  match List.assoc_opt "avr.irq.latency_cycles" snap with
  | Some (Metrics.Histogram_value h) ->
      Alcotest.(check int) "one latency sample per irq" (counter_value snap "avr.irq.taken")
        h.Metrics.count;
      Alcotest.(check bool) "latency bounded" true (h.Metrics.max < 100)
  | _ -> Alcotest.fail "latency histogram missing"

(* ---- flight recorder on a ROP-induced fault ---- *)

let test_fault_dump_on_crash_probe () =
  let b, ti, _obs = Helpers.attack_target () in
  let cpu = Helpers.boot b.image in
  let registry = Metrics.create () in
  let p = Probes.attach ~recorder_capacity:32 ~registry cpu in
  Alcotest.(check bool) "no dump before fault" true (Probes.last_fault_dump p = None);
  List.iter (Cpu.uart_send cpu) (Rop.crash_probe ti);
  (match Cpu.run cpu ~max_cycles:3_000_000 with
  | `Halted _ -> ()
  | `Budget_exhausted -> Alcotest.fail "crash probe did not fault the CPU");
  Alcotest.(check int) "one fault seen" 1 (Probes.faults_seen p);
  Alcotest.(check int) "wild-pc halt counted" 1
    (counter_value (Metrics.snapshot registry) "avr.halt.wild_pc");
  (match Probes.last_fault_dump p with
  | None -> Alcotest.fail "no dump captured at halt"
  | Some dump ->
      Alcotest.(check bool) "dump names the halt" true
        (contains ~affix:"wild PC" dump || contains ~affix:"wild_pc" dump));
  (* The ring retains the instructions leading up to the fault. *)
  let events = Probes.flight_record p in
  Alcotest.(check int) "full window retained" 32 (List.length events);
  let j = Probes.dump_to_json p in
  Alcotest.(check bool) "json halt reason" true
    (Option.bind (Json.path [ "halt" ] j) Json.to_str <> None);
  match Json.path [ "flight_record"; "events" ] j with
  | Some (Json.List l) -> Alcotest.(check int) "json events" 32 (List.length l)
  | _ -> Alcotest.fail "json flight record missing"

(* ---- accounting differential ---- *)

(* A reference for the bundle's execution accounting, built on the
   engine's test taps: it records every block, stepped instruction,
   interrupt and halt into its own recorder, as it happens, and counts
   the instruction mix eagerly.  The bundle must keep the same flight
   record (window, order, cycle stamps, total) and the same counters,
   however it gets there. *)

let ref_mnemonic (i : Isa.t) =
  match i with
  | Isa.Nop -> "nop" | Isa.Movw _ -> "movw" | Isa.Ldi _ -> "ldi" | Isa.Mov _ -> "mov"
  | Isa.Add _ -> "add" | Isa.Adc _ -> "adc" | Isa.Sub _ -> "sub" | Isa.Sbc _ -> "sbc"
  | Isa.And _ -> "and" | Isa.Or _ -> "or" | Isa.Eor _ -> "eor" | Isa.Cp _ -> "cp"
  | Isa.Cpc _ -> "cpc" | Isa.Cpse _ -> "cpse" | Isa.Mul _ -> "mul" | Isa.Subi _ -> "subi"
  | Isa.Sbci _ -> "sbci" | Isa.Andi _ -> "andi" | Isa.Ori _ -> "ori" | Isa.Cpi _ -> "cpi"
  | Isa.Com _ -> "com" | Isa.Neg _ -> "neg" | Isa.Inc _ -> "inc" | Isa.Dec _ -> "dec"
  | Isa.Lsr _ -> "lsr" | Isa.Ror _ -> "ror" | Isa.Asr _ -> "asr" | Isa.Swap _ -> "swap"
  | Isa.Push _ -> "push" | Isa.Pop _ -> "pop" | Isa.Ret -> "ret" | Isa.Reti -> "reti"
  | Isa.Icall -> "icall" | Isa.Ijmp -> "ijmp" | Isa.Call _ -> "call" | Isa.Jmp _ -> "jmp"
  | Isa.Rcall _ -> "rcall" | Isa.Rjmp _ -> "rjmp" | Isa.Brbs _ -> "brbs"
  | Isa.Brbc _ -> "brbc" | Isa.In _ -> "in" | Isa.Out _ -> "out" | Isa.Lds _ -> "lds"
  | Isa.Sts _ -> "sts" | Isa.Ldd _ -> "ldd" | Isa.Std _ -> "std" | Isa.Ld _ -> "ld"
  | Isa.St _ -> "st" | Isa.Adiw _ -> "adiw" | Isa.Sbiw _ -> "sbiw" | Isa.Lpm0 -> "lpm"
  | Isa.Lpm _ -> "lpm" | Isa.Sbi _ -> "sbi" | Isa.Cbi _ -> "cbi" | Isa.Sbic _ -> "sbic"
  | Isa.Sbis _ -> "sbis" | Isa.Bld _ -> "bld" | Isa.Bst _ -> "bst" | Isa.Sbrc _ -> "sbrc"
  | Isa.Sbrs _ -> "sbrs" | Isa.Elpm0 -> "elpm" | Isa.Elpm _ -> "elpm" | Isa.Bset _ -> "bset"
  | Isa.Bclr _ -> "bclr" | Isa.Wdr -> "wdr" | Isa.Sleep -> "sleep" | Isa.Break -> "break"
  | Isa.Data _ -> "(data)"

(* Mix class, by name, as listed in [Probes.class_names]. *)
let ref_class (i : Isa.t) =
  match i with
  | Isa.Add _ | Isa.Adc _ | Isa.Sub _ | Isa.Sbc _ | Isa.And _ | Isa.Or _ | Isa.Eor _
  | Isa.Cp _ | Isa.Cpc _ | Isa.Mul _ | Isa.Subi _ | Isa.Sbci _ | Isa.Andi _ | Isa.Ori _
  | Isa.Cpi _ | Isa.Com _ | Isa.Neg _ | Isa.Inc _ | Isa.Dec _ | Isa.Lsr _ | Isa.Ror _
  | Isa.Asr _ | Isa.Swap _ | Isa.Adiw _ | Isa.Sbiw _ -> "alu"
  | Isa.Movw _ | Isa.Ldi _ | Isa.Mov _ | Isa.Bld _ | Isa.Bst _ | Isa.Bset _ | Isa.Bclr _ ->
      "transfer"
  | Isa.Lds _ | Isa.Ldd _ | Isa.Ld _ | Isa.Pop _ | Isa.Lpm0 | Isa.Lpm _ | Isa.Elpm0
  | Isa.Elpm _ -> "load"
  | Isa.Sts _ | Isa.Std _ | Isa.St _ | Isa.Push _ -> "store"
  | Isa.In _ | Isa.Out _ | Isa.Sbi _ | Isa.Cbi _ -> "io"
  | Isa.Brbs _ | Isa.Brbc _ -> "branch"
  | Isa.Call _ | Isa.Rcall _ | Isa.Icall -> "call"
  | Isa.Ret | Isa.Reti -> "ret"
  | Isa.Jmp _ | Isa.Rjmp _ | Isa.Ijmp -> "jump"
  | Isa.Cpse _ | Isa.Sbic _ | Isa.Sbis _ | Isa.Sbrc _ | Isa.Sbrs _ -> "skip"
  | Isa.Nop | Isa.Wdr | Isa.Sleep | Isa.Break -> "system"
  | Isa.Data _ -> "illegal"

let ref_halt_key = function
  | Cpu.Illegal_instruction _ -> "illegal"
  | Cpu.Wild_pc _ -> "wild_pc"
  | Cpu.Break_hit -> "break"
  | Cpu.Sleep_mode -> "sleep"
  | Cpu.Rop_detected _ -> "rop_detected"

type observed = {
  events : Recorder.event list;
  total : int;
  mix : (string * int) list;  (* "total" and every class *)
  stepped : int;
}

let attach_reference ~capacity cpu =
  let r = Recorder.create ~capacity in
  let mix = Hashtbl.create 16 and stepped = ref 0 in
  let count insn =
    let c = ref_class insn in
    Hashtbl.replace mix c (1 + Option.value ~default:0 (Hashtbl.find_opt mix c))
  in
  let point ~value name = Recorder.record r ~cycle:(Cpu.cycles cpu) ~value name in
  Cpu.set_block_tap cpu
    ~on_block:(fun info n ->
      for i = 0 to n - 1 do
        count info.Cpu.bi_insns.(i)
      done;
      point ~value:(info.Cpu.bi_pc * 2) (ref_mnemonic info.Cpu.bi_insns.(0)))
    ~on_step:(fun pc insn ->
      incr stepped;
      count insn;
      point ~value:(pc * 2) (ref_mnemonic insn));
  Cpu.set_irq_tap cpu (Some (fun ~latency ~masked:_ -> point ~value:latency "irq.timer"));
  Cpu.set_halt_tap cpu
    (Some (fun h -> point ~value:(Cpu.pc_byte_addr cpu) ("halt." ^ ref_halt_key h)));
  fun () ->
    let mix_of c = Option.value ~default:0 (Hashtbl.find_opt mix c) in
    let classes = Array.to_list Probes.class_names in
    {
      events = Recorder.events r;
      total = Recorder.total_recorded r;
      mix =
        ("total", List.fold_left (fun a c -> a + mix_of c) 0 classes)
        :: List.map (fun c -> (c, mix_of c)) classes;
      stepped = !stepped;
    }

let attach_bundle ~capacity cpu =
  let registry = Metrics.create () in
  let p = Probes.attach ~recorder_capacity:capacity ~registry cpu in
  fun () ->
    let snap = Metrics.snapshot registry in
    let events = Probes.flight_record p in
    {
      events;
      total = Recorder.total_recorded (Probes.recorder p);
      mix =
        ("total", counter_value snap "avr.insn.total")
        :: List.map (fun c -> (c, counter_value snap ("avr.insn." ^ c)))
             (Array.to_list Probes.class_names);
      stepped = Probes.stepped_insns p;
    }

(* Arms the timer at the shortest period (64 cycles) and loops through
   a push/pop body, so interrupts land in and between compiled blocks. *)
let timer_dense_code () =
  let module A = Mavr_asm.Assembler in
  let module Io = Mavr_avr.Device.Io in
  let i x = A.Insn x in
  let program =
    {
      A.vectors = [ A.Jmp_sym "main"; A.Jmp_sym "isr" ];
      funcs =
        [
          {
            A.name = "main";
            items =
              List.map i
                Isa.[ Ldi (24, 0); Out (Io.ocr, 24); Ldi (24, 1); Out (Io.tccr, 24); Bset 7 ]
              @ [ A.Label "loop" ]
              @ List.map i Isa.[ Inc 16; Adiw (24, 1); Push 16; Pop 17; Inc 18; Inc 19 ]
              @ [ A.Rjmp_sym "loop" ];
          };
          { A.name = "isr"; items = List.map i Isa.[ Add (3, 16); Inc 4; Reti ] };
        ];
      data = [];
      defines = [];
    }
  in
  (Mavr_asm.Assembler.assemble ~relax:false program).Mavr_asm.Assembler.code

let run_slices cpu ~slices ~cycles =
  for _ = 1 to slices do
    ignore (Cpu.run cpu ~max_cycles:cycles)
  done

(* Each case builds a fresh CPU and returns it with the actions that
   run it: [pre] before the instrumentation is attached, [body] after. *)
type case = {
  name : string;
  setup : unit -> Cpu.t;
  pre : Cpu.t -> unit;
  body : Cpu.t -> unit;
}

let firmware_cpu () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (Helpers.build_mavr ()).image.Mavr_obj.Image.code;
  cpu

let nothing (_ : Cpu.t) = ()

let cases =
  [
    {
      name = "timer-IRQ-dense";
      setup = (fun () -> load_code (timer_dense_code ()));
      pre = nothing;
      body = (fun cpu -> run_slices cpu ~slices:40 ~cycles:997);
    };
    {
      name = "superblocks off";
      setup =
        (fun () ->
          let cpu = Cpu.create () in
          Cpu.set_superblocks cpu false;
          Cpu.load_program cpu (timer_dense_code ());
          cpu);
      pre = nothing;
      body = (fun cpu -> run_slices cpu ~slices:20 ~cycles:997);
    };
    {
      name = "mid-run load_program";
      setup = firmware_cpu;
      pre = nothing;
      body =
        (fun cpu ->
          run_slices cpu ~slices:10 ~cycles:20_000;
          Cpu.load_program cpu (timer_dense_code ());
          run_slices cpu ~slices:10 ~cycles:5_000;
          Cpu.load_program cpu (Helpers.build_mavr ()).image.Mavr_obj.Image.code;
          run_slices cpu ~slices:10 ~cycles:20_000);
    };
    {
      name = "SEU flash page write";
      setup = firmware_cpu;
      pre = nothing;
      body =
        (fun cpu ->
          let seu =
            Mavr_fault.Seu.create ~rng:(Mavr_prng.Splitmix.create ~seed:7)
              { Mavr_fault.Seu.sram_flip_ppm = 0; flash_flip_ppm = 1_000_000 }
          in
          for _ = 1 to 20 do
            ignore (Cpu.run cpu ~max_cycles:10_000);
            Mavr_fault.Seu.tick seu cpu
          done);
    };
    {
      name = "crash-probe halt";
      setup =
        (fun () ->
          let b, ti, _obs = Helpers.attack_target () in
          let cpu = Helpers.boot b.image in
          List.iter (Cpu.uart_send cpu) (Rop.crash_probe ti);
          cpu);
      pre = nothing;
      body = (fun cpu -> ignore (Cpu.run cpu ~max_cycles:3_000_000));
    };
    {
      name = "attach after blocks ran";
      setup = firmware_cpu;
      pre = (fun cpu -> run_slices cpu ~slices:5 ~cycles:40_000);
      body = (fun cpu -> run_slices cpu ~slices:5 ~cycles:40_000);
    };
    {
      name = "attach after another bundle";
      setup = firmware_cpu;
      pre =
        (fun cpu ->
          ignore (Probes.attach ~recorder_capacity:16 ~registry:(Metrics.create ()) cpu);
          run_slices cpu ~slices:5 ~cycles:40_000);
      body = (fun cpu -> run_slices cpu ~slices:5 ~cycles:40_000);
    };
  ]

let check_observed what (a : observed) (b : observed) =
  Alcotest.(check int) (what ^ ": total recorded") b.total a.total;
  Alcotest.(check int) (what ^ ": window length") (List.length b.events) (List.length a.events);
  List.iteri
    (fun i ((x : Recorder.event), (y : Recorder.event)) ->
      if x <> y then
        Alcotest.failf "%s: event %d differs: %a vs reference %a" what i Recorder.pp_event x
          Recorder.pp_event y)
    (List.combine a.events b.events);
  List.iter2
    (fun (c, n) (_, m) -> Alcotest.(check int) (what ^ ": insn." ^ c) m n)
    a.mix b.mix;
  Alcotest.(check int) (what ^ ": stepped") b.stepped a.stepped

let test_accounting_differential () =
  List.iter
    (fun capacity ->
      List.iter
        (fun c ->
          let observe attach =
            let cpu = c.setup () in
            c.pre cpu;
            let read = attach ~capacity cpu in
            c.body cpu;
            read ()
          in
          let bundle = observe attach_bundle and reference = observe attach_reference in
          Alcotest.(check bool)
            (c.name ^ ": something recorded") true (reference.total > 0);
          check_observed (Printf.sprintf "%s, capacity %d" c.name capacity) bundle reference)
        cases)
    [ 32; 50; 256 ]

let () =
  Alcotest.run "probes"
    [
      ( "bundle",
        [
          Alcotest.test_case "exact instruction mix" `Quick test_insn_mix_exact;
          Alcotest.test_case "architecturally invisible" `Quick test_probes_architecturally_invisible;
          Alcotest.test_case "interrupt latency" `Quick test_interrupt_latency_recorded;
        ] );
      ( "flight-recorder",
        [ Alcotest.test_case "dump on ROP fault" `Quick test_fault_dump_on_crash_probe ] );
      ( "accounting",
        [
          Alcotest.test_case "bundle matches a per-event reference" `Quick
            test_accounting_differential;
        ] );
    ]
