(* The CPU probe bundle: exact instruction-mix accounting, architectural
   invariance of the instrumentation, and the flight-recorder dump on a
   ROP-induced fault. *)

module Cpu = Mavr_avr.Cpu
module Isa = Mavr_avr.Isa
module Opcode = Mavr_avr.Opcode
module Probes = Mavr_avr.Probes
module Metrics = Mavr_telemetry.Metrics
module Json = Mavr_telemetry.Json
module Rop = Mavr_core.Rop

let load insns =
  let cpu = Cpu.create () in
  let code = String.concat "" (List.map Opcode.encode_bytes insns) in
  Cpu.load_program cpu code;
  cpu

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
    ]
