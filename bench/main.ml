(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§VII, plus the analytical artifacts of §V-D and
   §VIII-B), then runs Bechamel micro-benchmarks of this implementation.

     dune exec bench/main.exe -- [--quick] [--json PATH]

   --quick shrinks the emulator cycle budgets and skips the Bechamel
   micro-benchmarks (the CI smoke configuration); --json additionally
   writes the headline numbers as a machine-readable JSON document
   (committed as BENCH_PR<n>.json for cross-PR comparison). *)

module Cpu = Mavr_avr.Cpu
module Io = Mavr_avr.Device.Io
module Image = Mavr_obj.Image
module F = Mavr_firmware
module Rop = Mavr_core.Rop
module Gadget = Mavr_core.Gadget
module Randomize = Mavr_core.Randomize
module Serial = Mavr_core.Serial
module Security = Mavr_core.Security
module Nat = Mavr_bignum.Nat

module J = Mavr_telemetry.Json
module Clock = Mavr_campaign.Clock

let quick = ref false
let json_out : string option ref = ref None

(* Headline numbers accumulated by the sections below and emitted as the
   machine-readable result document when --json is given. *)
let results : (string * J.t) list ref = ref []
let put key v = results := (key, v) :: !results

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

let builds =
  lazy
    (List.map
       (fun p ->
         let stock, mavr = F.Build.build_pair p in
         (p, stock, mavr))
       F.Profile.all)

let tiny = lazy (F.Build.build (F.Profile.tiny ~n:120 ~seed:99) F.Profile.mavr)

(* ---------------------------------------------------------------- *)

let fig1_memory_map () =
  section "Fig. 1 — ATmega2560 memory (emulated device profile)";
  let d = Mavr_avr.Device.atmega2560 in
  Printf.printf "  program flash : %6d KB (execute-only, word-addressed)\n" (d.flash_bytes / 1024);
  Printf.printf "  SRAM          : %6d KB at 0x%04x (registers+I/O mapped below)\n"
    (d.sram_bytes / 1024) d.sram_base;
  Printf.printf "  EEPROM        : %6d KB (separate address space)\n" (d.eeprom_bytes / 1024);
  Printf.printf "  PC width      : %d bytes pushed per call (22-bit PC)\n" d.pc_bytes;
  Printf.printf "  flash page    : %d B, endurance %d cycles\n" d.flash_page_bytes d.flash_endurance;
  Printf.printf "  MAVR BOM      : master $%.2f + ext. flash $%.2f = $%.2f (+%.1f%% of a $159.99 APM)\n"
    Mavr_avr.Device.atmega1284p.unit_price_usd Mavr_avr.Device.External_flash.unit_price_usd
    (Mavr_avr.Device.atmega1284p.unit_price_usd +. Mavr_avr.Device.External_flash.unit_price_usd)
    ((Mavr_avr.Device.atmega1284p.unit_price_usd +. Mavr_avr.Device.External_flash.unit_price_usd)
     /. 159.99 *. 100.)

let fig2_mavlink () =
  section "Fig. 2 — MAVLink packet structure (encode/decode check)";
  let f = { Mavr_mavlink.Frame.seq = 11; sysid = 1; compid = 1; msgid = 30;
            payload = String.make 28 '\x00' } in
  let wire = Mavr_mavlink.Frame.encode f in
  Printf.printf "  header %d B + payload %d B + checksum %d B = %d B on the wire\n"
    Mavr_mavlink.Frame.header_len (String.length f.payload) Mavr_mavlink.Frame.crc_len
    (String.length wire);
  Printf.printf "  magic 0x%02X, CRC-16/MCRF4XX with per-message CRC_EXTRA\n"
    (Char.code wire.[0]);
  Printf.printf "  minimum packet (9-byte payload): %d bytes (paper: 17)\n"
    (Mavr_mavlink.Frame.header_len + 9 + Mavr_mavlink.Frame.crc_len)

let table1 () =
  section "Table I — NUMBER OF FUNCTIONS";
  Printf.printf "  %-12s %12s %12s\n" "Application" "paper" "measured";
  let counts =
    List.map
      (fun ((p : F.Profile.t), stock, _) ->
        let n = F.Build.function_count stock in
        Printf.printf "  %-12s %12d %12d\n" p.name
          (match p.name with "Arduplane" -> 917 | "Arducopter" -> 1030 | _ -> 800)
          n;
        n)
      (Lazy.force builds)
  in
  let sorted = List.sort compare counts in
  let avg = float_of_int (List.fold_left ( + ) 0 counts) /. 3.0 in
  Printf.printf "  average %.2f (paper 915.67), median %d (paper 917)\n" avg (List.nth sorted 1);
  put "table1" (J.Obj [ ("avg_functions", J.Float avg); ("median_functions", J.Int (List.nth sorted 1)) ])

let table3 () =
  section "Table III — CHANGE IN CODE SIZE (stock vs MAVR toolchain)";
  Printf.printf "  %-12s %10s %10s %10s %10s\n" "Application" "stock(pap)" "stock(us)" "mavr(pap)"
    "mavr(us)";
  List.iter
    (fun ((p : F.Profile.t), stock, mavr) ->
      let pap_stock, pap_mavr =
        match p.name with
        | "Arduplane" -> (221608, 221294)
        | "Arducopter" -> (244532, 244292)
        | _ -> (177870, 177556)
      in
      Printf.printf "  %-12s %10d %10d %10d %10d   (Δ us: %+d B, %.3f%%)\n" p.name pap_stock
        (F.Build.code_size stock) pap_mavr (F.Build.code_size mavr)
        (F.Build.code_size mavr - F.Build.code_size stock)
        (100.0
        *. float_of_int (F.Build.code_size mavr - F.Build.code_size stock)
        /. float_of_int (F.Build.code_size stock)))
    (Lazy.force builds)

let table2 () =
  section "Table II — MAVR STARTUP OVERHEAD (randomize + reprogram)";
  Printf.printf "  %-12s %12s %14s\n" "Application" "paper (ms)" "modeled (ms)";
  List.iter
    (fun ((p : F.Profile.t), _, mavr) ->
      let paper = match p.name with
        | "Arduplane" -> 19209. | "Arducopter" -> 21206. | _ -> 15412. in
      Printf.printf "  %-12s %12.0f %14.0f\n" p.name paper
        (Serial.programming_ms Serial.prototype (F.Build.code_size mavr)))
    (Lazy.force builds);
  let sizes = List.map (fun (_, _, m) -> F.Build.code_size m) (Lazy.force builds) in
  let mss = List.map (fun s -> Serial.programming_ms Serial.prototype s) sizes in
  Printf.printf "  average %.0f ms (paper 18609), throughput %.2f B/ms (paper: 11)\n"
    (List.fold_left ( +. ) 0.0 mss /. 3.0)
    (Serial.bytes_per_ms Serial.prototype);
  put "table2"
    (J.Obj
       [ ("avg_startup_ms", J.Float (List.fold_left ( +. ) 0.0 mss /. 3.0));
         ("throughput_bytes_per_ms", J.Float (Serial.bytes_per_ms Serial.prototype)) ]);
  Printf.printf "  production estimate (mega-baud link, flash-write-bound): %.1f s for 256 KB (paper: ~4 s)\n"
    (Serial.programming_ms Serial.production (256 * 1024) /. 1000.0);
  (* §VI-B3: the randomizer streams function-by-function; its working set
     must fit the master's 16 KB SRAM. *)
  List.iter
    (fun ((p : F.Profile.t), _, mavr) ->
      let _, st = Mavr_core.Stream_patch.randomize_image ~seed:1 mavr.F.Build.image ~page_bytes:256 in
      Printf.printf "  streaming randomizer working set, %-11s: %5d B of the ATmega1284P's %d B SRAM\n"
        p.name st.Mavr_core.Stream_patch.peak_working_set
        Mavr_avr.Device.atmega1284p.sram_bytes)
    (Lazy.force builds)

let fig4_5_gadgets () =
  section "Figs. 4/5 + §VII-A — gadget discovery on the unprotected binary";
  let _, _, mavr = List.hd (Lazy.force builds) in
  List.iter
    (fun max_len ->
      let gs = Gadget.scan ~max_len mavr.F.Build.image in
      Printf.printf "  Arduplane, window <=%2d instructions: %5d gadgets (paper found 953)\n" max_len
        (List.length gs))
    [ 3; 5; 8 ];
  let gs = Gadget.scan mavr.F.Build.image in
  List.iter
    (fun (k, n) -> Printf.printf "    %-10s %5d\n" (Gadget.kind_name k) n)
    (Gadget.count_by_kind gs);
  (match Gadget.locate_paper_gadgets mavr.F.Build.image with
  | Some g ->
      Printf.printf "  stk_move gadget at 0x%05x (Fig. 4 shape):\n" g.stk_move;
      print_string (Mavr_avr.Disasm.listing ~pos:g.stk_move ~len:14 mavr.F.Build.image.Image.code);
      Printf.printf "  write_mem gadget at 0x%05x (Fig. 5 shape, head shown):\n" g.write_mem;
      print_string (Mavr_avr.Disasm.listing ~pos:g.write_mem ~len:12 mavr.F.Build.image.Image.code)
  | None -> print_endline "  !! paper gadgets not found");
  (* Ablation: the -mcall-prologues consolidation (stock) vs MAVR flags. *)
  let _, stock, _ = List.hd (Lazy.force builds) in
  let n_stock = List.length (Gadget.scan stock.F.Build.image) in
  let n_mavr = List.length gs in
  Printf.printf "  ablation (shared prologues): stock %d gadgets vs mavr-toolchain %d\n" n_stock n_mavr

let static_analysis () =
  section "Static analyzer — CFG recovery, image lint, gadget-survival census";
  Printf.printf "  %-12s %10s %9s %7s %6s %6s\n" "Application" "insns" "blocks" "cover" "lint" "lint-r";
  let lint_totals =
    List.map
      (fun ((p : F.Profile.t), _, mavr) ->
        let img = mavr.F.Build.image in
        let cfg = Mavr_analysis.Cfg.recover img in
        let s = Mavr_analysis.Cfg.stats cfg in
        let built = List.length (Mavr_analysis.Lint.run ~cfg img) in
        let randomized =
          List.length (Mavr_analysis.Lint.run (Randomize.randomize ~seed:7 img))
        in
        Printf.printf "  %-12s %10d %9d %6.1f%% %6d %6d\n" p.name s.reachable_insns s.blocks
          s.coverage_pct built randomized;
        (p.name, s, built, randomized))
      (Lazy.force builds)
  in
  let layouts = if !quick then 3 else 10 in
  let _, _, arduplane = List.hd (Lazy.force builds) in
  let c = Mavr_analysis.Survival.census ~layouts arduplane.F.Build.image in
  Format.printf "  Arduplane %a@." Mavr_analysis.Survival.pp c;
  Printf.printf "  (paper §VII-A: all harvested gadget addresses die under re-randomization)\n";
  put "static_analysis"
    (J.Obj
       (List.map
          (fun (name, (s : Mavr_analysis.Cfg.stats), built, randomized) ->
            ( String.lowercase_ascii name,
              J.Obj
                [
                  ("coverage_pct", J.Float s.coverage_pct);
                  ("reachable_insns", J.Int s.reachable_insns);
                  ("lint_findings", J.Int built);
                  ("lint_findings_randomized", J.Int randomized);
                ] ))
          lint_totals
       @ [
           ("census_layouts", J.Int c.layouts);
           ("census_base_gadgets", J.Int c.base_gadgets);
           ("census_mean_survival_rate", J.Float c.mean_survival_rate);
           ("census_feasible_layouts", J.Int c.feasible_layouts);
         ]))

let boot image =
  let cpu = Cpu.create () in
  Cpu.load_program cpu image.Image.code;
  Cpu.io_poke cpu Io.gyro_lo 0x34;
  Cpu.io_poke cpu Io.gyro_hi 0x12;
  ignore (Cpu.run_until_halt cpu ~max_cycles:60_000);
  cpu

let gyro_cfg cpu =
  Cpu.data_peek cpu F.Layout.gyro_cfg lor (Cpu.data_peek cpu (F.Layout.gyro_cfg + 1) lsl 8)

let fig6 () =
  section "Fig. 6 — stack progression during the stealthy attack";
  let b = Lazy.force tiny in
  let ti = Rop.analyze b in
  let obs = Rop.observe ti in
  let cpu = boot b.image in
  let dump label =
    Format.printf "%a" Mavr_avr.Trace.pp_snapshot
      (Mavr_avr.Trace.snapshot cpu ~label ~window_start:(obs.s0 - 12) ~window_len:16)
  in
  dump "(i) clean stack before payload execution";
  List.iter (Cpu.uart_send cpu)
    (Rop.v2_stealthy ti obs ~writes:[ Rop.write_u16 obs ~addr:F.Layout.gyro_cfg ~value:0xBEEF ~neighbour:0 ]);
  (match
     Cpu.run_until cpu ~max_cycles:3_000_000 (fun c ->
         Cpu.pc_byte_addr c = ti.gadgets.Gadget.stk_move
         && Cpu.data_peek c (obs.s0 - 5) <> Char.code obs.saved_bytes.[0])
   with
  | `Pred -> dump "(ii) dirty stack after payload injection"
  | _ -> print_endline "  !! injection not observed");
  (match
     Cpu.run_until cpu ~max_cycles:10_000 (fun c ->
         Cpu.sp c >= ti.stage_addr && Cpu.sp c < ti.stage_addr + 256)
   with
  | `Pred ->
      Printf.printf "(iii) after gadget 1 (stk_move): SP pivoted to 0x%04x (staging buffer)\n"
        (Cpu.sp cpu)
  | _ -> print_endline "  !! pivot not observed");
  (match Cpu.run_until cpu ~max_cycles:3_000_000 (fun c -> gyro_cfg c = 0xBEEF) with
  | `Pred -> Printf.printf "(iv) after payload execution: gyro calibration = 0x%04x\n" (gyro_cfg cpu)
  | _ -> print_endline "  !! write not observed");
  let byte i = Char.code obs.saved_bytes.[i] in
  let ret_target = ((byte 3 lsl 16) lor (byte 4 lsl 8) lor byte 5) * 2 in
  (match Cpu.run_until cpu ~max_cycles:3_000_000 (fun c -> Cpu.pc_byte_addr c = ret_target) with
  | `Pred -> dump "(v)-(vii) repaired stack for continued execution"
  | _ -> print_endline "  !! repair not observed");
  match Cpu.run cpu ~max_cycles:1_000_000 with
  | `Budget_exhausted -> print_endline "  -> board continues normal execution (clean return)"
  | `Halted h -> Format.printf "  !! board halted: %a@." Cpu.pp_halt h

let effectiveness () =
  section "§VII-A — effectiveness of the MAVR defense";
  let b = Lazy.force tiny in
  let ti = Rop.analyze b in
  let obs = Rop.observe ti in
  let attack =
    Rop.v2_stealthy ti obs
      ~writes:[ Rop.write_u16 obs ~addr:F.Layout.gyro_cfg ~value:0x4141 ~neighbour:0 ]
  in
  let outcome image =
    let cpu = boot image in
    List.iter (Cpu.uart_send cpu) attack;
    let r = Cpu.run cpu ~max_cycles:2_500_000 in
    if gyro_cfg cpu = 0x4141 then `Success
    else match r with `Halted _ -> `Crashed | `Budget_exhausted -> `Silent
  in
  (match outcome b.image with
  | `Success -> print_endline "  unprotected binary: attack SUCCEEDS (stealthy takeover)"
  | _ -> print_endline "  unprotected binary: unexpected failure!");
  let seeds = if !quick then 8 else 40 in
  let succ = ref 0 and crash = ref 0 and silent = ref 0 in
  for seed = 1 to seeds do
    match outcome (Randomize.randomize ~seed b.image) with
    | `Success -> incr succ
    | `Crashed -> incr crash
    | `Silent -> incr silent
  done;
  Printf.printf "  randomized binaries (%d seeds): %d succeeded, %d crashed (detected+reflashed), %d failed silently\n"
    seeds !succ !crash !silent;
  put "effectiveness"
    (J.Obj
       [ ("seeds", J.Int seeds); ("succeeded", J.Int !succ); ("crashed", J.Int !crash);
         ("silent", J.Int !silent) ]);
  Printf.printf "  (paper: none of the attacks succeeded; the board executed garbage and was reflashed)\n";
  (* Recovery: a wrong guess with the master watching. *)
  let m = Mavr_core.Master.create () in
  Mavr_core.Master.provision m b.image;
  let app = Cpu.create () in
  Mavr_core.Master.boot m ~app;
  ignore (Cpu.run app ~max_cycles:60_000);
  List.iter (Cpu.uart_send app) (Rop.crash_probe ti);
  let detections = Mavr_core.Master.supervise m ~app ~cycles:2_000_000 in
  Printf.printf "  failed-probe supervision: %d detection(s), app %s after re-randomization\n"
    detections
    (if Cpu.halted app = None && Cpu.watchdog_feeds app > 0 then "recovered" else "DEAD")

let bruteforce_and_entropy () =
  section "§V-D + §VIII-B — brute-force effort and entropy";
  Printf.printf "  closed forms (validated by Monte Carlo, 20k trials):\n";
  List.iter
    (fun n ->
      let static = Nat.to_string (Security.expected_attempts_static ~n) in
      let rerand = Nat.to_string (Security.expected_attempts_rerandomizing ~n) in
      let mc_s = Security.monte_carlo_static ~n ~trials:20_000 ~seed:5 in
      let mc_r = Security.monte_carlo_rerandomizing ~n ~trials:20_000 ~seed:5 in
      Printf.printf "    n=%2d  static E=(n!+1)/2=%8s (MC %8.1f)   MAVR E=n!=%8s (MC %8.1f)\n" n
        static mc_s rerand mc_r)
    [ 3; 4; 5; 6 ];
  Printf.printf "  entropy of the layout secret (paper: 800 symbols -> 6567 bits):\n";
  List.iter
    (fun (name, n) ->
      Printf.printf "    %-11s n=%4d  log2(n!) = %7.0f bits   E[attempts] is a %d-digit number\n"
        name n (Security.entropy_bits ~n)
        (Nat.digits (Security.expected_attempts_rerandomizing ~n)))
    [ ("Ardurover", 800); ("Arduplane", 917); ("Arducopter", 1030) ]

let randomization_frequency () =
  section "§V-C — randomization frequency vs. flash endurance";
  let endurance = Mavr_avr.Device.atmega2560.flash_endurance in
  Printf.printf "  endurance %d program cycles; 10 boots/day fleet duty cycle\n" endurance;
  Printf.printf "  %-22s %18s %22s %16s\n" "policy" "reflashes/boot" "lifetime (years)" "layout staleness";
  List.iter
    (fun k ->
      let policy = { Mavr_core.Lifetime.randomize_every_boots = k } in
      List.iter
        (fun rate ->
          Printf.printf "  every %3d boots @%4.2f atk %12.3f %22.1f %13d boots\n" k rate
            (Mavr_core.Lifetime.reflashes_per_boot policy ~attack_rate_per_boot:rate)
            (Mavr_core.Lifetime.years_until_wearout policy ~endurance ~attack_rate_per_boot:rate
               ~boots_per_day:10.0)
            (Mavr_core.Lifetime.layout_exposure_boots policy))
        [ 0.0; 0.05 ])
    [ 1; 5; 20; 100 ];
  Printf.printf "  (every-boot randomization costs the 10k-cycle part in ~2.7 years of daily duty;\n";
  Printf.printf "   every-20-boots keeps a layout live for 20 boots but stretches wear-out ~20x — the §V-C trade-off.)\n"

let runtime_defense_ablation () =
  section "§IX ablation — MAVR vs runtime-monitoring defenses (DROP/ROPdefender class)";
  let b = Lazy.force tiny in
  let loop_cycles overhead =
    let cpu = Cpu.create () in
    Cpu.load_program cpu b.F.Build.image.Image.code;
    if overhead > 0 then Cpu.enable_shadow_stack cpu ~overhead_cycles:overhead;
    ignore (Cpu.run cpu ~max_cycles:60_000);
    let f0 = Cpu.watchdog_feeds cpu and c0 = Cpu.cycles cpu in
    ignore (Cpu.run cpu ~max_cycles:600_000);
    float_of_int (Cpu.cycles cpu - c0) /. float_of_int (Cpu.watchdog_feeds cpu - f0)
  in
  let base = loop_cycles 0 in
  Printf.printf "  main-loop cost, no runtime defense : %8.0f cycles/iteration\n" base;
  List.iter
    (fun ov ->
      let c = loop_cycles ov in
      Printf.printf "  shadow stack, %2d cyc per call/ret : %8.0f cycles/iteration (+%.1f%%)\n" ov c
        (100.0 *. (c -. base) /. base))
    [ 4; 8; 16 ];
  (* The paper's argument: ArduPlane already runs at ~96% CPU; any added
     per-iteration cost breaks the control deadlines, while MAVR's runtime
     overhead is exactly zero. *)
  let headroom = 4.0 in
  let c8 = loop_cycles 8 in
  Printf.printf "  at 96%% load the deadline headroom is %.0f%%: a +%.1f%% monitor %s\n" headroom
    (100.0 *. (c8 -. base) /. base)
    (if 100.0 *. (c8 -. base) /. base > headroom then "MISSES control deadlines"
     else "still fits");
  Printf.printf "  (the monitor does detect the stealthy ROP instantly — but MAVR detects-and-recovers at zero runtime cost)\n";
  (* §VIII-B padding design point. *)
  let base_e = Security.entropy_bits ~n:800 in
  let padded = Security.entropy_bits_with_padding ~n:800 ~slack_bytes:4096 in
  Printf.printf "  §VIII-B padding option: 800 symbols + 4 KB random padding = %.0f bits (vs %.0f without) — permutation already dominates\n"
    padded base_e

let randomizability () =
  section "§VI-B1 — toolchain requirements (ablation)";
  let _, stock, mavr = List.hd (Lazy.force builds) in
  (match Mavr_core.Stream_patch.check_randomizable stock.F.Build.image with
  | Error m ->
      Printf.printf "  stock toolchain (relaxation ON) : REFUSED — %s...\n"
        (String.sub m 0 (min 70 (String.length m)))
  | Ok () -> print_endline "  stock toolchain: unexpectedly randomizable");
  match Mavr_core.Stream_patch.check_randomizable mavr.F.Build.image with
  | Ok () -> print_endline "  MAVR toolchain (--no-relax)     : randomizable"
  | Error m -> Printf.printf "  MAVR toolchain: !! %s\n" m

(* ---------------------------------------------------------------- *)
(* Predecode-cache before/after: the emulator throughput that every
   §VII replay and per-lifetime randomization sweep is bounded by.     *)

let decode_cache_bench () =
  section "Decode cache — emulator instructions/second (ArduPlane-profile firmware)";
  let _, _, arduplane = List.hd (Lazy.force builds) in
  let image = arduplane.F.Build.image in
  let prep ~cache =
    let cpu = Cpu.create () in
    Cpu.set_decode_cache cpu cache;
    (* These rows measure per-instruction dispatch; the superblock engine
       (benched in its own section) would fuse it away. *)
    Cpu.set_superblocks cpu false;
    Cpu.load_program cpu image.Image.code;
    (* Warm up past startup (and, cached, past the first-touch decodes). *)
    ignore (Cpu.run_until_halt cpu ~max_cycles:200_000);
    if Cpu.halted cpu <> None then Cpu.reset cpu;
    cpu
  in
  (* The application image eventually faults (that is the point of the
     paper's recovery loop), so measure across lifetimes: reset on halt
     and keep retiring instructions until the cycle budget is spent.
     Reset does not touch flash, so the cached path keeps its decodes. *)
  let budget = if !quick then 2_000_000 else 20_000_000 in
  (* Throughput must come from the wall clock: [Sys.time] is process CPU
     time, which keeps (single-threaded) benchmarks honest by accident but
     sums across domains — a parallel speedup would read as a slowdown. *)
  let measure cpu run_slice =
    let retired, span =
      Clock.time (fun () ->
          let spent = ref 0 in
          let retired = ref 0 in
          while !spent < budget do
            let c0 = Cpu.cycles cpu and r0 = Cpu.instructions_retired cpu in
            run_slice cpu (budget - !spent);
            spent := !spent + max 1 (Cpu.cycles cpu - c0);
            retired := !retired + (Cpu.instructions_retired cpu - r0);
            if Cpu.halted cpu <> None then Cpu.reset cpu
          done;
          !retired)
    in
    (Clock.rate (float_of_int retired) span, span)
  in
  let batched cpu max_cycles = ignore (Cpu.run_until_halt cpu ~max_cycles) in
  (* The pre-cache dispatch: a driver loop around [Cpu.step], decoding
     every instruction from flash and re-checking the halt state per
     step — what [Sim.Scenario]/[Master.supervise] did before the
     batched API existed. *)
  let per_step cpu max_cycles =
    let stop = Cpu.cycles cpu + max_cycles in
    while Cpu.halted cpu = None && Cpu.cycles cpu < stop do
      Cpu.step cpu
    done
  in
  let legacy, legacy_span = measure (prep ~cache:false) per_step in
  let uncached, uncached_span = measure (prep ~cache:false) batched in
  let cached, cached_span = measure (prep ~cache:true) batched in
  let wall_s = legacy_span.Clock.wall_s +. uncached_span.Clock.wall_s +. cached_span.Clock.wall_s in
  let cpu_s = legacy_span.Clock.cpu_s +. uncached_span.Clock.cpu_s +. cached_span.Clock.cpu_s in
  Printf.printf "  before: per-step loop, decode per instruction : %12.0f insn/s\n" legacy;
  Printf.printf "  batched run, decode per instruction           : %12.0f insn/s\n" uncached;
  Printf.printf "  after:  batched run + predecode cache         : %12.0f insn/s\n" cached;
  Printf.printf "  speedup (after / before)                      : %12.2fx %s\n"
    (cached /. legacy)
    (if cached /. legacy >= 2.0 then "(>= 2x target met)" else "(!! below 2x target)");
  (* The cycle counts feed the paper's §VII overhead numbers: the cached
     and uncached paths must agree bit-for-bit on architectural state. *)
  let arch cache =
    let cpu = Cpu.create () in
    Cpu.set_decode_cache cpu cache;
    Cpu.load_program cpu image.Image.code;
    ignore (Cpu.run_until_halt cpu ~max_cycles:2_000_000);
    ( Cpu.pc cpu, Cpu.sp cpu, Cpu.sreg cpu, Cpu.cycles cpu, Cpu.instructions_retired cpu,
      Cpu.halted cpu, List.init 32 (Cpu.reg cpu) )
  in
  let identical = arch true = arch false in
  Printf.printf "  cached/uncached architectural state identical: %b\n" identical;
  put "decode_cache"
    (J.Obj
       [ ("legacy_insn_per_s", J.Float legacy);
         ("batched_uncached_insn_per_s", J.Float uncached);
         ("cached_insn_per_s", J.Float cached);
         ("speedup", J.Float (cached /. legacy));
         ("arch_state_identical", J.Bool identical);
         ("wall_s", J.Float wall_s);
         ("cpu_s", J.Float cpu_s) ])

(* ---------------------------------------------------------------- *)
(* PR-6: the superblock threaded-code engine on top of the predecode
   cache — fused superinstruction blocks with per-block cycle/interrupt
   accounting.  The "off" row is exactly the PR-5 cached configuration,
   so the speedup reported here is against the decode_cache baseline the
   check gates reference. *)

let superblock_bench () =
  section "Superblock engine — emulator instructions/second (ArduPlane-profile firmware)";
  let _, _, arduplane = List.hd (Lazy.force builds) in
  let image = arduplane.F.Build.image in
  let budget = if !quick then 2_000_000 else 20_000_000 in
  let prep ?(cache = true) ~superblocks () =
    let cpu = Cpu.create () in
    Cpu.set_decode_cache cpu cache;
    Cpu.set_superblocks cpu superblocks;
    Cpu.load_program cpu image.Image.code;
    ignore (Cpu.run_until_halt cpu ~max_cycles:200_000);
    if Cpu.halted cpu <> None then Cpu.reset cpu;
    cpu
  in
  let measure run_slice cpu =
    let retired, span =
      Clock.time (fun () ->
          let spent = ref 0 and retired = ref 0 in
          while !spent < budget do
            let c0 = Cpu.cycles cpu and r0 = Cpu.instructions_retired cpu in
            run_slice cpu (budget - !spent);
            spent := !spent + max 1 (Cpu.cycles cpu - c0);
            retired := !retired + (Cpu.instructions_retired cpu - r0);
            if Cpu.halted cpu <> None then Cpu.reset cpu
          done;
          !retired)
    in
    (Clock.rate (float_of_int retired) span, span)
  in
  let batched cpu max_cycles = ignore (Cpu.run_until_halt cpu ~max_cycles) in
  (* The pre-PR-5 dispatch, re-measured in-run so the headline speedup is
     not a cross-run comparison: a driver loop around [Cpu.step], full
     decode per instruction (the decode_cache section's "before" row). *)
  let per_step cpu max_cycles =
    let stop = Cpu.cycles cpu + max_cycles in
    while Cpu.halted cpu = None && Cpu.cycles cpu < stop do
      Cpu.step cpu
    done
  in
  let legacy, legacy_span = measure per_step (prep ~cache:false ~superblocks:false ()) in
  let off, off_span = measure batched (prep ~superblocks:false ()) in
  let on, on_span = measure batched (prep ~superblocks:true ()) in
  Printf.printf "  legacy: per-step loop, decode per instruction  : %12.0f insn/s\n" legacy;
  Printf.printf "  off: batched run + predecode cache (PR-5 row)  : %12.0f insn/s\n" off;
  Printf.printf "  on:  superblocks, lazily compiled              : %12.0f insn/s\n" on;
  Printf.printf "  speedup (superblocks / per-step legacy)        : %12.2fx\n" (on /. legacy);
  Printf.printf "  speedup (superblocks / cached stepping)        : %12.2fx\n" (on /. off);
  (* The equivalence contract, re-checked in the measured configuration:
     run both engines to the same budget, single-step the laggard onto a
     common cycle count (budget overshoot differs by at most one block),
     and compare full architectural state. *)
  let mk superblocks =
    let cpu = Cpu.create () in
    Cpu.set_superblocks cpu superblocks;
    Cpu.load_program cpu image.Image.code;
    ignore (Cpu.run_until_halt cpu ~max_cycles:2_000_000);
    cpu
  in
  let fused = mk true and stepped = mk false in
  let rec align fuel =
    let cf = Cpu.cycles fused and cs = Cpu.cycles stepped in
    if cf = cs || fuel = 0 then ()
    else if cf < cs && Cpu.halted fused = None then (Cpu.step fused; align (fuel - 1))
    else if cs < cf && Cpu.halted stepped = None then (Cpu.step stepped; align (fuel - 1))
    else ()
  in
  align 10_000;
  let arch cpu =
    ( Cpu.pc cpu, Cpu.sp cpu, Cpu.sreg cpu, Cpu.cycles cpu, Cpu.instructions_retired cpu,
      Cpu.interrupts_taken cpu, Cpu.watchdog_feeds cpu, Cpu.halted cpu,
      List.init 32 (Cpu.reg cpu) )
  in
  let identical = arch fused = arch stepped in
  Printf.printf "  on/off architectural state identical           : %b\n" identical;
  put "superblock"
    (J.Obj
       [ ("legacy_insn_per_s", J.Float legacy);
         ("off_insn_per_s", J.Float off);
         ("on_insn_per_s", J.Float on);
         ("speedup_vs_step", J.Float (on /. legacy));
         ("speedup_vs_cached", J.Float (on /. off));
         ("arch_state_identical", J.Bool identical);
         ("wall_s",
          J.Float
            (legacy_span.Clock.wall_s +. off_span.Clock.wall_s +. on_span.Clock.wall_s));
         ("cpu_s",
          J.Float
            (legacy_span.Clock.cpu_s +. off_span.Clock.cpu_s +. on_span.Clock.cpu_s)) ])

(* ---------------------------------------------------------------- *)
(* The PR-2 overhead contract: with no probes attached the CPU hot path
   pays a single flag test per instruction (disabled throughput must stay
   within 3% of the PR-1 cached figure); the full probe bundle moves all
   its cost onto the enabled path, and this section measures the price. *)

let telemetry_overhead_bench () =
  section "Telemetry overhead — CPU probes disabled vs enabled (cached batched run)";
  let _, _, arduplane = List.hd (Lazy.force builds) in
  let image = arduplane.F.Build.image in
  let budget = if !quick then 2_000_000 else 20_000_000 in
  let measure ~instrument =
    let cpu = Cpu.create () in
    Cpu.set_decode_cache cpu true;
    Cpu.load_program cpu image.Image.code;
    let probes =
      if instrument then
        Some (Mavr_avr.Probes.attach ~registry:(Mavr_telemetry.Metrics.create ()) cpu)
      else None
    in
    ignore (Cpu.run_until_halt cpu ~max_cycles:200_000);
    if Cpu.halted cpu <> None then Cpu.reset cpu;
    (* Wall clock, not [Sys.time]: see the decode-cache section. *)
    let retired, span =
      Clock.time (fun () ->
          let spent = ref 0 and retired = ref 0 in
          while !spent < budget do
            let c0 = Cpu.cycles cpu and r0 = Cpu.instructions_retired cpu in
            ignore (Cpu.run_until_halt cpu ~max_cycles:(budget - !spent));
            spent := !spent + max 1 (Cpu.cycles cpu - c0);
            retired := !retired + (Cpu.instructions_retired cpu - r0);
            if Cpu.halted cpu <> None then Cpu.reset cpu
          done;
          !retired)
    in
    (Clock.rate (float_of_int retired) span, span, probes)
  in
  let disabled, span_off, _ = measure ~instrument:false in
  let enabled, span_on, probes = measure ~instrument:true in
  let overhead_pct = 100.0 *. (disabled -. enabled) /. disabled in
  Printf.printf "  probes disabled (tap flag only)  : %12.0f insn/s\n" disabled;
  Printf.printf "  probes enabled (full bundle)     : %12.0f insn/s\n" enabled;
  Printf.printf "  enabled-path overhead            : %12.1f %%\n" overhead_pct;
  (match probes with
  | Some p ->
      let reg = Mavr_avr.Probes.registry p in
      let metrics = Mavr_telemetry.Metrics.snapshot reg in
      Printf.printf "  (bundle live: %d metrics registered, %d faults recorded)\n"
        (List.length metrics) (Mavr_avr.Probes.faults_seen p)
  | None -> ());
  put "telemetry_overhead"
    (J.Obj
       [ ("disabled_insn_per_s", J.Float disabled);
         ("enabled_insn_per_s", J.Float enabled);
         ("enabled_overhead_pct", J.Float overhead_pct);
         ("wall_s", J.Float (span_off.Clock.wall_s +. span_on.Clock.wall_s));
         ("cpu_s", J.Float (span_off.Clock.cpu_s +. span_on.Clock.cpu_s)) ])

(* ---------------------------------------------------------------- *)
(* PR-4: the campaign engine's scaling behaviour.  Every workload is
   re-run at 1/2/4/8 domains and its canonical JSON document compared
   byte-for-byte against the jobs=1 run — the determinism contract is
   part of the benchmark, not just the test suite.  Speedups are wall
   clock (the whole point of the Sys.time fix); cpu_s is reported next
   to it so the parallel efficiency is visible too. *)

let campaign_scaling () =
  section "Campaign engine — deterministic parallel scaling (1/2/4/8 domains)";
  let _, _, arduplane = List.hd (Lazy.force builds) in
  let img = arduplane.F.Build.image in
  let b = Lazy.force tiny in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let host = Domain.recommended_domain_count () in
  Printf.printf "  host parallelism: Domain.recommended_domain_count = %d\n" host;
  (* [scale name items f] runs [f ~jobs] per job count; [f] returns the
     workload's canonical JSON string so byte-equality is checked on
     exactly what a consumer would see. *)
  let scale name items f =
    let rows =
      List.map (fun jobs -> let doc, span = Clock.time (fun () -> f ~jobs) in (jobs, doc, span))
        jobs_list
    in
    let reference, base =
      match rows with
      | (_, doc, span) :: _ -> (doc, span.Clock.wall_s)
      | [] -> ("", 0.0)
    in
    Printf.printf "  %-24s %4s %10s %10s %9s %12s %10s\n" name "jobs" "wall (s)" "cpu (s)"
      "speedup" "items/s" "identical";
    List.map
      (fun (jobs, doc, (span : Clock.span)) ->
        let identical = String.equal doc reference in
        let speedup = if span.Clock.wall_s > 0.0 then base /. span.Clock.wall_s else 1.0 in
        let rate = Clock.rate (float_of_int items) span in
        Printf.printf "  %-24s %4d %10.3f %10.3f %8.2fx %12.1f %10b\n" "" jobs span.Clock.wall_s
          span.Clock.cpu_s speedup rate identical;
        J.Obj
          [ ("jobs", J.Int jobs); ("wall_s", J.Float span.Clock.wall_s);
            ("cpu_s", J.Float span.Clock.cpu_s); ("speedup", J.Float speedup);
            ("items_per_s", J.Float rate); ("identical", J.Bool identical) ])
      rows
  in
  let layouts = if !quick then 4 else 16 in
  let census ~jobs =
    J.to_string
      (Mavr_analysis.Survival.to_json
         (Mavr_analysis.Survival.census ~seed:(Mavr_analysis.Survival.Root 0) ~jobs ~layouts img))
  in
  let trials = if !quick then 1 else 3 in
  let ms = if !quick then 300 else 900 in
  let grid ~jobs =
    J.to_string (Mavr_sim.Montecarlo.to_json (Mavr_sim.Montecarlo.run ~jobs ~ms ~seed:7 ~trials b))
  in
  let rand_tasks = if !quick then 4 else 16 in
  let rand ~jobs =
    let moved =
      Mavr_campaign.Engine.map ~jobs ~seed:3 ~tasks:rand_tasks (fun ~index:_ ~rng ->
          Randomize.layout_distance img
            (Randomize.randomize ~seed:(Mavr_prng.Splitmix.next rng) img))
    in
    J.to_string (J.List (Array.to_list (Array.map (fun d -> J.Int d) moved)))
  in
  let census_rows = scale "survival census" layouts census in
  let grid_rows = scale "Monte Carlo grid" (3 * 3 * trials) grid in
  let rand_rows = scale "randomize throughput" rand_tasks rand in
  put "campaign"
    (J.Obj
       [ ("host_domains", J.Int host);
         ("census_layouts", J.Int layouts);
         ("grid_trials_per_cell", J.Int trials);
         ("grid_flight_ms", J.Int ms);
         ("randomize_tasks", J.Int rand_tasks);
         ("census_scaling", J.List census_rows);
         ("grid_scaling", J.List grid_rows);
         ("randomize_scaling", J.List rand_rows) ])

(* The robustness sweep: the full attack grid plus attack-free control
   flights at every fault intensity of the stress profile — channel
   noise, SEUs, reflash-stream corruption.  The headline claims carried
   into the committed artifact: the faulted campaign document is
   jobs-invariant, and MAVR concedes zero takeovers at every level. *)
let fault_robustness () =
  section "Fault robustness — detection & false alarms across fault intensities";
  let module MC = Mavr_sim.Montecarlo in
  let b = Lazy.force tiny in
  let trials = if !quick then 1 else 3 in
  let ms = if !quick then 300 else 600 in
  let profile = Mavr_fault.Profile.stress in
  let run ~jobs = MC.run ~jobs ~ms ~faults:profile ~seed:21 ~trials b in
  let g1, span = Clock.time (fun () -> run ~jobs:1) in
  let g2 = run ~jobs:2 in
  let identical = String.equal (J.to_string (MC.to_json g1)) (J.to_string (MC.to_json g2)) in
  let mavr_takeovers = MC.takeovers g1 MC.Mavr_defense in
  Printf.printf "  profile %s: %d trials/cell, %d ms flights (%.2f s wall)\n" profile.Mavr_fault.Profile.name
    trials ms span.Clock.wall_s;
  Printf.printf "  jobs-invariant with faults: %b; MAVR takeovers across all levels: %d\n"
    identical mavr_takeovers;
  Printf.printf "  %-10s %10s %11s %18s %18s\n" "level" "takeovers" "detections" "mavr-false-alarms"
    "undef-false-alarms";
  let level_rows =
    Array.to_list
      (Array.map
         (fun (lr : MC.level_result) ->
           let far d =
             let c =
               Array.to_list lr.MC.controls
               |> List.find (fun (c : MC.control) -> c.MC.posture = d)
             in
             MC.false_alarm_rate c
           in
           let mavr_far = far MC.Mavr_defense and undef_far = far MC.Undefended in
           let tk = MC.level_takeovers lr MC.Mavr_defense in
           let det = MC.level_detections lr MC.Mavr_defense in
           Printf.printf "  %-10s %10d %11d %18.2f %18.2f\n" lr.MC.level.Mavr_fault.Profile.name
             tk det mavr_far undef_far;
           J.Obj
             [ ("level", J.String lr.MC.level.Mavr_fault.Profile.name);
               ("mavr_takeovers", J.Int tk);
               ("mavr_detections", J.Int det);
               ("mavr_false_alarm_rate", J.Float mavr_far);
               ("undefended_false_alarm_rate", J.Float undef_far) ])
         g1.MC.levels)
  in
  put "fault_robustness"
    (J.Obj
       [ ("profile", J.String profile.Mavr_fault.Profile.name);
         ("trials_per_cell", J.Int trials);
         ("flight_ms", J.Int ms);
         ("wall_s", J.Float span.Clock.wall_s);
         ("cpu_s", J.Float span.Clock.cpu_s);
         ("identical_j1_j2", J.Bool identical);
         ("mavr_takeovers", J.Int mavr_takeovers);
         ("levels", J.List level_rows) ])

(* ---------------------------------------------------------------- *)
(* PR-7: the observability tax.  The span tracer and progress stream
   are opt-in; when armed they must neither change any campaign result
   (byte-identical canonical JSON) nor slow the run materially.  Both
   runs at jobs=1 so the comparison is pure instrumentation cost, not
   scheduling noise. *)

let tracing_overhead () =
  section "Tracing overhead — campaign with spans+progress vs default (jobs=1)";
  let module MC = Mavr_sim.Montecarlo in
  let b = Lazy.force tiny in
  let trials = if !quick then 1 else 3 in
  let ms = if !quick then 300 else 600 in
  (* One untimed warm-up flight first (allocator, lazy superblock
     compiles), then best-of-2 per configuration — a single cold pair
     reads warm-up noise as tens of percent of "overhead".  The ratio
     is taken on CPU time: at jobs=1 the two are the same work, but
     wall clock on a shared single-core host folds co-tenant load into
     whichever run drew the short straw (observed swings of ±40% on an
     instrumentation delta that is actually sub-1%). *)
  ignore (MC.run ~jobs:1 ~ms ~seed:11 ~trials b);
  let best f =
    let r1, s1 = Clock.time f in
    let _, s2 = Clock.time f in
    (r1, Float.min s1.Clock.wall_s s2.Clock.wall_s, Float.min s1.Clock.cpu_s s2.Clock.cpu_s)
  in
  let off, off_wall, off_cpu = best (fun () -> MC.run ~jobs:1 ~ms ~seed:11 ~trials b) in
  let tracer = Clock.tracer () in
  let progress = Mavr_campaign.Progress.create ~interval_s:0.05 ~sink:(fun _ -> ()) () in
  let on, on_wall, on_cpu =
    best (fun () -> MC.run ~jobs:1 ~ms ~seed:11 ~trials ~tracer ~progress b)
  in
  let identical = String.equal (J.to_string (MC.to_json off)) (J.to_string (MC.to_json on)) in
  let overhead_pct = if off_cpu > 0.0 then 100.0 *. (on_cpu -. off_cpu) /. off_cpu else 0.0 in
  let events = Mavr_telemetry.Span.event_count tracer in
  let lines = Mavr_campaign.Progress.lines_emitted progress in
  Printf.printf "  untraced grid (%d trials/cell, %d ms) : %8.3f s wall %8.3f s cpu\n" trials ms
    off_wall off_cpu;
  Printf.printf "  traced grid (spans + 50 ms heartbeat) : %8.3f s wall %8.3f s cpu\n" on_wall
    on_cpu;
  Printf.printf "  overhead (cpu)                         : %8.1f %% (gate: <= 10%% on full runs)\n"
    overhead_pct;
  Printf.printf "  trace events %d across %d lanes; %d progress lines; results identical: %b\n"
    events (Mavr_telemetry.Span.lane_count tracer) lines identical;
  put "tracing"
    (J.Obj
       [ ("trials_per_cell", J.Int trials);
         ("flight_ms", J.Int ms);
         ("off_wall_s", J.Float off_wall);
         ("on_wall_s", J.Float on_wall);
         ("off_cpu_s", J.Float off_cpu);
         ("on_cpu_s", J.Float on_cpu);
         ("overhead_pct", J.Float overhead_pct);
         ("identical", J.Bool identical);
         ("trace_events", J.Int events);
         ("trace_lanes", J.Int (Mavr_telemetry.Span.lane_count tracer));
         ("progress_lines", J.Int lines) ])

(* ---------------------------------------------------------------- *)
(* PR-9: the resumable-campaign machinery.  Two claims carried into
   the committed artifact: a checkpointed grid truncated to half its
   completed frontier and resumed reproduces the uninterrupted document
   byte-for-byte (and the resumed half costs roughly half the wall
   time), and adaptive early stopping saves a measurable share of the
   trial budget while keeping the document jobs-invariant, with every
   saved trial accounted for explicitly. *)

let resumable_campaign () =
  section "Resumable campaign — checkpoint/resume and adaptive early stopping";
  let module MC = Mavr_sim.Montecarlo in
  let module CK = Mavr_campaign.Checkpoint in
  let b = Lazy.force tiny in
  let profile_name = b.F.Build.profile.F.Profile.name in
  let trials = if !quick then 12 else 16 in
  let ms = if !quick then 200 else 500 in
  let seed = 29 in
  let full, full_span = Clock.time (fun () -> MC.run ~jobs:1 ~ms ~seed ~trials b) in
  let full_json = J.to_string (MC.to_json full) in
  let spec = MC.checkpoint_spec ~ms ~profile:profile_name ~seed ~trials () in
  let tasks = spec.CK.tasks in
  (* Checkpoint a complete run, then truncate the snapshot to half the
     frontier — the state a SIGKILL halfway through would leave — and
     resume from it. *)
  let path = Filename.temp_file "mavr_bench_ck" ".jsonl" in
  let ck = CK.create ~path ~every:8 spec in
  ignore (MC.run ~jobs:1 ~ms ~seed ~trials ~checkpoint:ck b);
  CK.close ck;
  let lines =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let keep = 1 + ((List.length lines - 1) / 2) in
  let oc = open_out_bin path in
  List.iteri
    (fun i l -> if i < keep then (output_string oc l; output_char oc '\n'))
    lines;
  close_out oc;
  let resumed, resume_span =
    Clock.time (fun () ->
        match CK.resume ~path spec with
        | Error e -> failwith ("bench: resume failed: " ^ e)
        | Ok ck ->
            let g = MC.run ~jobs:1 ~ms ~seed ~trials ~checkpoint:ck b in
            CK.close ck;
            g)
  in
  Sys.remove path;
  let resume_identical = String.equal full_json (J.to_string (MC.to_json resumed)) in
  Printf.printf "  fixed budget: %d tasks, %.2f s wall (jobs=1)\n" tasks full_span.Clock.wall_s;
  Printf.printf "  resumed from %d/%d frontier: %.2f s wall; byte-identical: %b\n" (keep - 1)
    tasks resume_span.Clock.wall_s resume_identical;
  Printf.printf "  %-8s %14s %9s %16s %9s\n" "target" "trials skipped" "saved" "jobs-invariant"
    "wall s";
  let es_rows =
    List.map
      (fun target ->
        let es = Mavr_campaign.Early_stop.create ~target () in
        let g1, es_span =
          Clock.time (fun () -> MC.run ~jobs:1 ~ms ~seed ~trials ~early_stop:es b)
        in
        let g4 = MC.run ~jobs:4 ~ms ~seed ~trials ~early_stop:es b in
        let identical =
          String.equal (J.to_string (MC.to_json g1)) (J.to_string (MC.to_json g4))
        in
        let saved_pct = 100.0 *. float_of_int g1.MC.trials_skipped /. float_of_int tasks in
        Printf.printf "  %-8.2f %14d %8.1f%% %16b %9.2f\n" target g1.MC.trials_skipped saved_pct
          identical es_span.Clock.wall_s;
        J.Obj
          [ ("target_halfwidth", J.Float target);
            ("trials_skipped", J.Int g1.MC.trials_skipped);
            ("saved_pct", J.Float saved_pct);
            ("identical_j1_j4", J.Bool identical);
            ("wall_s", J.Float es_span.Clock.wall_s) ])
      [ 0.3; 0.45 ]
  in
  put "resumable"
    (J.Obj
       [ ("trials_per_cell", J.Int trials);
         ("flight_ms", J.Int ms);
         ("tasks", J.Int tasks);
         ("full_wall_s", J.Float full_span.Clock.wall_s);
         ("resume_wall_s", J.Float resume_span.Clock.wall_s);
         ("resume_frontier", J.Int (keep - 1));
         ("resume_identical", J.Bool resume_identical);
         ("early_stop", J.List es_rows) ])

(* ---------------------------------------------------------------- *)
(* PR-10: multi-host sharding.  The dispatcher splits the task space
   into cell-aligned shards, drives Service workers (here: in-process
   serve loops on temp sockets, each running the real shard executor),
   merges the streamed checkpoint entries and replays them through the
   campaign join.  The claim carried into the committed artifact is
   byte-identity with the single-host document — plus what the
   coordination costs in wall time against two concurrent workers. *)

let dispatch_bench () =
  section "Dispatch — sharded campaign over serve workers vs single host";
  let module MC = Mavr_sim.Montecarlo in
  let module CK = Mavr_campaign.Checkpoint in
  let module D = Mavr_campaign.Dispatch in
  let module Service = Mavr_campaign.Service in
  let b = Lazy.force tiny in
  let profile_name = b.F.Build.profile.F.Profile.name in
  let trials = if !quick then 12 else 16 in
  let ms = if !quick then 200 else 500 in
  let seed = 29 in
  let single, single_span = Clock.time (fun () -> MC.run ~jobs:1 ~ms ~seed ~trials b) in
  let single_json = J.to_string (MC.to_json single) in
  let spec = MC.checkpoint_spec ~ms ~profile:profile_name ~seed ~trials () in
  let workers = 2 in
  let shards = D.plan ~tasks:spec.CK.tasks ~block:trials ~shards:workers in
  let handler req ~progress =
    let geti k j = Option.bind (J.member k j) J.to_int in
    match J.member "shard" req with
    | Some sh -> (
        match (geti "lo" sh, geti "hi" sh) with
        | Some lo, Some hi ->
            let ck = CK.create ~stream:progress spec in
            MC.run_shard ~jobs:1 ~ms ~checkpoint:ck ~lo ~hi ~seed ~trials b;
            Ok (J.Obj [ ("entries", J.Int (CK.completed ck)) ])
        | _ -> Error "bad shard bounds")
    | None -> Error "no shard in request"
  in
  let sockets =
    List.init workers (fun i ->
        let path = Filename.temp_file (Printf.sprintf "mavr_bench_disp%d_" i) ".sock" in
        Sys.remove path;
        path)
  in
  let domains =
    List.map
      (fun s -> Domain.spawn (fun () -> Service.serve ~socket:s ~max_requests:1 handler))
      sockets
  in
  let request ~lo ~hi = J.Obj [ ("shard", J.Obj [ ("lo", J.Int lo); ("hi", J.Int hi) ]) ] in
  let (merged, outcome), dispatch_span =
    Clock.time (fun () ->
        match
          D.run ~spec ~request ~block:trials
            ~workers:(List.map (fun s -> D.Unix_socket s) sockets)
            ~shards ()
        with
        | Error e -> failwith ("bench: dispatch failed: " ^ D.error_to_string e)
        | Ok o ->
            (* merge by replay: prime a fresh checkpoint and let the
               campaign join emit the document — zero trials execute *)
            let ck = CK.create spec in
            List.iter
              (fun (i, e) ->
                match e with
                | CK.Result r -> CK.record ck ~index:i r
                | CK.Skip reason -> CK.skip ck ~index:i ~reason)
              o.D.entries;
            (MC.run ~jobs:1 ~ms ~seed ~trials ~checkpoint:ck b, o))
  in
  List.iter (fun d -> ignore (Domain.join d)) domains;
  List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets;
  let identical = String.equal single_json (J.to_string (MC.to_json merged)) in
  let entries = List.length outcome.D.entries in
  Printf.printf "  single host (jobs=1)                  : %8.3f s wall (%d tasks)\n"
    single_span.Clock.wall_s spec.CK.tasks;
  Printf.printf "  dispatched (%d shards over %d workers) : %8.3f s wall\n" (List.length shards)
    workers dispatch_span.Clock.wall_s;
  Printf.printf
    "  merged entries %d/%d; %d assignment(s), %d worker failure(s), %d heartbeat(s)\n" entries
    spec.CK.tasks outcome.D.assignments outcome.D.worker_failures outcome.D.heartbeats;
  Printf.printf "  byte-identical to single host          : %b\n" identical;
  put "dispatch"
    (J.Obj
       [ ("trials_per_cell", J.Int trials);
         ("flight_ms", J.Int ms);
         ("tasks", J.Int spec.CK.tasks);
         ("shards", J.Int (List.length shards));
         ("workers", J.Int workers);
         ("single_wall_s", J.Float single_span.Clock.wall_s);
         ("dispatch_wall_s", J.Float dispatch_span.Clock.wall_s);
         ("entries", J.Int entries);
         ("assignments", J.Int outcome.D.assignments);
         ("worker_failures", J.Int outcome.D.worker_failures);
         ("heartbeats", J.Int outcome.D.heartbeats);
         ("identical", J.Bool identical) ])

(* ---------------------------------------------------------------- *)
(* PR-8: the interprocedural data-flow clients.  Three per-profile
   claims carried into the committed artifact: the static stack bound
   dominates the SP watermark of an instrumented PARAM_SET-driven
   flight, the uplink taint analysis finds the §IV unchecked copy on
   the vulnerable build and nothing on the bounds-checked one, and the
   translation-validator proves a fresh randomized layout isomorphic.
   The timings are the analysis costs a CI gate pays per image. *)

let dataflow_bench () =
  section "Data-flow clients — static stack bounds, uplink taint, translation validation";
  let module A = Mavr_analysis in
  let fly_watermark image =
    let cpu = Cpu.create () in
    Cpu.load_program cpu image.Image.code;
    let probes = Mavr_avr.Probes.attach ~registry:(Mavr_telemetry.Metrics.create ()) cpu in
    ignore (Cpu.run_until_halt cpu ~max_cycles:60_000);
    for i = 0 to 7 do
      let payload = String.init 16 (fun k -> Char.chr ((1 + i + k) land 0x3F)) in
      Cpu.uart_send cpu
        (Mavr_mavlink.Frame.encode
           { Mavr_mavlink.Frame.seq = i; sysid = 255; compid = 0; msgid = 23; payload })
    done;
    let ms = if !quick then 150 else 400 in
    ignore (Cpu.run_until_halt cpu ~max_cycles:(16_000 * ms));
    Mavr_avr.Probes.min_sp probes
  in
  Printf.printf "  %-12s %7s %8s %6s %7s %7s %6s %8s %8s %8s\n" "Application" "static"
    "dynamic" "holds" "taint" "patched" "valid" "stack ms" "taint ms" "valid ms";
  let rows =
    List.map
      (fun ((p : F.Profile.t), _, mavr) ->
        let img = mavr.F.Build.image in
        let cfg = A.Cfg.recover img in
        let sd, sd_span = Clock.time (fun () -> A.Stackdepth.analyze cfg) in
        let taint, taint_span = Clock.time (fun () -> A.Taint.analyze cfg) in
        let patched = F.Build.build ~pad:mavr.F.Build.pad_bytes p F.Profile.patched in
        let taint_p = A.Taint.analyze (A.Cfg.recover patched.F.Build.image) in
        let rnd = Randomize.randomize ~seed:7 img in
        let valid, eq_span =
          Clock.time (fun () -> A.Equiv.validate ~original:img ~randomized:rnd)
        in
        let validator_ok = Result.is_ok valid in
        let static = sd.A.Stackdepth.image_bound in
        let dynamic =
          match fly_watermark img with
          | Some sp -> Some (F.Layout.stack_top - sp)
          | None -> None
        in
        let holds =
          match (static, dynamic) with
          | A.Stackdepth.Finite b, Some d -> d <= b
          | _ -> false
        in
        let n_mavr = List.length taint.A.Taint.findings in
        let n_patched = List.length taint_p.A.Taint.findings in
        Printf.printf "  %-12s %7s %7dB %6b %7d %7d %6b %8.1f %8.1f %8.1f\n" p.name
          (Format.asprintf "%a" A.Stackdepth.pp_bound static)
          (Option.value dynamic ~default:(-1)) holds n_mavr n_patched validator_ok
          (1000. *. sd_span.Clock.wall_s)
          (1000. *. taint_span.Clock.wall_s)
          (1000. *. eq_span.Clock.wall_s);
        ( String.lowercase_ascii p.name,
          J.Obj
            [
              ("static_bound", A.Stackdepth.bound_to_json static);
              ("dynamic_high_water", J.Int (Option.value dynamic ~default:(-1)));
              ("bound_holds", J.Bool holds);
              ("taint_findings_mavr", J.Int n_mavr);
              ("taint_findings_patched", J.Int n_patched);
              ("validator_ok", J.Bool validator_ok);
              ("stackdepth_ms", J.Float (1000. *. sd_span.Clock.wall_s));
              ("taint_ms", J.Float (1000. *. taint_span.Clock.wall_s));
              ("validate_ms", J.Float (1000. *. eq_span.Clock.wall_s));
            ] ))
      (Lazy.force builds)
  in
  Printf.printf
    "  (gates: static >= dynamic, taint = 1 finding on mavr / 0 on patched, validator OK)\n";
  put "dataflow" (J.Obj rows)

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks of this implementation.                 *)

let microbenchmarks () =
  section "Micro-benchmarks (Bechamel; OCaml implementation performance)";
  let open Bechamel in
  let b = Lazy.force tiny in
  let _, _, arduplane = List.hd (Lazy.force builds) in
  let img = arduplane.F.Build.image in
  let frame =
    { Mavr_mavlink.Frame.seq = 1; sysid = 1; compid = 1; msgid = 27; payload = String.make 26 'x' }
  in
  let wire = Mavr_mavlink.Frame.encode frame in
  let seed = ref 0 in
  let tests =
    [
      Test.make ~name:"randomize+patch (221 KB, Table II pipeline)"
        (Staged.stage (fun () ->
             incr seed;
             ignore (Randomize.randomize ~seed:!seed img)));
      Test.make ~name:"gadget scan (221 KB image, Fig. 4/5)"
        (Staged.stage (fun () -> ignore (Gadget.scan img)));
      Test.make ~name:"emulator: 100k cycles of autopilot"
        (Staged.stage
           (let cpu = Cpu.create () in
            Cpu.load_program cpu b.F.Build.image.Image.code;
            fun () ->
              if Cpu.halted cpu <> None then Cpu.reset cpu;
              ignore (Cpu.run cpu ~max_cycles:100_000)));
      Test.make ~name:"MAVLink frame encode (Fig. 2)"
        (Staged.stage (fun () -> ignore (Mavr_mavlink.Frame.encode frame)));
      Test.make ~name:"MAVLink frame decode (Fig. 2)"
        (Staged.stage (fun () -> ignore (Mavr_mavlink.Frame.decode wire)));
      Test.make ~name:"Intel HEX roundtrip (preprocessed image)"
        (Staged.stage (fun () ->
             ignore (Mavr_obj.Ihex.decode (Mavr_obj.Symtab.to_hex b.F.Build.image))));
      Test.make ~name:"exact 917! (brute-force effort, Sec V-D)"
        (Staged.stage (fun () -> ignore (Nat.factorial 917)));
      Test.make ~name:"firmware build (tiny profile)"
        (Staged.stage (fun () ->
             ignore (F.Build.build (F.Profile.tiny ~n:60 ~seed:3) F.Profile.mavr)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
    let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let results = Analyze.all ols instance results in
    Hashtbl.iter
      (fun name v ->
        match Analyze.OLS.estimates v with
        | Some [ est ] -> Printf.printf "  %-52s %14.0f ns/run\n" name est
        | _ -> Printf.printf "  %-52s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

let write_json path =
  let doc =
    J.Obj
      ([ ("schema", J.String "mavr-bench"); ("quick", J.Bool !quick) ]
      @ List.rev !results)
  in
  let oc = open_out path in
  output_string oc (J.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nJSON results written to %s\n" path

let () =
  Arg.parse
    [ ("--quick", Arg.Set quick, " reduced cycle budgets, no micro-benchmarks (CI smoke)");
      ("--json", Arg.String (fun p -> json_out := Some p), "PATH write machine-readable results") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--quick] [--json PATH]";
  print_endline "MAVR reproduction — evaluation harness";
  fig1_memory_map ();
  fig2_mavlink ();
  table1 ();
  table3 ();
  table2 ();
  fig4_5_gadgets ();
  static_analysis ();
  dataflow_bench ();
  fig6 ();
  effectiveness ();
  bruteforce_and_entropy ();
  randomization_frequency ();
  runtime_defense_ablation ();
  randomizability ();
  decode_cache_bench ();
  superblock_bench ();
  telemetry_overhead_bench ();
  campaign_scaling ();
  fault_robustness ();
  tracing_overhead ();
  resumable_campaign ();
  dispatch_bench ();
  if not !quick then microbenchmarks ();
  (match !json_out with Some path -> write_json path | None -> ());
  print_endline "\nDone.  See EXPERIMENTS.md for the paper-vs-measured discussion."
