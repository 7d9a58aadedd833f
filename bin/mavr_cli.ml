(* mavr — command-line front end to the MAVR reproduction.

   Subcommands:
     build      build a firmware profile and write its preprocessed HEX
     gadgets    scan a firmware for ROP gadgets
     randomize  randomize a preprocessed HEX (what the master does at boot)
     attack     run the stealthy attack demo against a profile
     fly        closed-loop defended/undefended flight
     stats      instrumented flight: telemetry registry summary (or --json)
     flight-record  induce a fault and print the flight-recorder dump
     analyze    static analysis: CFG recovery + gadget-survival census, plus the
                data-flow clients (--stack/--stack-verify bound, --taint uplink
                tracking, --validate-seed translation validation)
     lint       check firmware structural invariants (exit 1 on findings)
     campaign   parallel Monte Carlo evaluation campaign (census + attack grid;
                --trace/--progress stream a Perfetto trace and live heartbeats)
     profile    superblock hot-path profiler: ranked hot blocks with symbols
     tables     print the paper-table reproductions (also in bench/main.exe)

   Exit codes: 0 success, 1 operation failed (gadgets absent, randomization
   had no effect or failed validation, output not writable, no fault captured,
   lint findings, an analyze sub-analysis found a violation — taint findings,
   translation mismatch, stack bound under the dynamic watermark — or a
   campaign found a feasible payload or a takeover under the MAVR defense),
   2 usage error. *)

open Cmdliner
module Image = Mavr_obj.Image
module F = Mavr_firmware

module Spec = Mavr_sim.Campaign_spec

(* Profile names parse with [Profile.of_string], which also accepts every
   name a profile prints (["Arduplane"], ["tiny-60"]) — that is what lets
   the name travel in a serve/dispatch request. *)
let profile_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (F.Profile.of_string s)),
      fun fmt p -> Format.fprintf fmt "%s" p.F.Profile.name )

let profile_arg =
  Arg.(
    value
    & opt profile_conv (F.Profile.tiny ~n:100 ~seed:2024)
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Firmware profile: arduplane, arducopter, ardurover, or a filler-function count.")

(* Flags several subcommands declare, each with its own default. *)
let seed_opt default doc = Arg.(value & opt int default & info [ "s"; "seed" ] ~docv:"SEED" ~doc)
let ms_opt default doc = Arg.(value & opt int default & info [ "ms" ] ~docv:"MS" ~doc)
let layouts_opt default doc = Arg.(value & opt int default & info [ "layouts" ] ~docv:"K" ~doc)
let seed_arg = seed_opt 1 "Randomization seed."

(* A count of at least 1: a smaller value is a usage error (exit 2),
   refused while parsing, before any pool starts or worker spawns. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_opt doc =
  Arg.(value & opt (some positive_int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let toolchain_arg =
  Arg.(
    value & opt (enum [ ("mavr", F.Profile.mavr); ("stock", F.Profile.stock); ("patched", F.Profile.patched) ]) F.Profile.mavr
    & info [ "t"; "toolchain" ] ~docv:"TC" ~doc:"Toolchain flags: mavr, stock or patched.")

let build_firmware profile toolchain = F.Build.build profile toolchain

let cmd_build =
  let run profile toolchain out =
    let b = build_firmware profile toolchain in
    Format.printf "%a@." Image.pp_summary b.image;
    match out with
    | Some path -> (
        try
          let oc = open_out path in
          output_string oc (Mavr_obj.Symtab.to_hex b.image);
          close_out oc;
          Format.printf "preprocessed HEX written to %s@." path;
          0
        with Sys_error msg ->
          Format.eprintf "error: cannot write %s: %s@." path msg;
          1)
    | None -> 0
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the preprocessed (symbol-table-prepended) HEX file.")
  in
  Cmd.v (Cmd.info "build" ~doc:"Build a firmware image")
    Term.(const run $ profile_arg $ toolchain_arg $ out)

let cmd_gadgets =
  let run profile toolchain verbose =
    let b = build_firmware profile toolchain in
    let gadgets = Mavr_core.Gadget.scan b.image in
    Format.printf "%d gadgets in %s (%s toolchain)@." (List.length gadgets)
      profile.F.Profile.name
      (if toolchain == F.Profile.stock then "stock" else "mavr");
    List.iter
      (fun (k, n) -> Format.printf "  %-10s %d@." (Mavr_core.Gadget.kind_name k) n)
      (Mavr_core.Gadget.count_by_kind gadgets);
    let found =
      match Mavr_core.Gadget.locate_paper_gadgets b.image with
      | Some g ->
          Format.printf "paper gadgets: stk_move@@0x%x write_mem@@0x%x@." g.stk_move g.write_mem;
          true
      | None ->
          print_endline "paper gadgets: not found";
          false
    in
    if verbose then
      List.iteri
        (fun i g -> if i < 20 then Format.printf "%a@." Mavr_core.Gadget.pp g)
        gadgets;
    if found then 0 else 1
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"List the first 20 gadgets.") in
  Cmd.v (Cmd.info "gadgets" ~doc:"Scan a firmware for ROP gadgets")
    Term.(const run $ profile_arg $ toolchain_arg $ verbose)

let cmd_randomize =
  let run profile seed =
    let b = build_firmware profile F.Profile.mavr in
    (* Latency is a wall-clock quantity; [Sys.time] (CPU time) only agreed
       with it here by virtue of the process being single-threaded. *)
    let checked, span =
      Mavr_campaign.Clock.time (fun () ->
          match Mavr_core.Randomize.randomize ~seed b.image with
          | exception Mavr_core.Stream_patch.Unpatchable m -> Error ("unpatchable image: " ^ m)
          | r -> (
              let original = b.image in
              match Mavr_core.Randomize.verify_structure ~original ~randomized:r with
              | Error m -> Error m
              | Ok () -> (
                  match Mavr_analysis.Equiv.validate ~original ~randomized:r with
                  | Ok _ -> Ok r
                  | Error (m :: _ as ms) ->
                      Error
                        (Format.asprintf "translation validation failed: %d mismatch(es), first: %a"
                           (List.length ms) Mavr_analysis.Equiv.pp_mismatch m)
                  | Error [] ->
                      Error
                        "translation validation failed: validator rejected the image without a \
                         mismatch")))
    in
    match checked with
    | Error m ->
        Format.eprintf "error: %s@." m;
        1
    | Ok r ->
    Format.printf "randomized + translation-validated %s with seed %d in %.1f ms wall, %.1f ms cpu (host)@."
      profile.F.Profile.name seed
      (1000. *. span.Mavr_campaign.Clock.wall_s)
      (1000. *. span.Mavr_campaign.Clock.cpu_s);
    let moved = Mavr_core.Randomize.layout_distance b.image r in
    Format.printf "functions moved: %d/%d@." moved (Image.function_count b.image);
    Format.printf "modeled on-board startup overhead: %.0f ms (prototype), %.0f ms (production)@."
      (Mavr_core.Serial.programming_ms Mavr_core.Serial.prototype (Image.size r))
      (Mavr_core.Serial.programming_ms Mavr_core.Serial.production (Image.size r));
    if moved = 0 then begin
      Format.eprintf "error: randomization left the layout unchanged@.";
      1
    end
    else 0
  in
  Cmd.v (Cmd.info "randomize" ~doc:"Randomize a firmware (master-processor boot step)")
    Term.(const run $ profile_arg $ seed_arg)

(* The stealthy V2 attack of the CLI demos: the frames an attacker who
   analysed [b] sends to overwrite the gyroscope calibration word with
   [hijacked_gyro_cfg]. *)
let hijacked_gyro_cfg = 0x4141

let gyro_hijack_frames b =
  let ti = Mavr_core.Rop.analyze b in
  let obs = Mavr_core.Rop.observe ti in
  Mavr_core.Rop.v2_stealthy ti obs
    ~writes:
      [ Mavr_core.Rop.write_u16 obs ~addr:F.Layout.gyro_cfg ~value:hijacked_gyro_cfg ~neighbour:0 ]

let cmd_attack =
  let run profile seed defended =
    let b = build_firmware profile F.Profile.mavr in
    let victim = if defended then Mavr_core.Randomize.randomize ~seed b.image else b.image in
    let cpu = Mavr_avr.Cpu.create () in
    Mavr_avr.Cpu.load_program cpu victim.Image.code;
    ignore (Mavr_avr.Cpu.run cpu ~max_cycles:60_000);
    List.iter (Mavr_avr.Cpu.uart_send cpu) (gyro_hijack_frames b);
    let r = Mavr_avr.Cpu.run cpu ~max_cycles:3_000_000 in
    let cfg =
      Mavr_avr.Cpu.data_peek cpu F.Layout.gyro_cfg
      lor (Mavr_avr.Cpu.data_peek cpu (F.Layout.gyro_cfg + 1) lsl 8)
    in
    Format.printf "target: %s (%s)@." profile.F.Profile.name
      (if defended then "MAVR-randomized" else "unprotected");
    Format.printf "stealthy V2 attack: %s; board %s@."
      (if cfg = hijacked_gyro_cfg then "SUCCEEDED (gyro calibration hijacked)" else "failed")
      (match r with
      | `Halted h -> Format.asprintf "crashed (%a)" Mavr_avr.Cpu.pp_halt h
      | `Budget_exhausted -> "still running");
    0
  in
  let defended = Arg.(value & flag & info [ "d"; "defended" ] ~doc:"Attack a MAVR-randomized image.") in
  Cmd.v (Cmd.info "attack" ~doc:"Run the stealthy ROP attack")
    Term.(const run $ profile_arg $ seed_arg $ defended)

(* The defense of the CLI's closed-loop flights: with [defended], the
   MAVR master with a 20,000-cycle watchdog window. *)
let flight_defense defended =
  if defended then
    Mavr_sim.Scenario.Mavr { Mavr_core.Master.default_config with watchdog_window_cycles = 20_000 }
  else Mavr_sim.Scenario.No_defense

let cmd_fly =
  let run profile defended ms =
    let b = build_firmware profile F.Profile.mavr in
    let s = Mavr_sim.Scenario.create ~image:b.image (flight_defense defended) in
    Mavr_sim.Scenario.run s ~ms:(float_of_int ms);
    Format.printf "%a@." Mavr_sim.Scenario.pp_report (Mavr_sim.Scenario.report s);
    0
  in
  let defended = Arg.(value & flag & info [ "d"; "defended" ] ~doc:"Enable the MAVR master.") in
  let ms = ms_opt 3000 "Simulated milliseconds." in
  Cmd.v (Cmd.info "fly" ~doc:"Closed-loop flight simulation")
    Term.(const run $ profile_arg $ defended $ ms)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of the human summary.")

(* Shared rig for the telemetry subcommands: an instrumented closed-loop
   scenario, optionally with attacker traffic on the uplink after a
   warm-up third of the flight. *)
let instrumented_flight profile ~defended ~ms ~uplink_after_warmup =
  let b = build_firmware profile F.Profile.mavr in
  let s = Mavr_sim.Scenario.create ~image:b.image (flight_defense defended) in
  let registry = Mavr_telemetry.Metrics.create () in
  let probes = Mavr_sim.Scenario.attach_telemetry s ~registry in
  let warmup = max 1 (ms / 3) in
  Mavr_sim.Scenario.run s ~ms:(float_of_int warmup);
  (match uplink_after_warmup b with [] -> () | frames -> Mavr_sim.Scenario.inject s frames);
  Mavr_sim.Scenario.run s ~ms:(float_of_int (max 1 (ms - warmup)));
  (b, registry, probes)

let cmd_stats =
  let run profile defended ms attack json =
    let uplink b = if attack then gyro_hijack_frames b else [] in
    let _b, registry, _probes =
      instrumented_flight profile ~defended ~ms ~uplink_after_warmup:uplink
    in
    if json then
      print_endline (Mavr_telemetry.Json.to_string ~indent:2 (Mavr_telemetry.Metrics.to_json registry))
    else Format.printf "%a@." Mavr_telemetry.Metrics.pp_summary registry;
    0
  in
  let defended = Arg.(value & flag & info [ "d"; "defended" ] ~doc:"Enable the MAVR master.") in
  let ms = ms_opt 2000 "Simulated milliseconds." in
  let attack =
    Arg.(value & flag & info [ "attack" ] ~doc:"Inject the stealthy V2 attack after warm-up.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Instrumented flight: print the telemetry registry")
    Term.(const run $ profile_arg $ defended $ ms $ attack $ json_flag)

let cmd_flight_record =
  let run profile defended ms json =
    let uplink b = Mavr_core.Rop.crash_probe (Mavr_core.Rop.analyze b) in
    let _b, _registry, probes =
      instrumented_flight profile ~defended ~ms ~uplink_after_warmup:uplink
    in
    match Mavr_avr.Probes.last_fault_dump probes with
    | Some dump ->
        if json then
          print_endline
            (Mavr_telemetry.Json.to_string ~indent:2 (Mavr_avr.Probes.dump_to_json probes))
        else print_string dump;
        0
    | None ->
        Format.eprintf "error: no fault captured (the crash probe did not trip the CPU)@.";
        1
  in
  let defended =
    Arg.(value & flag & info [ "d"; "defended" ] ~doc:"Enable the MAVR master (recover after the fault).")
  in
  let ms = ms_opt 1500 "Simulated milliseconds." in
  Cmd.v
    (Cmd.info "flight-record"
       ~doc:"Fire a crash probe at the firmware and print the flight-recorder fault dump")
    Term.(const run $ profile_arg $ defended $ ms $ json_flag)

let cmd_disasm =
  let run profile toolchain symbol count =
    let b = build_firmware profile toolchain in
    let image = b.F.Build.image in
    let pos, len =
      match symbol with
      | None -> (image.Mavr_obj.Image.text_start, count * 2)
      | Some name -> (
          match Mavr_obj.Image.find image name with
          | s -> (s.addr, min s.size (count * 2))
          | exception Not_found ->
              Format.eprintf "unknown symbol %S@." name;
              exit 2)
    in
    print_string (Mavr_avr.Disasm.listing ~pos ~len image.Mavr_obj.Image.code);
    0
  in
  let symbol =
    Arg.(value & opt (some string) None & info [ "f"; "function" ] ~docv:"NAME"
           ~doc:"Disassemble one function (e.g. handle_param_set).")
  in
  let count =
    Arg.(value & opt int 32 & info [ "n" ] ~docv:"N" ~doc:"Instruction-word budget.")
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a firmware region")
    Term.(const run $ profile_arg $ toolchain_arg $ symbol $ count)

let cmd_lifetime =
  let run k boots_per_day attack_rate =
    let policy = { Mavr_core.Lifetime.randomize_every_boots = k } in
    let endurance = Mavr_avr.Device.atmega2560.flash_endurance in
    Format.printf "policy: randomize every %d boot(s); %0.1f boots/day; %.3f attacks/boot@." k
      boots_per_day attack_rate;
    Format.printf "  reflashes per boot : %.3f@."
      (Mavr_core.Lifetime.reflashes_per_boot policy ~attack_rate_per_boot:attack_rate);
    Format.printf "  boots to wear-out  : %.0f (of %d rated cycles)@."
      (Mavr_core.Lifetime.boots_until_wearout policy ~endurance ~attack_rate_per_boot:attack_rate)
      endurance;
    Format.printf "  calendar life      : %.1f years@."
      (Mavr_core.Lifetime.years_until_wearout policy ~endurance ~attack_rate_per_boot:attack_rate
         ~boots_per_day);
    Format.printf "  layout staleness   : %d boot(s) per layout@."
      (Mavr_core.Lifetime.layout_exposure_boots policy);
    0
  in
  let k = Arg.(value & opt int 1 & info [ "k"; "every" ] ~docv:"K" ~doc:"Randomize every K boots.") in
  let bpd = Arg.(value & opt float 10.0 & info [ "boots-per-day" ] ~docv:"N") in
  let ar = Arg.(value & opt float 0.0 & info [ "attack-rate" ] ~docv:"R" ~doc:"Detected attacks per boot.") in
  Cmd.v (Cmd.info "lifetime" ~doc:"Randomization frequency vs flash endurance (paper §V-C)")
    Term.(const run $ k $ bpd $ ar)

let cmd_entropy =
  let run n pad =
    Format.printf "n = %d shuffleable symbols@." n;
    Format.printf "  layout entropy            : %.1f bits (log2 n!)@."
      (Mavr_core.Security.entropy_bits ~n);
    if pad > 0 then
      Format.printf "  with %d B random padding : %.1f bits@." pad
        (Mavr_core.Security.entropy_bits_with_padding ~n ~slack_bytes:pad);
    Format.printf "  E[brute force], static    : %s attempts@."
      (let v = Mavr_core.Security.expected_attempts_static ~n in
       if Mavr_bignum.Nat.digits v > 30 then
         Printf.sprintf "a %d-digit number of" (Mavr_bignum.Nat.digits v)
       else Mavr_bignum.Nat.to_string v);
    Format.printf "  E[brute force], MAVR      : %s attempts@."
      (let v = Mavr_core.Security.expected_attempts_rerandomizing ~n in
       if Mavr_bignum.Nat.digits v > 30 then
         Printf.sprintf "a %d-digit number of" (Mavr_bignum.Nat.digits v)
       else Mavr_bignum.Nat.to_string v);
    0
  in
  let n = Arg.(value & opt int 800 & info [ "n"; "symbols" ] ~docv:"N") in
  let pad = Arg.(value & opt int 0 & info [ "padding" ] ~docv:"BYTES") in
  Cmd.v (Cmd.info "entropy" ~doc:"Layout entropy and brute-force effort (paper §V-D, §VIII-B)")
    Term.(const run $ n $ pad)

(* The analyze --json document carries a schema version so downstream
   consumers (bin/trace_check --analyze, bench/check) can reject drift:
     1  cfg + gadgets + census (PR 5)
     2  adds optional stack / taint / translation_validation /
        stack_verify sections and the toolchain field (this version) *)
let analyze_schema_version = 2

(* Dynamic cross-check of the static stack bound: fly the image with
   probes attached, drive the uplink with benign PARAM_SET frames (the
   deepest interprocedural path), and compare the exact SP watermark
   against the static image bound. *)
let stack_verify_run (img : Image.t) ~ms =
  let module Cpu = Mavr_avr.Cpu in
  let registry = Mavr_telemetry.Metrics.create () in
  let cpu = Cpu.create () in
  Cpu.load_program cpu img.Image.code;
  let probes = Mavr_avr.Probes.attach ~registry cpu in
  ignore (Cpu.run cpu ~max_cycles:60_000);
  for i = 0 to 7 do
    let payload = String.init 16 (fun k -> Char.chr ((1 + i + k) land 0x3F)) in
    Cpu.uart_send cpu
      (Mavr_mavlink.Frame.encode
         { Mavr_mavlink.Frame.seq = i; sysid = 255; compid = 0; msgid = 23; payload })
  done;
  ignore (Cpu.run cpu ~max_cycles:(16_000 * ms));
  Mavr_avr.Probes.min_sp probes

let cmd_analyze =
  let run profile toolchain layouts stack stack_verify taint validate_seed json =
    let module J = Mavr_telemetry.Json in
    let module Sd = Mavr_analysis.Stackdepth in
    let b = build_firmware profile toolchain in
    let img = b.F.Build.image in
    let cfg = Mavr_analysis.Cfg.recover img in
    let stats = Mavr_analysis.Cfg.stats cfg in
    let gadgets = Mavr_core.Gadget.scan img in
    let census = Mavr_analysis.Survival.census ~layouts img in
    let sd =
      if stack || stack_verify <> None then Some (Sd.analyze cfg) else None
    in
    let taint_r = if taint then Some (Mavr_analysis.Taint.analyze cfg) else None in
    let equiv_r =
      Option.map
        (fun seed ->
          match Mavr_core.Randomize.randomize ~seed img with
          | exception Mavr_core.Stream_patch.Unpatchable m ->
              Error [ { Mavr_analysis.Equiv.at = 0; what = "unpatchable image: " ^ m } ]
          | r -> Mavr_analysis.Equiv.validate ~original:img ~randomized:r)
        validate_seed
    in
    (* Dynamic cross-check: static bound must dominate the SP watermark. *)
    let verify_r =
      Option.map
        (fun ms ->
          let stack_top = F.Layout.stack_top in
          let min_sp = stack_verify_run img ~ms in
          let static = (Option.get sd).Sd.image_bound in
          let ok =
            match (static, min_sp) with
            | Sd.Finite b, Some sp -> stack_top - sp <= b
            | _ -> false
          in
          (ms, stack_top, min_sp, ok))
        stack_verify
    in
    if json then
      print_endline
        (J.to_string ~indent:2
           (J.Obj
              ([
                 ("schema", J.Int analyze_schema_version);
                 ("profile", J.String profile.F.Profile.name);
                 ( "toolchain",
                   J.String
                     (if toolchain == F.Profile.stock then "stock"
                      else if toolchain == F.Profile.patched then "patched"
                      else "mavr") );
                 ("cfg", Mavr_analysis.Cfg.stats_to_json stats);
                 ( "gadgets",
                   J.Obj
                     (("total", J.Int (List.length gadgets))
                     :: List.map
                          (fun (k, n) -> (Mavr_core.Gadget.kind_name k, J.Int n))
                          (Mavr_core.Gadget.count_by_kind gadgets)) );
                 ("census", Mavr_analysis.Survival.to_json census);
               ]
              @ (match sd with
                | Some r -> [ ("stack", Sd.to_json r) ]
                | None -> [])
              @ (match taint_r with
                | Some r -> [ ("taint", Mavr_analysis.Taint.to_json r) ]
                | None -> [])
              @ (match equiv_r with
                | Some r -> [ ("translation_validation", Mavr_analysis.Equiv.to_json r) ]
                | None -> [])
              @
              match verify_r with
              | Some (ms, stack_top, min_sp, ok) ->
                  [
                    ( "stack_verify",
                      J.Obj
                        ([ ("ms", J.Int ms); ("stack_top", J.Int stack_top) ]
                        @ (match min_sp with
                          | Some sp ->
                              [
                                ("min_sp", J.Int sp);
                                ("dynamic_high_water", J.Int (stack_top - sp));
                              ]
                          | None -> [])
                        @ [
                            ("static_bound", Sd.bound_to_json (Option.get sd).Sd.image_bound);
                            ("ok", J.Bool ok);
                          ]) );
                  ]
              | None -> [])))
    else begin
      Format.printf "%s (%d B image)@." profile.F.Profile.name (Image.size img);
      Format.printf "  %a@." Mavr_analysis.Cfg.pp_stats stats;
      Format.printf "  gadgets: %d total (%s)@." (List.length gadgets)
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s %d" (Mavr_core.Gadget.kind_name k) n)
              (Mavr_core.Gadget.count_by_kind gadgets)));
      Format.printf "  %a@." Mavr_analysis.Survival.pp census;
      Option.iter (fun r -> Format.printf "%t@." (fun fmt -> Sd.pp fmt img r)) sd;
      Option.iter
        (fun (r : Mavr_analysis.Taint.report) ->
          Format.printf "  taint: %d unbounded uplink cop%s (%d nodes, %d iterations)@."
            (List.length r.findings)
            (if List.length r.findings = 1 then "y" else "ies")
            r.nodes r.iterations;
          List.iter
            (fun f -> Format.printf "  @[<v>%a@]@." Mavr_analysis.Taint.pp_finding f)
            r.findings)
        taint_r;
      Option.iter
        (function
          | Ok (s : Mavr_analysis.Equiv.stats) ->
              Format.printf
                "  translation validation: OK — %d functions, %d insns, %d edges, %d funptrs \
                 isomorphic@."
                s.functions s.insns s.edges s.funptrs
          | Error ms ->
              Format.printf "  translation validation: %d mismatch(es)@." (List.length ms);
              List.iteri
                (fun i m ->
                  if i < 10 then Format.printf "    %a@." Mavr_analysis.Equiv.pp_mismatch m)
                ms)
        equiv_r;
      Option.iter
        (fun (ms, stack_top, min_sp, ok) ->
          Format.printf "  stack verify (%d ms flight): static %a vs dynamic %s — %s@." ms
            Sd.pp_bound (Option.get sd).Sd.image_bound
            (match min_sp with
            | Some sp -> Printf.sprintf "%d B (min SP 0x%04x of 0x%04x)" (stack_top - sp) sp stack_top
            | None -> "no SP write observed")
            (if ok then "bound holds" else "VIOLATION"))
        verify_r
    end;
    let clean =
      (match taint_r with Some r -> r.Mavr_analysis.Taint.findings = [] | None -> true)
      && (match equiv_r with Some (Error _) -> false | _ -> true)
      && match verify_r with Some (_, _, _, ok) -> ok | None -> true
    in
    if clean then 0 else 1
  in
  let layouts = layouts_opt 10 "Randomized layouts to measure in the survival census." in
  let stack =
    Arg.(value & flag & info [ "stack" ]
           ~doc:"Static worst-case stack bound (interprocedural data-flow).")
  in
  let stack_verify =
    Arg.(value & opt (some int) None & info [ "stack-verify" ] ~docv:"MS"
           ~doc:"Fly the image for $(docv) simulated milliseconds with PARAM_SET uplink \
                 traffic and check the static stack bound dominates the measured SP \
                 watermark (exit 1 on violation).")
  in
  let taint =
    Arg.(value & flag & info [ "taint" ]
           ~doc:"Uplink taint analysis: flag loops that copy through a pointer store under \
                 an unclamped UART-derived exit bound (exit 1 on findings).")
  in
  let validate_seed =
    Arg.(value & opt (some int) None & info [ "validate-seed" ] ~docv:"SEED"
           ~doc:"Randomize with $(docv) and run the translation validator: prove the result \
                 CFG-isomorphic to the seed image modulo relocation (exit 1 on mismatch).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis: CFG recovery, gadget census, survival under randomization, \
             and the data-flow clients (stack bound, uplink taint, translation validation). \
             Exits 1 when a requested sub-analysis finds a violation.")
    Term.(
      const run $ profile_arg $ toolchain_arg $ layouts $ stack $ stack_verify $ taint
      $ validate_seed $ json_flag)

let cmd_lint =
  let run profile toolchain rseed json =
    let b = build_firmware profile toolchain in
    let img = b.F.Build.image in
    let built = Mavr_analysis.Lint.run img in
    let randomized =
      Option.map (fun seed -> Mavr_analysis.Lint.run (Mavr_core.Randomize.randomize ~seed img)) rseed
    in
    if json then
      print_endline
        (Mavr_telemetry.Json.to_string ~indent:2
           (Mavr_telemetry.Json.Obj
              ([
                 ("profile", Mavr_telemetry.Json.String profile.F.Profile.name);
                 ("findings", Mavr_analysis.Lint.to_json built);
               ]
              @
              match randomized with
              | Some fs -> [ ("randomized_findings", Mavr_analysis.Lint.to_json fs) ]
              | None -> [])))
    else begin
      let report label findings =
        Format.printf "%s %s: %d finding(s)@." profile.F.Profile.name label (List.length findings);
        List.iter (fun f -> Format.printf "%a@." Mavr_analysis.Lint.pp_finding f) findings
      in
      report "built image" built;
      Option.iter (report "randomized image") randomized
    end;
    if built = [] && (match randomized with None | Some [] -> true | Some _ -> false) then 0 else 1
  in
  let rseed =
    Arg.(value & opt (some int) None & info [ "randomized-seed" ] ~docv:"SEED"
           ~doc:"Also lint the image randomized with $(docv).")
  in
  Cmd.v
    (Cmd.info "lint" ~doc:"Check firmware structural invariants (exit 1 on any finding)")
    Term.(const run $ profile_arg $ toolchain_arg $ rseed $ json_flag)

let faults_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Mavr_fault.Profile.of_string s) in
  let print fmt (p : Mavr_fault.Profile.t) = Format.pp_print_string fmt p.Mavr_fault.Profile.name in
  Arg.conv (parse, print)

(* The campaign spec flags, shared by `campaign` and `dispatch`.  Their
   defaults are the wire defaults, and a bad value is rejected by the
   same [Campaign_spec] checks `serve` applies to a request (exit 2). *)
let spec_term =
  let d = Spec.default in
  let trials =
    Arg.(value & opt int d.trials & info [ "trials" ] ~docv:"N" ~doc:"Monte Carlo trials per grid cell.")
  in
  let ms = ms_opt d.ms "Simulated milliseconds per trial." in
  let layouts = layouts_opt d.layouts "Layouts in the survival census." in
  let seed = seed_opt d.seed "Campaign root seed; every per-trial seed is split from it." in
  let faults =
    Arg.(value & opt faults_conv d.faults
         & info [ "faults" ] ~docv:"PROFILE"
             ~doc:
               (Printf.sprintf
                  "Fault-injection profile (%s): the grid plus attack-free control flights run \
                   once per intensity level, reporting detection and false-alarm rates per \
                   level."
                  (String.concat ", " Mavr_fault.Profile.names)))
  in
  let early_stop =
    Arg.(value & opt (some float) None
         & info [ "early-stop" ] ~docv:"W"
             ~doc:"Stop each statistical cell adaptively once the Wilson score interval around \
                   its detection (or false-alarm) rate has halfwidth at most $(docv) (0 < W < \
                   1). Trials saved are reported explicitly (per-cell $(b,skipped) counts and \
                   a top-level $(b,trials_skipped) total); cells that never stop keep \
                   byte-identical output to a run without this flag. Dispatched shards are \
                   cell-aligned, so every stop decision matches a single-host run.")
  in
  let es_z =
    Arg.(value & opt float 1.96 & info [ "early-stop-z" ] ~docv:"Z"
           ~doc:"Wilson interval critical value (default 1.96, ~95% confidence).")
  in
  let es_min =
    Arg.(value & opt int 8 & info [ "early-stop-min" ] ~docv:"N"
           ~doc:"Never stop a cell before $(docv) trials (default 8).")
  in
  let es_batch =
    Arg.(value & opt int 4 & info [ "early-stop-batch" ] ~docv:"N"
           ~doc:"Grow each open cell by $(docv) trials per adaptive round (default 4).")
  in
  let make profile trials ms layouts seed faults target z min_trials batch =
    Result.bind
      (match target with
      | None -> Ok None
      | Some w -> Result.map Option.some (Spec.early_stop ~z ~min_trials ~batch w))
      (fun early_stop -> Spec.validate { profile; trials; ms; layouts; seed; faults; early_stop })
  in
  Term.(
    term_result'
      (const make $ profile_arg $ trials $ ms $ layouts $ seed $ faults $ early_stop $ es_z
     $ es_min $ es_batch))

(* A JSONL sink for --progress / --results: the file at [path], flushed
   after every line ([dash]: "-" is stderr), and its closer. *)
let open_sink ?(dash = false) what = function
  | None -> Ok None
  | Some "-" when dash -> Ok (Some (prerr_endline, ignore))
  | Some path -> (
      match open_out path with
      | oc ->
          Ok
            (Some
               ( (fun line ->
                   output_string oc line;
                   output_char oc '\n';
                   flush oc),
                 fun () -> close_out oc ))
      | exception Sys_error e -> Error (Printf.sprintf "cannot open %s sink: %s" what e))

let close_sink = Option.iter (fun (_, close) -> close ())

let domains_json st =
  Mavr_telemetry.Json.(
    List
      (Array.to_list
         (Array.map
            (fun (d : Mavr_campaign.Pool.domain_stats) ->
              Obj [ ("tasks", Int d.tasks_run); ("busy_s", Float d.busy_s) ])
            st)))

(* The firmware every campaign entry point flies: the MAVR-toolchain
   build of the spec's profile, or a usage error naming the image size
   when it is larger than the app CPU's flash (loading it would raise in
   the first trial).  [Profile.of_string] already refused any count too
   large to build quickly; this is the exact check. *)
let campaign_firmware (spec : Spec.t) =
  let b = build_firmware spec.profile F.Profile.mavr in
  let size = Image.size b.F.Build.image and flash = Mavr_avr.Device.atmega2560.flash_bytes in
  if size <= flash then Ok b
  else
    Error
      (Printf.sprintf "profile %s: the %d-byte image does not fit the %d-byte flash"
         spec.profile.F.Profile.name size flash)

(* The campaign itself — census, then grid, on one pool, flying the
   build [b] from [campaign_firmware] — shared by `campaign`, the serve
   handler and the dispatch merge.  Per-task seeds come from the spec's
   root seed, so the result depends only on the spec, never on [jobs]
   or scheduling.  A [progress] stream also gets per-domain pool
   utilization and the final heartbeat.  Returns the pool's stats and
   the wall/cpu span of the pool's work, or the message of a corrupt
   [checkpoint]. *)
let run_campaign ?jobs ?tracer ?progress ?checkpoint (spec : Spec.t) b =
  let module Pool = Mavr_campaign.Pool in
  (* Coordinator lane: the census and grid phases as top-level spans. *)
  let top_lane = Option.map (fun tr -> Mavr_telemetry.Span.lane tr ~sort:(-1) "campaign") tracer in
  let phase name f = match top_lane with None -> f () | Some l -> Mavr_telemetry.Span.span l name f in
  match
    Mavr_campaign.Clock.time (fun () ->
        Pool.with_pool ?jobs (fun pool ->
            Option.iter
              (fun p ->
                Mavr_campaign.Progress.on_heartbeat p (fun () ->
                    [ ("pool", domains_json (Pool.stats pool)) ]))
              progress;
            let census =
              phase "census" (fun () ->
                  Mavr_analysis.Survival.census ~seed:(Mavr_analysis.Survival.Root spec.seed) ~pool
                    ?tracer ?progress ~layouts:spec.layouts b.F.Build.image)
            in
            let grid =
              phase "grid" (fun () ->
                  Mavr_sim.Montecarlo.run ~pool ~ms:spec.ms ~faults:spec.faults ?tracer ?progress
                    ?early_stop:spec.early_stop ?checkpoint ~seed:spec.seed ~trials:spec.trials b)
            in
            (census, grid, Pool.stats pool)))
  with
  | (census, grid, pool_stats), span ->
      Option.iter (fun p -> Mavr_campaign.Progress.emit p ~reason:"final") progress;
      Ok (census, grid, pool_stats, span)
  | exception Mavr_campaign.Checkpoint.Corrupt m -> Error m

(* The campaign JSON document, shared by `campaign --json`, the serve
   handler and the dispatch merge, so all three print the same bytes. *)
let campaign_doc (spec : Spec.t) census grid =
  let module J = Mavr_telemetry.Json in
  [
    ("profile", J.String spec.profile.F.Profile.name);
    ("seed", J.Int spec.seed);
    ("census", Mavr_analysis.Survival.to_json census);
    ("grid", Mavr_sim.Montecarlo.to_json grid);
  ]

(* The campaign doubles as a defense check: a feasible prebuilt payload
   in any randomized layout, or any takeover under the MAVR defense, is
   an operation failure. *)
let campaign_exit census grid =
  if
    census.Mavr_analysis.Survival.feasible_layouts > 0
    || Mavr_sim.Montecarlo.takeovers grid Mavr_sim.Montecarlo.Mavr_defense > 0
  then 1
  else 0

let cmd_campaign =
  let run (spec : Spec.t) jobs timing no_superblocks trace progress checkpoint_path
      checkpoint_every resume results abort_after json =
    let module J = Mavr_telemetry.Json in
    let module Ck = Mavr_campaign.Checkpoint in
    (* The flag flips the default inherited by every CPU the campaign
       spawns (workers included: the pool re-executes this binary's state
       per domain task via closures, and freshly created CPUs read the
       default at [create] time).  The semantic contract — checked by the
       byte-diff rule in bin/dune — is that the campaign document is
       identical either way. *)
    if no_superblocks then Mavr_avr.Cpu.set_superblocks_default false;
    let tracer = Option.map (fun _ -> Mavr_campaign.Clock.tracer ()) trace in
    match campaign_firmware spec with
    | Error m ->
        Format.eprintf "error: %s@." m;
        2
    | Ok b -> (
    match (open_sink ~dash:true "progress" progress, open_sink "results" results) with
    | Error e, _ | _, Error e ->
        Format.eprintf "error: %s@." e;
        1
    | Ok progress_sink, Ok results_sink -> (
        (* The results stream is independent of the snapshot file, so a
           one-shot run can keep a task-level audit trail without
           resumability. *)
        let stream = Option.map fst results_sink and every = checkpoint_every in
        let ck_spec = Spec.checkpoint_spec ~traced:(trace <> None) spec in
        match
          match (checkpoint_path, resume) with
          | None, true -> Error "--resume requires --checkpoint"
          | None, false ->
              if Option.is_none results_sink && Option.is_none abort_after then Ok None
              else Ok (Some (Ck.create ?stream ~every ck_spec))
          | Some path, false -> Ok (Some (Ck.create ~path ?stream ~every ck_spec))
          | Some path, true ->
              Result.map_error (( ^ ) "checkpoint: ")
                (Result.map Option.some (Ck.resume ~path ?stream ~every ck_spec))
        with
        | Error m ->
            Format.eprintf "error: %s@." m;
            2
        | Ok ck -> (
            Option.iter (fun t -> Option.iter (Ck.abort_after t) abort_after) ck;
            let progress =
              Option.map (fun (sink, _) -> Mavr_campaign.Progress.create ~sink ()) progress_sink
            in
            match run_campaign ?jobs ?tracer ?progress ?checkpoint:ck spec b with
            | Error m ->
                Format.eprintf "error: checkpoint: %s@." m;
                2
            | Ok (census, grid, pool_stats, span) ->
                Option.iter Ck.close ck;
                close_sink results_sink;
                close_sink progress_sink;
                (match (trace, tracer) with
                | Some path, Some tr -> (
                    try
                      let oc = open_out path in
                      output_string oc (J.to_string (Mavr_telemetry.Span.to_trace_event tr));
                      output_char oc '\n';
                      close_out oc
                    with Sys_error e -> Format.eprintf "warning: cannot write trace: %s@." e)
                | _ -> ());
                let wall_s = span.Mavr_campaign.Clock.wall_s in
                if json then
                  print_endline
                    (J.to_string ~indent:2
                       (J.Obj
                          (campaign_doc spec census grid
                          @
                          (* Timing (and the job count that produced it) is
                             opt-in so the default document is byte-identical
                             for every --jobs value; per-domain utilization
                             rides under it. *)
                          if timing then
                            let busy =
                              Array.fold_left
                                (fun a (d : Mavr_campaign.Pool.domain_stats) -> a +. d.busy_s)
                                0.0 pool_stats
                            in
                            let idle = (float_of_int (Array.length pool_stats) *. wall_s) -. busy in
                            [
                              ( "timing",
                                J.Obj
                                  (("jobs", J.Int (Array.length pool_stats))
                                  :: Mavr_campaign.Clock.span_to_json_fields span
                                  @ [
                                      ( "pool",
                                        J.Obj
                                          [
                                            ("domains", domains_json pool_stats);
                                            ("busy_s", J.Float busy);
                                            ("idle_s", J.Float (Float.max 0.0 idle));
                                          ] );
                                    ]) );
                            ]
                          else [])))
                else begin
                  Format.printf "%s: %d-layout census + %d-trial/cell attack grid (root seed %d)@."
                    spec.profile.F.Profile.name census.Mavr_analysis.Survival.layouts
                    grid.Mavr_sim.Montecarlo.trials spec.seed;
                  Format.printf "  %a@." Mavr_analysis.Survival.pp census;
                  Format.printf "%a@." Mavr_sim.Montecarlo.pp grid;
                  if timing then begin
                    Format.printf "completed in %.2f s wall, %.2f s cpu@." wall_s
                      span.Mavr_campaign.Clock.cpu_s;
                    Array.iteri
                      (fun i (d : Mavr_campaign.Pool.domain_stats) ->
                        Format.printf "  domain %d: %d tasks, %.2f s busy@." i d.tasks_run d.busy_s)
                      pool_stats
                  end
                end;
                campaign_exit census grid)))
  in
  let jobs =
    jobs_opt
      "Worker domains (default: the runtime's recommended count). The output is bit-identical \
       for any value, including 1."
  in
  let timing =
    Arg.(value & flag & info [ "timing" ]
           ~doc:"Include wall/cpu timing (and the job count) in the report. Off by default so \
                 the output is reproducible byte-for-byte across hosts and $(b,--jobs) values.")
  in
  let no_superblocks =
    Arg.(value & flag & info [ "no-superblocks" ]
           ~doc:"Run every emulated CPU with the superblock engine disabled (pure \
                 single-step/cached dispatch). The campaign document is byte-identical either \
                 way — this flag exists to prove it, and as an escape hatch when bisecting \
                 emulator issues.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON trace of the campaign to FILE \
                   (Perfetto-loadable): per-task spans with boot/warmup/flight phases on host \
                   time, plus deterministic cycle-stamped flight-recorder lanes. Stripped of \
                   host timing (bin/trace_check --strip), the trace is byte-identical across \
                   $(b,--jobs) values.")
  in
  let progress =
    Arg.(value & opt (some string) None
         & info [ "progress" ] ~docv:"FILE"
             ~doc:"Stream live progress heartbeats to FILE as JSONL ($(b,-) for stderr): \
                   monotonic seq, tasks done/total, rate and ETA, per-cell running detection \
                   tallies, per-domain pool utilization.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Checkpoint the Monte Carlo grid to FILE (JSONL): a spec-hashed header plus \
                   one entry per completed trial, snapshotted atomically (write-to-temp, \
                   rename) every $(b,--checkpoint-every) trials. A killed campaign restarted \
                   with $(b,--resume) replays the completed frontier and produces output \
                   byte-identical to an uninterrupted run, for any $(b,--jobs).")
  in
  let checkpoint_every =
    Arg.(value & opt positive_int 32 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Rewrite the checkpoint snapshot every $(docv) recorded trials (default 32).")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume from an existing $(b,--checkpoint) file instead of starting fresh. \
                 Exits 2 if the file is corrupt or was written by a different campaign \
                 configuration (spec hash, seed or task count mismatch).")
  in
  let results =
    Arg.(value & opt (some string) None
         & info [ "results" ] ~docv:"FILE"
             ~doc:"Stream per-trial results to FILE as JSONL (header, then one line per trial \
                   outcome as it lands; on $(b,--resume) the already-completed frontier is \
                   replayed first, so the file always covers every completed trial).")
  in
  let abort_after =
    Arg.(value & opt (some int) None
         & info [ "abort-after" ] ~docv:"N"
             ~doc:"(testing) Snapshot the checkpoint and SIGKILL this process after the \
                   $(docv)th live-recorded trial — the crash the $(b,--resume) path must \
                   survive. Used by the kill/resume byte-diff rules in bin/dune.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Deterministic parallel evaluation campaign: gadget-survival census plus the \
             attack-by-defense Monte Carlo grid, optionally swept across fault-injection \
             intensities, checkpointable and resumable ($(b,--checkpoint)/$(b,--resume)) with \
             adaptive per-cell early stopping ($(b,--early-stop)). Exits 1 if any randomized \
             layout keeps the prebuilt payload feasible or any MAVR-defended trial is taken \
             over (at any fault level).")
    Term.(
      const run $ spec_term $ jobs $ timing $ no_superblocks $ trace $ progress $ checkpoint
      $ checkpoint_every $ resume $ results $ abort_after $ json_flag)

let cmd_serve =
  let run socket stdio jobs =
    let module J = Mavr_telemetry.Json in
    (* One request = one campaign spec object ([Campaign_spec.of_json]:
       absent members default like the `campaign` flags; a malformed,
       unknown or repeated one is a terminal error naming it), so a served
       result byte-matches `campaign --json` for the same configuration. *)
    let handler req ~progress:send =
      let ( let* ) = Result.bind in
      let* spec = Spec.of_json req in
      let* b = campaign_firmware spec in
      match J.member "shard" req with
      | None ->
          let progress = Mavr_campaign.Progress.create ~sink:send () in
          Result.map
            (fun (census, grid, _, _) -> J.Obj (campaign_doc spec census grid))
            (run_campaign ?jobs ~progress spec b)
      | Some shard_j -> (
          (* Shard request: run only the grid tasks in [lo, hi),
             streaming every checkpoint entry line down the connection
             (the dispatcher merges them); the census is the dispatcher's
             own, deterministic job.  The checkpoint stream and the
             progress heartbeats come from different worker domains
             under different locks, so one shared mutex serializes the
             socket writes. *)
          let ck_spec = Spec.checkpoint_spec spec in
          let tasks = ck_spec.Mavr_campaign.Checkpoint.tasks in
          match
            ( Option.bind (J.member "lo" shard_j) J.to_int,
              Option.bind (J.member "hi" shard_j) J.to_int )
          with
          | Some lo, Some hi when 0 <= lo && lo <= hi && hi <= tasks ->
              let send_mu = Mutex.create () in
              let send_locked line = Mutex.protect send_mu (fun () -> send line) in
              let ck = Mavr_campaign.Checkpoint.create ~stream:send_locked ck_spec in
              let progress = Mavr_campaign.Progress.create ~sink:send_locked () in
              Mavr_campaign.Pool.with_pool ?jobs (fun pool ->
                  Mavr_sim.Montecarlo.run_shard ~pool ~ms:spec.ms ~faults:spec.faults ~progress
                    ?early_stop:spec.early_stop ~checkpoint:ck ~lo ~hi ~seed:spec.seed
                    ~trials:spec.trials b);
              Mavr_campaign.Progress.emit progress ~reason:"final";
              Ok
                (J.Obj
                   [
                     ("shard", J.Obj [ ("lo", J.Int lo); ("hi", J.Int hi) ]);
                     ("entries", J.Int (Mavr_campaign.Checkpoint.completed ck));
                   ])
          | Some lo, Some hi when 0 <= lo && lo <= hi ->
              Error (Printf.sprintf "shard [%d,%d) outside the %d-task grid" lo hi tasks)
          | _ -> Error "shard member needs integer lo <= hi")
    in
    if stdio then begin
      Mavr_campaign.Service.serve_stdio handler;
      0
    end
    else
      match socket with
      | None ->
          Format.eprintf "error: serve needs --socket PATH or --stdio@.";
          2
      | Some path -> (
          match Mavr_campaign.Service.serve ~socket:path handler with
          | Ok _served -> 0
          | Error m ->
              Format.eprintf "error: serve: %s@." m;
              1)
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix domain socket at $(docv) until killed. Each connection \
                   sends one campaign spec line (JSON: profile, trials, ms, layouts, seed, \
                   faults, early_stop) and receives streamed progress heartbeat lines followed \
                   by one terminal line tagged $(b,kind:result) or $(b,kind:error).")
  in
  let stdio =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve exactly one request over stdin/stdout instead of a socket (same \
                 line protocol; for CI and piping).")
  in
  let jobs =
    jobs_opt
      "Worker domains for served campaigns (default: the runtime's recommended count). Results \
       are bit-identical for any value."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Campaign-as-a-service: accept campaign specs over a local Unix socket (or \
             stdin/stdout with $(b,--stdio)), stream live progress heartbeats, and return the \
             same JSON document $(b,campaign --json) would print. Sequential: one campaign at \
             a time owns the worker pool.")
    Term.(const run $ socket $ stdio $ jobs)

let cmd_dispatch =
  let run (spec : Spec.t) jobs workers spawn progress kill_after json =
    let module J = Mavr_telemetry.Json in
    let module D = Mavr_campaign.Dispatch in
    match
      List.fold_left
        (fun acc a ->
          Result.bind acc (fun l -> Result.map (fun ad -> ad :: l) (D.address_of_string a)))
        (Ok []) workers
    with
    | Error m ->
        Format.eprintf "error: %s@." m;
        2
    | Ok given_rev ->
    let given = List.rev given_rev in
    if spawn < 0 then begin
      Format.eprintf "error: --spawn must be >= 0@.";
      2
    end
    else if spawn = 0 && given = [] then begin
      Format.eprintf "error: dispatch needs at least one worker (--worker ADDR or --spawn N)@.";
      2
    end
    else if Option.is_some kill_after && spawn = 0 then begin
      Format.eprintf "error: --kill-worker-after needs a --spawn worker to kill@.";
      2
    end
    else
      (* Built before any worker spawns: an image that cannot fly is a
         usage error here, not a shard failure retried on every worker. *)
      match campaign_firmware spec with
      | Error m ->
          Format.eprintf "error: %s@." m;
          2
      | Ok b ->
      match open_sink ~dash:true "progress" progress with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok progress_sink ->
      let progress_t =
        Option.map (fun (sink, _) -> Mavr_campaign.Progress.create ~sink ()) progress_sink
      in
      let ck_spec = Spec.checkpoint_spec spec in
      let n_workers = spawn + List.length given in
      let shards =
        D.plan ~tasks:ck_spec.Mavr_campaign.Checkpoint.tasks ~block:spec.trials ~shards:n_workers
      in
      (* The request a worker receives is the serve request for this
         spec plus the shard range, so spec hashes agree end to end. *)
      let request ~lo ~hi =
        J.Obj (Spec.to_json_fields spec @ [ ("shard", J.Obj [ ("lo", J.Int lo); ("hi", J.Int hi) ]) ])
      in
      (* Every worker started and socket file made so far, newest first.
         They are started inside the protected region, so when a start
         raises, the [finally] still kills, reaps and unlinks the ones
         before it. *)
      let pids = ref [] and socks = ref [] in
      let devnull_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let devnull_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let start_worker i =
        let sock = Filename.temp_file (Printf.sprintf "mavr-worker%d-" i) ".sock" in
        socks := sock :: !socks;
        let args =
          [ "mavr"; "serve"; "--socket"; sock ]
          @ match jobs with Some j -> [ "-j"; string_of_int j ] | None -> []
        in
        pids :=
          Unix.create_process Sys.executable_name (Array.of_list args) devnull_in devnull_out
            Unix.stderr
          :: !pids;
        D.Unix_socket sock
      in
      (* Spawned workers come first in the pool, so worker 0 is always
         the one --kill-worker-after SIGKILLs. *)
      let killed = ref false in
      let w0_entries = ref 0 in
      let on_event = function
        | D.Entry_received { worker = 0; fresh = true; _ } -> (
            incr w0_entries;
            match (kill_after, List.rev !pids) with
            | Some n, pid :: _ when (not !killed) && !w0_entries >= n ->
                killed := true;
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            | _ -> ())
        | _ -> ()
      in
      let result =
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun pid ->
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
              !pids;
            List.iter (fun sock -> try Sys.remove sock with Sys_error _ -> ()) !socks;
            Unix.close devnull_in;
            Unix.close devnull_out)
          (fun () ->
            let spawned = List.init spawn start_worker in
            D.run ?progress:progress_t ~on_event ~spec:ck_spec ~request ~block:spec.trials
              ~workers:(spawned @ given) ~shards ())
      in
      (* Merge: prime a fresh checkpoint with every shard's entries and
         run the campaign over it — zero trials execute, the early-stop
         trajectory replays, and the document comes out of the exact code
         path `campaign --json` uses. *)
      let merged =
        Result.bind (Result.map_error D.error_to_string result) (fun outcome ->
            let ck = Mavr_campaign.Checkpoint.create ck_spec in
            List.iter
              (fun (i, e) ->
                match e with
                | Mavr_campaign.Checkpoint.Result r -> Mavr_campaign.Checkpoint.record ck ~index:i r
                | Mavr_campaign.Checkpoint.Skip reason ->
                    Mavr_campaign.Checkpoint.skip ck ~index:i ~reason)
              outcome.D.entries;
            Result.map
              (fun (census, grid, _, _) ->
                Option.iter (fun p -> Mavr_campaign.Progress.emit p ~reason:"final") progress_t;
                (outcome, census, grid))
              (Result.map_error (( ^ ) "merge: ") (run_campaign ?jobs ~checkpoint:ck spec b)))
      in
      close_sink progress_sink;
      match merged with
      | Error m ->
          Format.eprintf "error: dispatch: %s@." m;
          3
      | Ok (outcome, census, grid) ->
          if json then
            print_endline (J.to_string ~indent:2 (J.Obj (campaign_doc spec census grid)))
          else begin
            Format.printf
              "%s: dispatched %d shard(s) over %d worker(s): %d assignment(s), %d worker \
               failure(s), %d heartbeat(s)@."
              spec.profile.F.Profile.name (List.length shards) n_workers
              outcome.D.assignments outcome.D.worker_failures outcome.D.heartbeats;
            Format.printf "  %a@." Mavr_analysis.Survival.pp census;
            Format.printf "%a@." Mavr_sim.Montecarlo.pp grid
          end;
          campaign_exit census grid
  in
  let jobs =
    jobs_opt
      "Worker domains per spawned worker and for the local merge (default: the runtime's \
       recommended count). The output is bit-identical for any value."
  in
  let workers =
    Arg.(value & opt_all string []
         & info [ "worker" ] ~docv:"ADDR"
             ~doc:"A worker endpoint: $(b,unix:PATH) or a bare Unix-socket path of a running \
                   $(b,mavr serve --socket) instance. Repeatable.")
  in
  let spawn =
    Arg.(value & opt int 0
         & info [ "spawn" ] ~docv:"N"
             ~doc:"Spawn $(docv) local $(b,mavr serve) worker processes on temporary sockets \
                   (killed when dispatch exits). Combines with $(b,--worker).")
  in
  let progress =
    Arg.(value & opt (some string) None
         & info [ "progress" ] ~docv:"FILE"
             ~doc:"Stream merged dispatcher heartbeats to FILE as JSONL ($(b,-) for stderr): \
                   one gap-free sequence over every shard's entries, plus a $(b,dispatch) \
                   detail object (shard/worker/re-dispatch counts).")
  in
  let kill_after =
    Arg.(value & opt (some int) None
         & info [ "kill-worker-after" ] ~docv:"N"
             ~doc:"(testing) SIGKILL the first spawned worker after $(docv) entries have been \
                   received from it — the mid-run death the re-dispatch path must survive. \
                   Used by the dispatch byte-diff rules in bin/dune.")
  in
  Cmd.v
    (Cmd.info "dispatch"
       ~doc:"Shard a campaign across $(b,mavr serve) workers: split the grid's task-index \
             space into contiguous cell-aligned shards, stream every worker's checkpoint \
             entries and heartbeats over its socket, survive worker death by re-dispatching \
             the uncompleted range, and merge into the exact document $(b,campaign --json) \
             prints — byte-identical. Exits like campaign (0/1), 2 on usage, 3 when a shard \
             stays unresolved.")
    Term.(
      const run $ spec_term $ jobs $ workers $ spawn $ progress $ kill_after $ json_flag)

let cmd_profile =
  let run profile ms attack top json =
    let module J = Mavr_telemetry.Json in
    (* Undefended on purpose: MAVR's defense randomizes the layout at
       boot, which would invalidate the built image's symbol table and
       CFG — the annotations this report exists for. *)
    let uplink b = if attack then gyro_hijack_frames b else [] in
    let b, _registry, probes =
      instrumented_flight profile ~defended:false ~ms ~uplink_after_warmup:uplink
    in
    let stats = Mavr_avr.Probes.block_stats probes in
    if stats = [] then begin
      Format.eprintf
        "error: no superblocks executed — is the superblock engine disabled on this build?@.";
      1
    end
    else begin
      let report =
        Mavr_analysis.Hotspot.rank ~top ~image:b.F.Build.image
          ~stepped:(Mavr_avr.Probes.stepped_insns probes)
          stats
      in
      if json then print_endline (J.to_string ~indent:2 (Mavr_analysis.Hotspot.to_json report))
      else Format.printf "%a" Mavr_analysis.Hotspot.pp report;
      0
    end
  in
  let ms = ms_opt 2000 "Simulated milliseconds to profile." in
  let attack =
    Arg.(value & flag & info [ "attack" ] ~doc:"Inject the stealthy V2 attack after warm-up.")
  in
  let top =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"Rows in the ranked report.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Superblock hot-path profiler: fly the firmware instrumented, rank the hottest \
             superblocks by instructions retired, and annotate each with its containing \
             function symbol, static-CFG attribution and leading disassembly. Exits 1 when no \
             superblocks executed.")
    Term.(const run $ profile_arg $ ms $ attack $ top $ json_flag)

let cmd_tables =
  let run () =
    print_endline "Run `dune exec bench/main.exe` for the full table reproductions.";
    List.iter
      (fun p ->
        let stock, mavr = F.Build.build_pair p in
        Format.printf "%-11s functions=%4d stock=%6d B mavr=%6d B overhead=%.0f ms@."
          p.F.Profile.name (F.Build.function_count stock) (F.Build.code_size stock)
          (F.Build.code_size mavr)
          (Mavr_core.Serial.programming_ms Mavr_core.Serial.prototype (F.Build.code_size mavr)))
      F.Profile.all;
    0
  in
  Cmd.v (Cmd.info "tables" ~doc:"Quick Table I/II/III summary") Term.(const run $ const ())

let () =
  let doc = "MAVR: code-reuse stealthy attacks and mitigation on UAVs (ICDCS 2015 reproduction)" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"on success.";
      Cmd.Exit.info 1
        ~doc:
          "on operation failure: gadgets absent, randomization had no effect or failed \
           translation validation, output not writable, no fault captured, lint findings, an \
           analyze sub-analysis violation (taint finding, translation mismatch, stack bound \
           below the dynamic watermark), or a campaign that found a feasible payload or a \
           takeover under the MAVR defense.";
      Cmd.Exit.info 2 ~doc:"on usage error: unknown subcommand, bad option, or bad argument.";
      Cmd.Exit.info 3
        ~doc:
          "on dispatch failure: a shard stayed unresolved after its retry budget (worker \
           death/timeout with no surviving worker able to finish it), or the merged frontier \
           failed to re-form the campaign document.";
    ]
  in
  let info = Cmd.info "mavr" ~version:"1.0.0" ~doc ~exits in
  let cmd =
    Cmd.group info
      [ cmd_build; cmd_gadgets; cmd_randomize; cmd_attack; cmd_fly; cmd_stats;
        cmd_flight_record; cmd_disasm; cmd_lifetime; cmd_entropy; cmd_analyze; cmd_lint;
        cmd_campaign; cmd_serve; cmd_dispatch; cmd_profile; cmd_tables ]
  in
  (* Map every cmdliner-level error (unknown subcommand, bad flag, missing
     argument) to the documented usage-error code 2; uncaught exceptions
     are operation failures. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 1)
