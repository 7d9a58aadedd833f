(* Tests for the fault-injection layer: the lossy channel model, the SEU
   process, the reflash-stream faults with their verify-and-retry
   recovery, the per-trial injector, and the fault-intensity axis of the
   Monte Carlo campaign. *)

module Splitmix = Mavr_prng.Splitmix
module Channel = Mavr_fault.Channel
module Seu = Mavr_fault.Seu
module Reflash = Mavr_fault.Reflash
module Profile = Mavr_fault.Profile
module Injector = Mavr_fault.Injector
module Cpu = Mavr_avr.Cpu
module Sc = Mavr_sim.Scenario
module Montecarlo = Mavr_sim.Montecarlo

let rng seed = Splitmix.create ~seed

(* ---- channel ---- *)

let test_channel_clean_is_identity () =
  let ch = Channel.create ~rng:(rng 1) Channel.clean in
  let payload = "the quick brown fox \x00\xff\xfe jumps" in
  for now = 0 to 9 do
    Alcotest.(check string) "wire" payload (Channel.transmit ch ~now payload)
  done;
  let st = Channel.stats ch in
  Alcotest.(check int) "no flips" 0 st.bits_flipped;
  Alcotest.(check int) "no drops" 0 st.bytes_dropped;
  Alcotest.(check int) "no dups" 0 st.bytes_duplicated;
  Alcotest.(check int) "no bursts" 0 st.bursts;
  Alcotest.(check int) "no delays" 0 st.chunks_delayed;
  Alcotest.(check int) "bytes conserved" st.bytes_in st.bytes_out

let noisy =
  {
    Channel.bit_flip_ppm = 40_000;
    drop_ppm = 20_000;
    dup_ppm = 20_000;
    burst_ppm = 100_000;
    burst_len_max = 6;
    jitter_max_ticks = 3;
  }

let test_channel_deterministic () =
  (* Same seed, same params, same traffic => bit-identical output: the
     campaign's jobs-invariance rests on this. *)
  let a = Channel.create ~rng:(rng 77) noisy in
  let b = Channel.create ~rng:(rng 77) noisy in
  for now = 0 to 200 do
    let chunk = Printf.sprintf "chunk-%04d-%s" now (String.make (now mod 37) 'x') in
    Alcotest.(check string) "same wire" (Channel.transmit a ~now chunk)
      (Channel.transmit b ~now chunk)
  done;
  Alcotest.(check bool) "same stats" true (Channel.stats a = Channel.stats b)

let test_channel_empty_consumes_no_randomness () =
  (* "" must pass through without touching the rng, so an idle tick
     cannot shift the fault stream of later traffic. *)
  let a = Channel.create ~rng:(rng 5) noisy in
  let b = Channel.create ~rng:(rng 5) noisy in
  Alcotest.(check string) "empty passes" "" (Channel.corrupt a "");
  for _ = 1 to 50 do
    ignore (Channel.corrupt a "")
  done;
  for now = 0 to 20 do
    let chunk = String.make 40 (Char.chr (0x30 + now)) in
    Alcotest.(check string) "stream unshifted" (Channel.transmit a ~now chunk)
      (Channel.transmit b ~now chunk)
  done

let test_channel_extremes () =
  (* Certain drop: everything vanishes. *)
  let all_drop = { Channel.clean with drop_ppm = 1_000_000 } in
  let ch = Channel.create ~rng:(rng 2) all_drop in
  Alcotest.(check string) "all dropped" "" (Channel.corrupt ch (String.make 64 'a'));
  Alcotest.(check int) "drops counted" 64 (Channel.stats ch).bytes_dropped;
  (* Certain duplication: length doubles, every byte twinned. *)
  let all_dup = { Channel.clean with dup_ppm = 1_000_000 } in
  let ch = Channel.create ~rng:(rng 3) all_dup in
  let out = Channel.corrupt ch "abc" in
  Alcotest.(check string) "all duplicated" "aabbcc" out;
  (* Certain flip: every byte differs from the original in exactly one
     bit. *)
  let all_flip = { Channel.clean with bit_flip_ppm = 1_000_000 } in
  let ch = Channel.create ~rng:(rng 4) all_flip in
  let input = String.make 32 '\x55' in
  let out = Channel.corrupt ch input in
  Alcotest.(check int) "length kept" 32 (String.length out);
  String.iteri
    (fun i c ->
      let diff = Char.code c lxor Char.code input.[i] in
      if not (diff <> 0 && diff land (diff - 1) = 0) then
        Alcotest.failf "byte %d: expected a single flipped bit, got xor %#x" i diff)
    out;
  Alcotest.(check int) "flips counted" 32 (Channel.stats ch).bits_flipped

let test_channel_burst_keeps_length () =
  let bursty = { Channel.clean with burst_ppm = 1_000_000; burst_len_max = 8 } in
  let ch = Channel.create ~rng:(rng 6) bursty in
  for i = 1 to 20 do
    let input = String.make (8 + i) 'z' in
    let out = Channel.corrupt ch input in
    Alcotest.(check int) "length preserved" (String.length input) (String.length out)
  done;
  Alcotest.(check int) "every chunk bursted" 20 (Channel.stats ch).bursts

let test_channel_jitter_preserves_order () =
  (* Jitter only: no bytes are lost and delivery order equals send
     order even when later chunks draw smaller delays. *)
  let jittery = { Channel.clean with jitter_max_ticks = 4 } in
  let ch = Channel.create ~rng:(rng 9) jittery in
  let sent = Buffer.create 256 and got = Buffer.create 256 in
  for now = 0 to 49 do
    let chunk = Printf.sprintf "<%02d>" now in
    Buffer.add_string sent chunk;
    Buffer.add_string got (Channel.transmit ch ~now chunk)
  done;
  (* Drain the tail still in flight. *)
  for now = 50 to 60 do
    Buffer.add_string got (Channel.due ch ~now)
  done;
  Alcotest.(check int) "drained" 0 (Channel.in_flight ch);
  Alcotest.(check string) "order and content preserved" (Buffer.contents sent)
    (Buffer.contents got);
  Alcotest.(check bool) "some chunks were delayed" true
    ((Channel.stats ch).chunks_delayed > 0)

(* ---- SEU ---- *)

let test_seu_certain_upsets () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (Helpers.build_mavr ()).image.code;
  let before_flash = Cpu.flash_contents cpu in
  let dev = Cpu.device cpu in
  let sram_before =
    Array.init dev.Mavr_avr.Device.sram_bytes (fun i ->
        Cpu.data_peek cpu (dev.Mavr_avr.Device.sram_base + i))
  in
  let s = Seu.create ~rng:(rng 11) { Seu.sram_flip_ppm = 1_000_000; flash_flip_ppm = 1_000_000 } in
  Seu.tick s cpu;
  Alcotest.(check bool) "both upsets recorded" true (Seu.stats s = { Seu.sram_flips = 1; flash_flips = 1 });
  (* Exactly one SRAM byte changed, by exactly one bit. *)
  let changed = ref [] in
  Array.iteri
    (fun i old ->
      let now = Cpu.data_peek cpu (dev.Mavr_avr.Device.sram_base + i) in
      if now <> old then changed := (i, old lxor now) :: !changed)
    sram_before;
  (match !changed with
  | [ (_, diff) ] ->
      Alcotest.(check bool) "single bit" true (diff land (diff - 1) = 0)
  | l -> Alcotest.failf "expected one SRAM byte changed, got %d" (List.length l));
  (* Exactly one flash bit changed, inside the programmed image. *)
  let after_flash = Cpu.flash_contents cpu in
  let flash_diffs = ref [] in
  String.iteri
    (fun i c ->
      if c <> after_flash.[i] then
        flash_diffs := (i, Char.code c lxor Char.code after_flash.[i]) :: !flash_diffs)
    before_flash;
  (match !flash_diffs with
  | [ (addr, diff) ] ->
      Alcotest.(check bool) "single bit" true (diff land (diff - 1) = 0);
      Alcotest.(check bool) "inside the image" true (addr < Cpu.program_size cpu)
  | l -> Alcotest.failf "expected one flash byte changed, got %d" (List.length l))

let test_seu_off_is_noop () =
  let cpu = Cpu.create () in
  Cpu.load_program cpu (Helpers.build_mavr ()).image.code;
  let before = Cpu.flash_contents cpu in
  (* Every flash write drops the compiled blocks, and a block's key is
     never reused, so blocks compiled before the ticks and entered again
     after them show that no write happened — not even one that left the
     bytes as they were. *)
  let seen = Hashtbl.create 64 and reused = ref 0 and collecting = ref true in
  Cpu.set_block_tap cpu
    ~on_block:(fun info _ ->
      if !collecting then Hashtbl.replace seen info.Cpu.bi_key ()
      else if Hashtbl.mem seen info.Cpu.bi_key then incr reused)
    ~on_step:(fun _ _ -> ());
  ignore (Cpu.run cpu ~max_cycles:200_000);
  let s = Seu.create ~rng:(rng 12) Seu.off in
  for _ = 1 to 100 do
    Seu.tick s cpu
  done;
  collecting := false;
  ignore (Cpu.run cpu ~max_cycles:200_000);
  Alcotest.(check bool) "no upsets" true (Seu.stats s = { Seu.sram_flips = 0; flash_flips = 0 });
  Alcotest.(check string) "flash untouched" before (Cpu.flash_contents cpu);
  Alcotest.(check bool) "compiled blocks kept" true (!reused > 0)

let test_seu_flash_flip_drops_stale_decodes () =
  (* A flash upset must go through the page-write path so the predecode
     cache notices — the bug this guards against is an SEU model poking
     the flash array behind the decode cache's back.  The victim word is
     decoded into the cache before the flip and stepped again after it,
     under the decode oracle. *)
  let code = (Helpers.build_mavr ()).image.code in
  let flip cpu =
    Seu.tick (Seu.create ~rng:(rng 13) { Seu.sram_flip_ppm = 0; flash_flip_ppm = 1_000_000 }) cpu
  in
  (* The same seed flips the same bit: find it on a throwaway CPU. *)
  let probe = Cpu.create () in
  Cpu.load_program probe code;
  flip probe;
  let flipped = Cpu.flash_contents probe in
  let rec victim i = if flipped.[i] <> code.[i] then i else victim (i + 1) in
  let victim = victim 0 in
  let cpu = Cpu.create () in
  let oracle = Helpers.decode_oracle cpu in
  Cpu.load_program cpu code;
  let step_victim () =
    Cpu.reset cpu;
    Cpu.set_pc cpu (victim / 2);
    Cpu.step cpu
  in
  step_victim ();
  flip cpu;
  Alcotest.(check string) "the same bit flipped" flipped (Cpu.flash_contents cpu);
  step_victim ();
  Alcotest.(check int) "victim stepped twice" 2 (fst (oracle ()));
  Alcotest.(check bool) "flipped word decoded afresh" true (snd (oracle ()) = None)

(* ---- reflash stream ---- *)

let test_reflash_clean_stream () =
  let r = Reflash.create ~rng:(rng 20) Reflash.off in
  let code = (Helpers.build_mavr ()).image.code in
  let landed, corrupted = Reflash.stream r ~page_bytes:256 code in
  Alcotest.(check string) "bytes land verbatim" code landed;
  Alcotest.(check int) "no corruption" 0 corrupted;
  Alcotest.(check int) "crc stable" (Reflash.crc16 code) (Reflash.crc16 landed)

let test_reflash_certain_corruption () =
  let r = Reflash.create ~rng:(rng 21) { Reflash.page_corrupt_ppm = 1_000_000; max_retries = 3 } in
  let code = (Helpers.build_mavr ()).image.code in
  let page_bytes = 256 in
  let pages = (String.length code + page_bytes - 1) / page_bytes in
  let landed, corrupted = Reflash.stream r ~page_bytes code in
  Alcotest.(check int) "every page hit" pages corrupted;
  Alcotest.(check int) "length preserved" (String.length code) (String.length landed);
  let st = Reflash.stats r in
  Alcotest.(check int) "session counted" 1 st.sessions;
  Alcotest.(check int) "pages counted" pages st.pages_streamed;
  Alcotest.(check int) "corruptions counted" pages st.pages_corrupted

let test_reflash_recovery_lands_clean_image () =
  (* Certain per-page corruption: every stream fails its CRC verify, the
     master burns its retries and falls back — and the application must
     still boot and fly on a byte-exact image. *)
  let level =
    {
      Profile.level_off with
      name = "reflash-hell";
      reflash = { Reflash.page_corrupt_ppm = 1_000_000; max_retries = 2 };
    }
  in
  let image = (Helpers.build_mavr ()).image in
  let faults = Injector.create ~seed:31 level in
  let s = Sc.create ~faults ~image (Sc.Mavr Mavr_core.Master.default_config) in
  Sc.run s ~ms:800.0;
  let r = Sc.report s in
  ignore image;
  Alcotest.(check bool) "app alive" true (not r.app_halted);
  Alcotest.(check bool) "telemetry flowed" true (r.gcs_frames > 0);
  (match Sc.master s with
  | None -> Alcotest.fail "master missing"
  | Some m ->
      (* The master randomizes at boot, so compare against what it
         intended to program, not the provisioned image. *)
      let want = (Mavr_core.Master.current_image m).Mavr_obj.Image.code in
      Alcotest.(check string) "flash is byte-exact despite the faulty link" want
        (String.sub (Cpu.flash_contents (Sc.app s)) 0 (String.length want));
      Alcotest.(check bool) "retries recorded" true (Mavr_core.Master.last_flash_retries m >= 1);
      Alcotest.(check bool) "fallback recorded" true (Mavr_core.Master.fallback_streams m >= 1));
  match Injector.reflash faults with
  | None -> Alcotest.fail "reflash faults should be armed"
  | Some rf ->
      let st = Reflash.stats rf in
      Alcotest.(check bool) "retries in the fault ledger" true (st.retries >= 1);
      Alcotest.(check bool) "fallback in the fault ledger" true (st.fallbacks >= 1)

let test_reflash_mild_retry_succeeds () =
  (* A moderate corruption rate: retries should usually rescue the
     session without falling back.  Deterministic seed chosen so at
     least one retry happens and no fallback is needed. *)
  let level =
    {
      Profile.level_off with
      name = "reflash-mild";
      reflash = { Reflash.page_corrupt_ppm = 60_000; max_retries = 5 };
    }
  in
  let image = (Helpers.build_mavr ()).image in
  let faults = Injector.create ~seed:8 level in
  let s = Sc.create ~faults ~image (Sc.Mavr Mavr_core.Master.default_config) in
  Sc.run s ~ms:400.0;
  let r = Sc.report s in
  ignore image;
  Alcotest.(check bool) "app alive" true (not r.app_halted);
  match Sc.master s with
  | None -> Alcotest.fail "master missing"
  | Some m ->
      let want = (Mavr_core.Master.current_image m).Mavr_obj.Image.code in
      Alcotest.(check string) "flash is byte-exact" want
        (String.sub (Cpu.flash_contents (Sc.app s)) 0 (String.length want))

(* ---- injector ---- *)

let test_injector_clean_level_disarms_everything () =
  let i = Injector.create ~seed:1 Profile.level_off in
  Alcotest.(check bool) "no downlink" true (Injector.downlink i = None);
  Alcotest.(check bool) "no uplink" true (Injector.uplink i = None);
  Alcotest.(check bool) "no reflash" true (Injector.reflash i = None)

let test_injector_streams_independent () =
  (* Arming the channels must not perturb the SEU draw stream: both
     injectors share a seed and SEU params, one also carries severe
     channel noise; their upsets must land identically. *)
  let seu_params = { Seu.sram_flip_ppm = 200_000; flash_flip_ppm = 50_000 } in
  let quiet = { Profile.level_off with name = "seu-only"; seu = seu_params } in
  let noisy_level =
    { quiet with
      name = "seu+chan";
      downlink = noisy;
      uplink = noisy;
    }
  in
  let code = (Helpers.build_mavr ()).image.code in
  let run level =
    let cpu = Cpu.create () in
    Cpu.load_program cpu code;
    let inj = Injector.create ~seed:55 level in
    (* Exercise the channels on the noisy injector so their rngs advance. *)
    (match Injector.downlink inj with
    | Some ch -> ignore (Channel.transmit ch ~now:0 "some downlink traffic")
    | None -> ());
    for _ = 1 to 300 do
      Injector.seu_tick inj cpu
    done;
    (Injector.seu_stats inj, Cpu.flash_contents cpu)
  in
  let stats_a, flash_a = run quiet in
  let stats_b, flash_b = run noisy_level in
  Alcotest.(check bool) "same upset counts" true (stats_a = stats_b);
  Alcotest.(check bool) "some upsets happened" true (stats_a.Seu.sram_flips > 0);
  Alcotest.(check string) "same flash damage" flash_a flash_b

let test_profiles_well_formed () =
  List.iter
    (fun (p : Profile.t) ->
      Alcotest.(check bool)
        (p.name ^ " starts clean") true
        (Array.length p.levels >= 1 && Profile.level_is_off p.levels.(0));
      (* Round trip through the CLI's parser. *)
      match Profile.of_string p.name with
      | Ok p' -> Alcotest.(check string) "name round-trips" p.name p'.name
      | Error e -> Alcotest.failf "profile %s does not parse: %s" p.name e)
    Profile.all;
  match Profile.of_string "no-such-profile" with
  | Ok _ -> Alcotest.fail "bogus profile accepted"
  | Error _ -> ()

(* ---- faulted scenario end to end ---- *)

let test_faulted_flight_survives () =
  (* Severe everything: the defended vehicle must keep flying and keep
     the GCS fed; the fault ledgers must show the noise actually ran. *)
  let stress = Profile.stress in
  let level = stress.levels.(Array.length stress.levels - 1) in
  let faults = Injector.create ~seed:99 level in
  let s = Sc.create ~faults ~image:(Helpers.build_mavr ()).image (Sc.Mavr Mavr_core.Master.default_config) in
  Sc.run s ~ms:1500.0;
  let r = Sc.report s in
  Alcotest.(check bool) "app alive" true (not r.app_halted);
  Alcotest.(check bool) "frames still flowing" true (r.gcs_frames > 0);
  (match Injector.downlink faults with
  | None -> Alcotest.fail "downlink should be armed"
  | Some ch ->
      let st = Channel.stats ch in
      Alcotest.(check bool) "noise exercised" true
        (st.bits_flipped > 0 && st.bytes_dropped > 0));
  Alcotest.(check bool) "SEUs exercised" true ((Injector.seu_stats faults).Seu.sram_flips > 0)

let test_faulted_scenario_deterministic () =
  let level = Profile.stress.levels.(2) in
  let fly () =
    let faults = Injector.create ~seed:4242 level in
    let s = Sc.create ~faults ~image:(Helpers.build_mavr ()).image (Sc.Mavr Mavr_core.Master.default_config) in
    Sc.run s ~ms:600.0;
    let r = Sc.report s in
    (r.gcs_frames, r.gcs_alarms, r.master_detections, r.reflashes, Cpu.cycles (Sc.app s))
  in
  Alcotest.(check bool) "two flights, one outcome" true (fly () = fly ())

(* ---- campaign fault axis ---- *)

let test_campaign_fault_axis () =
  let build = Helpers.build_mavr () in
  let run jobs = Montecarlo.run ~jobs ~ms:300 ~faults:Profile.stress ~seed:7 ~trials:1 build in
  let g1 = run 1 in
  let g2 = run 2 in
  Alcotest.(check int) "one level per intensity" (Array.length Profile.stress.levels)
    (Array.length g1.Montecarlo.levels);
  Alcotest.(check string) "profile recorded" "stress" g1.Montecarlo.profile;
  (* Jobs-invariance with every fault class armed. *)
  let json t = Mavr_telemetry.Json.to_string (Montecarlo.to_json t) in
  Alcotest.(check string) "jobs-invariant document" (json g1) (json g2);
  (* MAVR concedes nothing at any intensity, and control rows exist for
     every posture at every level. *)
  Array.iter
    (fun (lr : Montecarlo.level_result) ->
      Alcotest.(check int)
        (lr.level.Profile.name ^ ": no MAVR takeovers")
        0
        (Montecarlo.level_takeovers lr Montecarlo.Mavr_defense);
      Alcotest.(check int) "three control rows" 3 (Array.length lr.controls);
      Array.iter
        (fun (c : Montecarlo.control) ->
          Alcotest.(check int) "control flights flown" g1.Montecarlo.trials c.flights;
          let rate = Montecarlo.false_alarm_rate c in
          Alcotest.(check bool) "false-alarm rate in [0,1]" true (rate >= 0.0 && rate <= 1.0))
        lr.controls)
    g1.Montecarlo.levels;
  (* The clean baseline rides in front. *)
  Alcotest.(check bool) "baseline level is off" true
    (Profile.level_is_off g1.Montecarlo.levels.(0).level);
  Alcotest.(check bool) "cells accessor = baseline cells" true
    (Montecarlo.cells g1 == g1.Montecarlo.levels.(0).cells)

let () =
  Alcotest.run "fault"
    [
      ( "channel",
        [
          Alcotest.test_case "clean identity" `Quick test_channel_clean_is_identity;
          Alcotest.test_case "deterministic" `Quick test_channel_deterministic;
          Alcotest.test_case "empty draws nothing" `Quick test_channel_empty_consumes_no_randomness;
          Alcotest.test_case "extremes" `Quick test_channel_extremes;
          Alcotest.test_case "burst keeps length" `Quick test_channel_burst_keeps_length;
          Alcotest.test_case "jitter preserves order" `Quick test_channel_jitter_preserves_order;
        ] );
      ( "seu",
        [
          Alcotest.test_case "certain upsets" `Quick test_seu_certain_upsets;
          Alcotest.test_case "off is noop" `Quick test_seu_off_is_noop;
          Alcotest.test_case "flash flip drops stale decodes" `Quick
            test_seu_flash_flip_drops_stale_decodes;
        ] );
      ( "reflash",
        [
          Alcotest.test_case "clean stream" `Quick test_reflash_clean_stream;
          Alcotest.test_case "certain corruption" `Quick test_reflash_certain_corruption;
          Alcotest.test_case "recovery lands clean image" `Slow test_reflash_recovery_lands_clean_image;
          Alcotest.test_case "mild retry succeeds" `Slow test_reflash_mild_retry_succeeds;
        ] );
      ( "injector",
        [
          Alcotest.test_case "clean level disarms" `Quick test_injector_clean_level_disarms_everything;
          Alcotest.test_case "streams independent" `Quick test_injector_streams_independent;
          Alcotest.test_case "profiles well-formed" `Quick test_profiles_well_formed;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "faulted flight survives" `Slow test_faulted_flight_survives;
          Alcotest.test_case "faulted flight deterministic" `Slow test_faulted_scenario_deterministic;
        ] );
      ( "campaign",
        [ Alcotest.test_case "fault axis + jobs invariance" `Slow test_campaign_fault_axis ] );
    ]
