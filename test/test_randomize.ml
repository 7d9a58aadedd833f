module Cpu = Mavr_avr.Cpu
module Image = Mavr_obj.Image
module Shuffle = Mavr_core.Shuffle
module Stream_patch = Mavr_core.Stream_patch
module Randomize = Mavr_core.Randomize
module Rng = Mavr_prng.Splitmix

let image () = (Helpers.build_mavr ()).image

let test_shuffle_is_permutation () =
  let img = image () in
  let s = Shuffle.draw ~rng:(Rng.create ~seed:1) img in
  let n = Image.function_count img in
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      Alcotest.(check bool) "index in range" true (i >= 0 && i < n);
      Alcotest.(check bool) "no duplicate" false seen.(i);
      seen.(i) <- true)
    s.order

let test_layout_covers_text () =
  let img = image () in
  let s = Shuffle.draw ~rng:(Rng.create ~seed:2) img in
  let syms = Array.of_list img.Image.symbols in
  let spans =
    List.sort compare
      (Array.to_list (Array.mapi (fun i (sym : Image.symbol) -> (s.new_addr.(i), sym.size)) syms))
  in
  let cursor = ref img.text_start in
  List.iter
    (fun (addr, size) ->
      Alcotest.(check int) "blocks back to back" !cursor addr;
      cursor := addr + size)
    spans;
  Alcotest.(check int) "ends at text_end" img.text_end !cursor

let test_identity_shuffle () =
  let img = image () in
  let s = Shuffle.identity img in
  let img' = Randomize.with_order img s.order in
  Alcotest.(check string) "identity patch is byte-identical" img.Image.code img'.Image.code

let test_map_addr () =
  let img = image () in
  let s = Shuffle.draw ~rng:(Rng.create ~seed:3) img in
  let sym = List.nth img.Image.symbols 7 in
  let mapped_start = Shuffle.map_addr img s sym.addr in
  let mapped_mid = Shuffle.map_addr img s (sym.addr + 4) in
  Alcotest.(check int) "offset preserved" (mapped_start + 4) mapped_mid;
  Alcotest.(check int) "outside text unchanged" 10 (Shuffle.map_addr img s 10)

let test_of_order_validation () =
  let img = image () in
  let n = Image.function_count img in
  (match Shuffle.of_order img (Array.make n 0) with
  | _ -> Alcotest.fail "duplicate order accepted"
  | exception Invalid_argument _ -> ());
  match Shuffle.of_order img [| 0 |] with
  | _ -> Alcotest.fail "short order accepted"
  | exception Invalid_argument _ -> ()

let test_structure_preserved () =
  let img = image () in
  for seed = 1 to 5 do
    let r = Randomize.randomize ~seed img in
    Helpers.assert_ok (Randomize.verify_structure ~original:img ~randomized:r)
  done

let test_layout_distance () =
  let img = image () in
  let r = Randomize.randomize ~seed:9 img in
  let d = Randomize.layout_distance img r in
  Alcotest.(check bool) "most functions moved" true (d > Image.function_count img * 3 / 4);
  Alcotest.(check int) "distance to self is 0" 0 (Randomize.layout_distance img img)

let test_different_seeds_different_layouts () =
  let img = image () in
  let a = Randomize.randomize ~seed:1 img in
  let b = Randomize.randomize ~seed:2 img in
  Alcotest.(check bool) "layouts differ" true (a.Image.code <> b.Image.code)

let test_same_seed_same_layout () =
  let img = image () in
  let a = Randomize.randomize ~seed:4 img in
  let b = Randomize.randomize ~seed:4 img in
  Alcotest.(check string) "deterministic" a.Image.code b.Image.code

let observe image ~cycles =
  let cpu = Helpers.boot image in
  let benign =
    Mavr_mavlink.Frame.encode
      { Mavr_mavlink.Frame.seq = 3; sysid = 255; compid = 0; msgid = 23;
        payload = "\x31\x32\x33\x00" }
  in
  Cpu.uart_send cpu benign;
  let r = Cpu.run cpu ~max_cycles:cycles in
  ( Helpers.run_result_to_string r,
    Cpu.uart_take_tx cpu,
    Cpu.watchdog_feeds cpu,
    Cpu.stack_slice cpu ~pos:0x480 ~len:0x300 )

let test_behavioural_equivalence () =
  (* The heart of the defense's correctness: randomized firmware is
     observationally identical — telemetry bytes, watchdog feeds, SRAM
     state — including while processing uplink messages. *)
  let img = image () in
  let reference = observe img ~cycles:500_000 in
  for seed = 11 to 18 do
    let r = Randomize.randomize ~seed img in
    let got = observe r ~cycles:500_000 in
    Alcotest.(check bool) (Printf.sprintf "seed %d equivalent" seed) true (got = reference)
  done

let test_relaxed_image_refused () =
  let stock = Helpers.build_stock () in
  match Stream_patch.check_randomizable stock.image with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "relaxed image must be refused"

let test_mavr_image_accepted () =
  Helpers.assert_ok (Stream_patch.check_randomizable (image ()))

let test_funptrs_remapped () =
  let img = image () in
  let s = Shuffle.draw ~rng:(Rng.create ~seed:21) img in
  let img' = Randomize.with_order img s.order in
  List.iter
    (fun loc ->
      let w = Char.code img.Image.code.[loc] lor (Char.code img.Image.code.[loc + 1] lsl 8) in
      let w' = Char.code img'.Image.code.[loc] lor (Char.code img'.Image.code.[loc + 1] lsl 8) in
      let expected = Shuffle.map_addr img s (w * 2) / 2 in
      Alcotest.(check int) (Printf.sprintf "funptr at 0x%x" loc) expected w')
    img.funptr_locs

let test_symbols_follow_blocks () =
  (* Each function's bytes at its new address still start with the same
     first instruction word unless that word is a patched call/jmp. *)
  let img = image () in
  let r = Randomize.randomize ~seed:31 img in
  List.iter
    (fun (s : Image.symbol) ->
      let s' = List.find (fun (x : Image.symbol) -> x.name = s.name) r.Image.symbols in
      Alcotest.(check int) (s.name ^ " size preserved") s.size s'.size)
    img.symbols

let test_double_randomization () =
  (* Randomizing a randomized image must still be behaviourally sound —
     the master re-randomizes after every detected attack (§V-C). *)
  let img = image () in
  let r1 = Randomize.randomize ~seed:41 img in
  let r2 = Randomize.randomize ~seed:42 r1 in
  Helpers.assert_ok (Randomize.verify_structure ~original:img ~randomized:r2);
  let reference = observe img ~cycles:300_000 in
  Alcotest.(check bool) "twice-randomized equivalent" true (observe r2 ~cycles:300_000 = reference)

(* ---- streaming randomization (§VI-B3) ---- *)

(* [Image.fingerprint] of [Randomize.randomize ~seed:1..5] on each paper
   profile, recorded while a separate batch patcher still existed and was
   checked byte for byte against the streaming one. *)
let pinned_fingerprints =
  [
    ( "Arduplane",
      [ 0x276f1e02cf2150c0; 0x119f83286466c57b; 0x3bc5e4f3e1e2567e; 0x28e6d8400c4d724a; 0x839be8fd4a60dc ] );
    ( "Arducopter",
      [ 0x1c616235e42746ce; 0x3ee700b88196c706; 0x1890cbd1eba05dae; 0x12d483e6ef4f4424; 0x12b75505ce404ae3 ] );
    ( "Ardurover",
      [ 0x2b8644278cc7b4ff; 0x29bf75e283249276; 0x12d782695062eaf7; 0x16b287307275c609; 0x26d083513e3b6951 ] );
  ]

let test_streaming_pinned_layouts () =
  List.iter
    (fun (profile : Mavr_firmware.Profile.t) ->
      let img = (Mavr_firmware.Build.build profile Mavr_firmware.Profile.mavr).image in
      List.iteri
        (fun k expected ->
          let seed = k + 1 in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d fingerprint" profile.name seed)
            expected
            (Image.fingerprint (Randomize.randomize ~seed img)))
        (List.assoc profile.name pinned_fingerprints);
      let _, stats = Stream_patch.randomize_image ~seed:1 img ~page_bytes:256 in
      Alcotest.(check int) "pages emitted" ((Image.size img + 255) / 256) stats.pages_emitted;
      Alcotest.(check bool) "read at least the whole image" true (stats.bytes_read >= Image.size img))
    Mavr_firmware.Profile.all

let test_streaming_symbols_match () =
  (* Each symbol's new address holds its own block: byte for byte, except
     the absolute call/jmp instructions the relocation rewrote. *)
  let img = image () in
  let streamed, _ = Stream_patch.randomize_image ~seed:9 img ~page_bytes:256 in
  List.iter
    (fun (s : Image.symbol) ->
      let s' = List.find (fun (x : Image.symbol) -> x.name = s.name) streamed.Image.symbols in
      let block = Image.code_of img s and moved = Image.code_of streamed s' in
      let pos = ref 0 in
      while !pos + 1 < s.size do
        let insn, size = Mavr_avr.Decode.decode_bytes block !pos in
        (match insn with
        | Mavr_avr.Isa.Call _ | Mavr_avr.Isa.Jmp _ -> ()
        | _ ->
            Alcotest.(check string)
              (Printf.sprintf "%s+0x%x" s.name !pos)
              (String.sub block !pos size) (String.sub moved !pos size));
        pos := !pos + size
      done)
    img.symbols

let test_streaming_fits_master_sram () =
  (* The §VI-B3 memory claim: randomization of every profile fits the
     ATmega1284P's 16 KB SRAM. *)
  let sram = Mavr_avr.Device.atmega1284p.sram_bytes in
  List.iter
    (fun profile ->
      let b = Mavr_firmware.Build.build profile Mavr_firmware.Profile.mavr in
      let _, stats = Stream_patch.randomize_image ~seed:1 b.image ~page_bytes:256 in
      if stats.peak_working_set >= sram then
        Alcotest.failf "%s: working set %d B exceeds %d B SRAM" profile.Mavr_firmware.Profile.name
          stats.peak_working_set sram)
    Mavr_firmware.Profile.all

let test_streaming_refuses_relaxed () =
  let stock = Helpers.build_stock () in
  match Stream_patch.randomize_image ~seed:1 stock.image ~page_bytes:256 with
  | _ -> Alcotest.fail "relaxed image must be refused"
  | exception Stream_patch.Unpatchable _ -> ()

let nop = "\x00\x00" and ret = "\x08\x95"

(* A hand-laid image: a 4-byte vector block, [main] (nop; ret), a
   one-instruction [target], a [filler] of nops, then [data] after the
   text section, holding one stored pointer at [text_end + ptr_at]. *)
let hand_image ~filler ~data ~ptr_at =
  let text_end = 10 + filler in
  let code =
    String.concat ""
      [ nop ^ nop; nop ^ ret; ret; String.concat "" (List.init ((filler / 2) - 1) (fun _ -> nop)); ret; data ]
  in
  let sym name addr size = { Image.name; addr; size; kind = Image.Func } in
  let symbols = [ sym "main" 4 4; sym "target" 8 2; sym "filler" 10 filler ] in
  let img =
    {
      Image.code;
      exec_low_end = 4;
      text_start = 4;
      text_end;
      symbols;
      symbol_array = Array.of_list symbols;
      funptr_locs = [ text_end + ptr_at ];
    }
  in
  Helpers.assert_ok (Image.validate img);
  img

(* A 128 KB+ image whose pointed-to function ("target") the layout
   [| 0; 2; 1 |] moves above 0x1FFFF: its word address no longer fits
   the 16-bit function pointer, so the relocator must refuse instead of
   truncating it. *)
let far_pointer_image () = hand_image ~filler:0x20000 ~data:"\x04\x00" ~ptr_at:0

(* A pointer to [target] whose low byte ends the first 256-byte chunk of
   the data region: the streamer cannot carry it across chunks. *)
let straddling_pointer_image () =
  hand_image ~filler:0x10 ~data:(String.make 255 '\xff' ^ "\x04\x00") ~ptr_at:255

let test_streaming_funptr_reach () =
  let img = far_pointer_image () in
  Helpers.assert_ok (Stream_patch.check_randomizable img);
  let order = [| 0; 2; 1 |] in
  (match
     Stream_oracle.run ~code_size:(Image.size img)
       ~read:(fun ~pos ~len -> String.sub img.code pos len)
       ~meta:(Mavr_obj.Symtab.meta_of_image img) ~order ~page_bytes:256
       ~emit_page:(fun ~page_addr:_ _ -> ())
   with
  | _ -> Alcotest.fail "pointer beyond icall reach streamed"
  | exception Stream_patch.Unpatchable _ -> ());
  match Randomize.with_order img order with
  | _ -> Alcotest.fail "pointer beyond icall reach randomized"
  | exception Stream_patch.Unpatchable _ -> ()

(* ---- the relocation plan against the streaming oracle ---- *)

let ardu = lazy (Mavr_firmware.Build.build Mavr_firmware.Profile.arduplane Mavr_firmware.Profile.mavr).image
let tiny60 = lazy (Mavr_firmware.Build.build (Mavr_firmware.Profile.tiny ~n:60 ~seed:7) Mavr_firmware.Profile.mavr).image

(* The firmware profiles point their vtables at vector-block stubs, so
   the hand-laid image is the one whose data-section pointer into the
   text section moves (both bytes of it) with the layout. *)
let prop_plan_matches_oracle =
  let page_sizes = [| 256; Mavr_avr.Device.atmega2560.flash_page_bytes; 128 |] in
  QCheck.Test.make ~name:"plan + layout equal the streaming oracle" ~count:40
    QCheck.(quad (int_bound 3) (int_bound 2) bool (int_range 1 1_000_000))
    (fun (which, page, decoded, seed) ->
      let img =
        match which with
        | 0 -> Lazy.force tiny60
        | 1 -> image ()
        | 2 -> Lazy.force ardu
        | _ -> hand_image ~filler:0x400 ~data:"\x04\x00" ~ptr_at:0
      in
      let img = if decoded then Mavr_obj.Symtab.(of_hex (to_hex img)) else img in
      let shuffle = Shuffle.draw ~rng:(Rng.create ~seed) img in
      let page_bytes = page_sizes.(page) in
      match Stream_oracle.(outcome (planned img shuffle ~page_bytes)) with
      | Error m -> QCheck.Test.fail_reportf "refused: %s" m
      | Ok _ -> Stream_oracle.agrees img shuffle ~page_bytes)

let test_plan_refusals_match_oracle () =
  let check name img shuffle expected =
    List.iter
      (fun page_bytes ->
        let plan = Stream_oracle.(outcome (planned img shuffle ~page_bytes)) in
        let oracle = Stream_oracle.(outcome (fun () -> apply img shuffle ~page_bytes)) in
        List.iter
          (fun (who, got) ->
            match got with
            | Error c -> Alcotest.(check string) (Printf.sprintf "%s, %s, %d B pages" name who page_bytes) expected c
            | Ok _ -> Alcotest.failf "%s: %s accepted it at %d B pages" name who page_bytes)
          [ ("plan", plan); ("oracle", oracle) ])
      [ 256; Mavr_avr.Device.atmega2560.flash_page_bytes ]
  in
  let stock = (Helpers.build_stock ()).image in
  check "relaxed image" stock (Shuffle.draw ~rng:(Rng.create ~seed:1) stock) "relaxed branch";
  let far = far_pointer_image () in
  check "far pointer" far (Shuffle.of_order far [| 0; 2; 1 |]) "pointer beyond icall reach";
  let straddling = straddling_pointer_image () in
  check "straddling pointer" straddling (Shuffle.identity straddling) "straddling pointer"

let prop_random_seed_equivalence =
  QCheck.Test.make ~name:"random seeds preserve behaviour" ~count:12
    QCheck.(int_range 100 1_000_000)
    (fun seed ->
      let img = image () in
      let r = Randomize.randomize ~seed img in
      observe r ~cycles:200_000 = observe img ~cycles:200_000)

let () =
  Alcotest.run "randomize"
    [
      ( "shuffle",
        [
          Alcotest.test_case "permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "layout covers text" `Quick test_layout_covers_text;
          Alcotest.test_case "identity" `Quick test_identity_shuffle;
          Alcotest.test_case "map_addr" `Quick test_map_addr;
          Alcotest.test_case "of_order validation" `Quick test_of_order_validation;
        ] );
      ( "randomize",
        [
          Alcotest.test_case "structure preserved" `Quick test_structure_preserved;
          Alcotest.test_case "layout distance" `Quick test_layout_distance;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_different_layouts;
          Alcotest.test_case "deterministic per seed" `Quick test_same_seed_same_layout;
          Alcotest.test_case "behavioural equivalence" `Slow test_behavioural_equivalence;
          Alcotest.test_case "relaxed image refused" `Quick test_relaxed_image_refused;
          Alcotest.test_case "MAVR image accepted" `Quick test_mavr_image_accepted;
          Alcotest.test_case "function pointers remapped" `Quick test_funptrs_remapped;
          Alcotest.test_case "symbol sizes preserved" `Quick test_symbols_follow_blocks;
          Alcotest.test_case "double randomization" `Quick test_double_randomization;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "pinned layout fingerprints" `Slow test_streaming_pinned_layouts;
          Alcotest.test_case "symbols match" `Quick test_streaming_symbols_match;
          Alcotest.test_case "fits master SRAM (all profiles)" `Slow test_streaming_fits_master_sram;
          Alcotest.test_case "refuses relaxed images" `Quick test_streaming_refuses_relaxed;
          Alcotest.test_case "function pointer beyond icall reach" `Quick test_streaming_funptr_reach;
          Alcotest.test_case "plan refuses what the oracle refuses" `Quick test_plan_refusals_match_oracle;
        ] );
      ("properties", [ Helpers.qtest prop_random_seed_equivalence; Helpers.qtest prop_plan_matches_oracle ]);
    ]
