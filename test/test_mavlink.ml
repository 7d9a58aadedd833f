module Crc = Mavr_mavlink.Crc
module Frame = Mavr_mavlink.Frame
module Messages = Mavr_mavlink.Messages
module Parser = Mavr_mavlink.Parser

let test_crc_vectors () =
  (* CRC-16/MCRF4XX check value: "123456789" -> 0x6F91. *)
  Alcotest.(check int) "check string" 0x6F91 (Crc.of_string "123456789");
  Alcotest.(check int) "empty is seed" 0xFFFF (Crc.of_string "");
  Alcotest.(check int) "single byte" (Crc.value (Crc.accumulate Crc.init 0x00))
    (Crc.of_string "\x00")

let test_crc_incremental () =
  let whole = Crc.of_string "MAVLINK" in
  let split = Crc.accumulate_string (Crc.accumulate_string Crc.init "MAV") "LINK" in
  Alcotest.(check int) "incremental equals whole" whole (Crc.value split)

let sample_frame =
  { Frame.seq = 42; sysid = 1; compid = 1; msgid = 0; payload = String.make 9 '\x07' }

let test_frame_roundtrip () =
  let wire = Frame.encode sample_frame in
  Alcotest.(check int) "wire length" (Frame.wire_length sample_frame) (String.length wire);
  Alcotest.(check int) "magic" 0xFE (Char.code wire.[0]);
  match Frame.decode wire with
  | Ok (f, consumed) ->
      Alcotest.(check int) "consumed all" (String.length wire) consumed;
      Alcotest.(check int) "seq" 42 f.seq;
      Alcotest.(check int) "msgid" 0 f.msgid;
      Alcotest.(check string) "payload" sample_frame.payload f.payload
  | Error e -> Alcotest.failf "decode failed: %s" (Format.asprintf "%a" Frame.pp_error e)

let test_frame_crc_includes_extra () =
  (* Same bytes, different CRC_EXTRA => decode must fail. *)
  let wire = Frame.encode ~crc_extra:50 sample_frame in
  match Frame.decode ~crc_extra_of:(fun _ -> 51) wire with
  | Error (Frame.Bad_crc _) -> ()
  | Ok _ -> Alcotest.fail "wrong CRC_EXTRA accepted"
  | Error e -> Alcotest.failf "unexpected error %s" (Format.asprintf "%a" Frame.pp_error e)

let test_frame_errors () =
  (match Frame.decode "\x55\x01\x02" with
  | Error Frame.Bad_magic -> ()
  | _ -> Alcotest.fail "expected bad magic");
  let wire = Frame.encode sample_frame in
  (match Frame.decode (String.sub wire 0 5) with
  | Error Frame.Truncated -> ()
  | _ -> Alcotest.fail "expected truncated");
  let corrupted = Bytes.of_string wire in
  Bytes.set corrupted 7 '\xFF';
  match Frame.decode (Bytes.to_string corrupted) with
  | Error (Frame.Bad_crc _) -> ()
  | _ -> Alcotest.fail "expected bad CRC"

let test_encode_raw_length_lie () =
  (* The malicious frame: declared length differs from the payload. *)
  let wire = Frame.encode_raw ~declared_len:200 { sample_frame with payload = "abc" } in
  Alcotest.(check int) "length field lies" 200 (Char.code wire.[1])

let test_parser_reassembles_chunks () =
  let wire = Frame.encode sample_frame in
  let p = Parser.create () in
  let all = ref [] in
  String.iter (fun c -> all := !all @ Parser.feed p (String.make 1 c)) wire;
  Alcotest.(check int) "one frame from byte-wise feed" 1 (List.length !all);
  Alcotest.(check int) "no pending bytes" 0 (Parser.pending p)

let test_parser_resync_after_garbage () =
  let wire = Frame.encode sample_frame in
  let p = Parser.create () in
  let frames = Parser.feed p ("GARBAGE!!" ^ wire ^ "\x01\x02" ^ wire) in
  Alcotest.(check int) "both frames recovered" 2 (List.length frames);
  let st = Parser.stats p in
  Alcotest.(check bool) "garbage counted" true (st.bytes_dropped >= 9)

let test_parser_crc_error_recovery () =
  let wire = Frame.encode sample_frame in
  let bad = Bytes.of_string wire in
  Bytes.set bad 7 '\xEE';
  let p = Parser.create () in
  let frames = Parser.feed p (Bytes.to_string bad ^ wire) in
  Alcotest.(check int) "good frame after bad" 1 (List.length frames);
  Alcotest.(check int) "crc error counted" 1 (Parser.stats p).crc_errors

let test_parser_bulk_totals () =
  (* 1000 back-to-back frames with interleaved garbage and corrupted
     CRCs: the stats must account for every byte exactly once.  Frames
     are built so no wire byte after the leading magic equals 0xFE —
     otherwise the resync after a corrupted frame would lock onto a
     payload byte and the expected totals become layout-dependent. *)
  let magic_free s =
    let clean = ref true in
    String.iteri (fun i c -> if i > 0 && Char.code c = Frame.magic then clean := false) s;
    !clean
  in
  let mk_wire k =
    let rec pick c =
      let f =
        (* seq stays below 0xFE: a 0xFE sequence byte would be a magic
           in the header that no payload choice can remove. *)
        { Frame.seq = k mod 200; sysid = 1; compid = 1; msgid = 30;
          payload = String.make 8 (Char.chr c) }
      in
      let w = Frame.encode f in
      if magic_free w then w else pick (c + 1)
    in
    pick (Char.code 'A')
  in
  let corrupt w =
    (* Flip the CRC low byte, avoiding an accidental 0xFE. *)
    let b = Bytes.of_string w in
    let i = Bytes.length b - 2 in
    let flip x = Char.chr (Char.code (Bytes.get b i) lxor x) in
    Bytes.set b i (if flip 0x5A = '\xFE' then flip 0x3C else flip 0x5A);
    Bytes.to_string b
  in
  let garbage = "GARBAGE" in
  let total = 1000 in
  let buf = Buffer.create 20_000 in
  let expect_ok = ref 0 and expect_crc = ref 0 and expect_drop = ref 0 in
  for k = 1 to total do
    let w = mk_wire k in
    if k mod 10 = 0 then begin
      (* The parser drops the bad frame's magic on the CRC error, then
         resyncs over the rest: the whole frame ends up dropped. *)
      Buffer.add_string buf (corrupt w);
      incr expect_crc;
      expect_drop := !expect_drop + String.length w
    end
    else begin
      Buffer.add_string buf w;
      incr expect_ok
    end;
    if k mod 7 = 0 then begin
      Buffer.add_string buf garbage;
      expect_drop := !expect_drop + String.length garbage
    end
  done;
  let stream = Buffer.contents buf in
  (* Feed in prime-sized chunks so frames split across feeds and the
     carry-over buffering path is exercised throughout. *)
  let p = Parser.create () in
  let frames = ref [] in
  let pos = ref 0 in
  while !pos < String.length stream do
    let n = min 997 (String.length stream - !pos) in
    frames := !frames @ Parser.feed p (String.sub stream !pos n);
    pos := !pos + n
  done;
  let st = Parser.stats p in
  Alcotest.(check int) "frames parsed" !expect_ok (List.length !frames);
  Alcotest.(check int) "frames_ok" !expect_ok st.Parser.frames_ok;
  Alcotest.(check int) "crc_errors" !expect_crc st.Parser.crc_errors;
  Alcotest.(check int) "bytes_dropped" !expect_drop st.Parser.bytes_dropped;
  (* Byte accounting: parsed + dropped + still-buffered = fed. *)
  let parsed_bytes = List.fold_left (fun a f -> a + Frame.wire_length f) 0 !frames in
  Alcotest.(check int) "every byte accounted once" (String.length stream)
    (parsed_bytes + st.Parser.bytes_dropped + Parser.pending p)

let test_parser_fuzz_under_channel () =
  (* The lossy-channel model is the adversary here: whatever it does to
     a valid stream — single-bit flips, drops, duplications, bursts —
     [Parser.feed] must never raise, and the exact byte-accounting
     invariant must survive (every corrupted byte lands in a parsed
     frame, the dropped tally, or the pending buffer). *)
  let module Channel = Mavr_fault.Channel in
  let intensities =
    [
      { Channel.clean with bit_flip_ppm = 2_000; drop_ppm = 1_000 };
      {
        Channel.bit_flip_ppm = 10_000;
        drop_ppm = 5_000;
        dup_ppm = 2_000;
        burst_ppm = 100_000;
        burst_len_max = 16;
        jitter_max_ticks = 0;
      };
      (* Absurd rates: the stream is mostly noise. *)
      {
        Channel.bit_flip_ppm = 200_000;
        drop_ppm = 100_000;
        dup_ppm = 100_000;
        burst_ppm = 500_000;
        burst_len_max = 32;
        jitter_max_ticks = 0;
      };
    ]
  in
  List.iteri
    (fun level params ->
      for seed = 0 to 19 do
        let rng = Mavr_prng.Splitmix.create ~seed:((level * 101) + seed) in
        let ch = Channel.create ~rng params in
        let buf = Buffer.create 4096 in
        for k = 0 to 60 do
          let payload, msgid =
            if k mod 3 = 0 then
              ( Messages.Heartbeat.encode
                  { typ = 1; autopilot = 3; base_mode = 0; custom_mode = 0; system_status = 4 },
                0 )
            else
              ( Messages.Raw_imu.encode
                  { time_usec = k; xacc = k; yacc = 0; zacc = 0; xgyro = k * 7; ygyro = 0;
                    zgyro = 0; xmag = 0; ymag = 0; zmag = 0 },
                27 )
          in
          let wire =
            Frame.encode { Frame.seq = k land 0xFF; sysid = 1; compid = 1; msgid; payload }
          in
          Buffer.add_string buf (Channel.corrupt ch wire)
        done;
        let stream = Buffer.contents buf in
        (* Feed in a cycling chunk size so split-frame carry-over is
           exercised at every intensity. *)
        let p = Parser.create () in
        let parsed_bytes = ref 0 in
        let pos = ref 0 and n = ref 1 in
        while !pos < String.length stream do
          let len = min !n (String.length stream - !pos) in
          List.iter
            (fun f -> parsed_bytes := !parsed_bytes + Frame.wire_length f)
            (Parser.feed p (String.sub stream !pos len));
          pos := !pos + len;
          n := (!n mod 37) + 1
        done;
        let st = Parser.stats p in
        Alcotest.(check int)
          (Printf.sprintf "byte accounting (intensity %d, seed %d)" level seed)
          (String.length stream)
          (!parsed_bytes + st.Parser.bytes_dropped + Parser.pending p)
      done)
    intensities

let test_messages_catalog () =
  List.iter
    (fun (d : Messages.def) ->
      match Messages.find d.msgid with
      | Some d' -> Alcotest.(check string) "find returns same def" d.name d'.name
      | None -> Alcotest.failf "%s not found by id" d.name)
    Messages.all;
  Alcotest.(check int) "unknown crc_extra is 0" 0 (Messages.crc_extra_of 200);
  Alcotest.(check int) "heartbeat extra" 50 (Messages.crc_extra_of 0);
  Alcotest.(check int) "raw_imu extra" 144 (Messages.crc_extra_of 27)

let test_heartbeat_codec () =
  let hb = { Messages.Heartbeat.typ = 1; autopilot = 3; base_mode = 81; custom_mode = 0xDEAD; system_status = 4 } in
  let s = Messages.Heartbeat.encode hb in
  Alcotest.(check int) "payload length" Messages.heartbeat.payload_len (String.length s);
  Alcotest.(check string) "wire layout" "\xAD\xDE\x00\x00\x01\x03\x51\x04\x03" s

let test_raw_imu_codec () =
  let imu =
    { Messages.Raw_imu.time_usec = 987654321; xacc = -100; yacc = 50; zacc = 981;
      xgyro = -32768; ygyro = 32767; zgyro = 0; xmag = 1; ymag = -1; zmag = 7 }
  in
  match Messages.Raw_imu.decode (Messages.Raw_imu.encode imu) with
  | Ok imu' -> Alcotest.(check bool) "i16 fields roundtrip" true (imu = imu')
  | Error e -> Alcotest.fail e

let test_bad_payload_lengths () =
  List.iter
    (fun len ->
      match Messages.Raw_imu.decode (String.make len 'x') with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%d-byte raw_imu accepted" len)
    [ 0; 25; 27 ]

let gen_frame =
  QCheck.Gen.(
    map
      (fun (seq, sysid, compid, msgid, payload) -> { Frame.seq; sysid; compid; msgid; payload })
      (tup5 (int_range 0 255) (int_range 0 255) (int_range 0 255) (int_range 0 255)
         (string_size (int_range 0 255))))

let arb_frame =
  QCheck.make
    ~print:(fun f -> Printf.sprintf "{seq=%d;msgid=%d;|payload|=%d}" f.Frame.seq f.msgid (String.length f.payload))
    gen_frame

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame roundtrip" ~count:300 arb_frame (fun f ->
      match Frame.decode (Frame.encode f) with
      | Ok (f', n) -> f = f' && n = Frame.wire_length f
      | Error _ -> false)

let prop_parser_stream =
  QCheck.Test.make ~name:"parser recovers a random frame stream" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) arb_frame)
    (fun frames ->
      let stream = String.concat "" (List.map Frame.encode frames) in
      let p = Parser.create () in
      let out = Parser.feed p stream in
      List.length out = List.length frames
      && List.for_all2 (fun a b -> a = b) frames out)

let () =
  Alcotest.run "mavlink"
    [
      ( "crc",
        [
          Alcotest.test_case "check vectors" `Quick test_crc_vectors;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "crc_extra matters" `Quick test_frame_crc_includes_extra;
          Alcotest.test_case "errors" `Quick test_frame_errors;
          Alcotest.test_case "encode_raw length lie" `Quick test_encode_raw_length_lie;
        ] );
      ( "parser",
        [
          Alcotest.test_case "byte-wise reassembly" `Quick test_parser_reassembles_chunks;
          Alcotest.test_case "resync after garbage" `Quick test_parser_resync_after_garbage;
          Alcotest.test_case "crc error recovery" `Quick test_parser_crc_error_recovery;
          Alcotest.test_case "bulk totals" `Quick test_parser_bulk_totals;
          Alcotest.test_case "fuzz under lossy channel" `Quick test_parser_fuzz_under_channel;
        ] );
      ( "messages",
        [
          Alcotest.test_case "catalog" `Quick test_messages_catalog;
          Alcotest.test_case "heartbeat codec" `Quick test_heartbeat_codec;
          Alcotest.test_case "raw_imu codec" `Quick test_raw_imu_codec;
          Alcotest.test_case "bad payload lengths" `Quick test_bad_payload_lengths;
        ] );
      ("properties", List.map Helpers.qtest [ prop_frame_roundtrip; prop_parser_stream ]);
    ]
