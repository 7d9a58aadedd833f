module Ihex = Mavr_obj.Ihex
module Image = Mavr_obj.Image
module Symtab = Mavr_obj.Symtab

let test_ihex_simple_roundtrip () =
  let data = String.init 100 (fun i -> Char.chr (i land 0xFF)) in
  let hex = Ihex.encode [ (0, data) ] in
  match Ihex.decode hex with
  | [ (0, d) ] -> Alcotest.(check string) "roundtrip" data d
  | segs -> Alcotest.failf "unexpected segments: %d" (List.length segs)

let test_ihex_crosses_64k () =
  (* Images above 64 KB need type-04 extended address records. *)
  let data = String.init 200 (fun i -> Char.chr (i land 0xFF)) in
  let base = 0xFFE0 in
  let hex = Ihex.encode [ (base, data) ] in
  Alcotest.(check bool) "has type-04 record" true
    (String.split_on_char '\n' hex |> List.exists (fun l -> String.length l > 8 && String.sub l 7 2 = "04"));
  match Ihex.decode hex with
  | [ (b, d) ] ->
      Alcotest.(check int) "base preserved" base b;
      Alcotest.(check string) "data preserved" data d
  | segs -> Alcotest.failf "unexpected segments: %d" (List.length segs)

let test_ihex_multi_segment () =
  let hex = Ihex.encode [ (0x800000, "META"); (0, "CODE") ] in
  let segs = Ihex.decode hex in
  Alcotest.(check int) "two segments" 2 (List.length segs);
  Alcotest.(check string) "code first (ascending)" "CODE" (snd (List.hd segs));
  Alcotest.(check string) "meta second" "META" (snd (List.nth segs 1))

let test_ihex_bad_checksum () =
  let hex = Ihex.encode [ (0, "hello world") ] in
  (* Corrupt one data nibble. *)
  let bad = Bytes.of_string hex in
  Bytes.set bad 10 (if Bytes.get bad 10 = '0' then '1' else '0');
  match Ihex.decode (Bytes.to_string bad) with
  | _ -> Alcotest.fail "expected checksum error"
  | exception Ihex.Parse_error _ -> ()

let test_ihex_missing_eof () =
  match Ihex.decode ":0100000001FE\n" (* data record only, no EOF *) with
  | _ -> Alcotest.fail "expected missing-EOF error"
  | exception Ihex.Parse_error _ -> ()

let test_ihex_flatten () =
  let flat = Ihex.flatten [ (2, "AB"); (6, "C") ] in
  Alcotest.(check string) "gap filled" "\xff\xffAB\xff\xffC" flat;
  let flat = Ihex.flatten ~limit:4 [ (2, "AB"); (0x800000, "META") ] in
  Alcotest.(check string) "limit drops high segment" "\xff\xffAB" flat

let build_image () = (Helpers.build_mavr ()).image

let test_image_invariants () =
  let img = build_image () in
  Helpers.assert_ok (Image.validate img);
  Alcotest.(check int) "function count" 120 (Image.function_count img);
  Alcotest.(check bool) "has function pointers" true (List.length img.funptr_locs > 0)

let test_image_function_containing () =
  let img = build_image () in
  let sym = List.nth img.Image.symbols 5 in
  (match Image.function_containing img sym.addr with
  | Some s -> Alcotest.(check string) "exact start" sym.name s.name
  | None -> Alcotest.fail "no function at symbol start");
  (match Image.function_containing img (sym.addr + sym.size - 1) with
  | Some s -> Alcotest.(check string) "last byte" sym.name s.name
  | None -> Alcotest.fail "no function at last byte");
  (match Image.function_containing img (img.text_start - 1) with
  | Some s -> Alcotest.failf "below text resolved to %s" s.Image.name
  | None -> ());
  match Image.function_containing img img.text_end with
  | Some s -> Alcotest.failf "text_end resolved to %s" s.Image.name
  | None -> ()

let test_image_broken_coverage_rejected () =
  let img = build_image () in
  let broken = { img with symbols = List.tl img.Image.symbols } in
  match Image.validate broken with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gap should be rejected"

let test_symtab_blob_roundtrip () =
  let img = build_image () in
  let meta = Symtab.meta_of_image img in
  let meta' = Symtab.of_blob (Symtab.to_blob meta) in
  Alcotest.(check bool) "meta roundtrip" true (meta = meta')

let test_symtab_bad_magic () =
  match Symtab.of_blob "XXXXX garbage" with
  | _ -> Alcotest.fail "expected bad magic"
  | exception Invalid_argument _ -> ()

let test_preprocessed_hex_roundtrip () =
  (* The §VI-B2 flow: image -> prepended HEX -> (external flash) -> image. *)
  let img = build_image () in
  let hex = Symtab.to_hex img in
  let img' = Symtab.of_hex hex in
  Alcotest.(check string) "code identical" img.Image.code img'.Image.code;
  Alcotest.(check int) "same text bounds" img.text_start img'.Image.text_start;
  Alcotest.(check int) "same function count" (Image.function_count img) (Image.function_count img');
  Alcotest.(check (list int)) "same funptr locs" img.funptr_locs img'.Image.funptr_locs;
  (* Names are synthesized, but addresses and sizes must agree. *)
  List.iter2
    (fun (a : Image.symbol) (b : Image.symbol) ->
      Alcotest.(check int) "symbol addr" a.addr b.addr;
      Alcotest.(check int) "symbol size" a.size b.size)
    img.symbols img'.Image.symbols;
  Helpers.assert_ok (Image.validate img')

let test_fingerprint_changes () =
  let img = build_image () in
  let r = Mavr_core.Randomize.randomize ~seed:3 img in
  Alcotest.(check bool) "randomization changes fingerprint" true
    (Image.fingerprint img <> Image.fingerprint r)

let prop_ihex_roundtrip =
  QCheck.Test.make ~name:"ihex roundtrip on random payloads" ~count:100
    QCheck.(pair (int_bound 100_000) (string_of_size (QCheck.Gen.int_range 1 600)))
    (fun (base, data) ->
      match Ihex.decode (Ihex.encode [ (base, data) ]) with
      | [ (b, d) ] -> b = base && d = data
      | _ -> false)

(* A stored HEX whose metadata disagrees with its code is refused with a
   typed error naming the field, before any randomizer sees it. *)
let test_symtab_inconsistent_meta () =
  let img = build_image () in
  let meta = Symtab.meta_of_image img in
  let hex_of m = Ihex.encode [ (Symtab.meta_base, Symtab.to_blob m); (0, img.Image.code) ] in
  let size = Image.size img in
  List.iter
    (fun (case, m, field) ->
      match Symtab.of_hex (hex_of m) with
      | _ -> Alcotest.failf "%s: accepted" case
      | exception Invalid_argument msg ->
          let prefix = "Symtab.of_hex: " ^ field in
          if not (String.starts_with ~prefix msg) then
            Alcotest.failf "%s: expected %S..., got %S" case prefix msg)
    [
      ("reversed func_addrs", { meta with func_addrs = List.rev meta.func_addrs }, "func_addrs");
      ("empty func_addrs", { meta with func_addrs = [] }, "func_addrs");
      ("text_end past the code", { meta with text_end = size + 2 }, "text_start/text_end");
      ("exec_low_end above text_start", { meta with exec_low_end = meta.text_start + 2 }, "exec_low_end");
      ("funptr beyond the code", { meta with funptr_locs = meta.funptr_locs @ [ size - 1 ] }, "funptr_locs");
    ]

(* ---- differential: the codec against the previous implementation ---- *)

module Rng = Mavr_prng.Splitmix

let decode_result decode text =
  match decode text with
  | segs -> Ok segs
  | exception Ihex.Parse_error { line; message } -> Error (line, message)
  | exception Ihex_oracle.Parse_error { line; message } -> Error (line, message)

(* Segment lists the encoder meets and a few it should not: 64 KB
   crossings, adjacent and overlapping segments, the metadata segment,
   empty payloads. *)
let random_segments rng =
  let prev = ref (0, "") in
  List.init
    (1 + Rng.int rng 5)
    (fun _ ->
      let data = String.init (Rng.int rng 300) (fun _ -> Char.chr (Rng.int rng 256)) in
      let pa, pd = !prev in
      let base =
        match Rng.int rng 6 with
        | 0 -> Rng.int rng 0x30000
        | 1 -> ((1 + Rng.int rng 3) lsl 16) - Rng.int rng 40
        | 2 -> pa + String.length pd
        | 3 -> pa + Rng.int rng (String.length pd + 1)
        | 4 -> Symtab.meta_base
        | _ -> Rng.int rng 64
      in
      prev := (base, data);
      (base, data))

let prop_ihex_encode_matches_oracle =
  QCheck.Test.make ~name:"ihex encode/decode match the previous codec" ~count:300 QCheck.int
    (fun seed ->
      let segs = random_segments (Rng.create ~seed) in
      let text = Ihex.encode segs in
      text = Ihex_oracle.encode segs
      && decode_result Ihex.decode text = decode_result Ihex_oracle.decode text)

(* A well-formed record line with the given bytes and their checksum. *)
let raw_record bytes =
  let sum = List.fold_left ( + ) 0 bytes in
  ":" ^ String.concat "" (List.map (Printf.sprintf "%02X") (bytes @ [ (0x100 - (sum land 0xFF)) land 0xFF ]))

(* One mutation of a valid text, mostly line-level. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let pick () = Rng.int rng n in
  let join ls = String.concat "\n" ls in
  let insert k l = join (List.concat (List.mapi (fun i x -> if i = k then [ l; x ] else [ x ]) (Array.to_list lines))) in
  let edit_char f =
    let k = pick () in
    let l = lines.(k) in
    if l <> "" then lines.(k) <- f l (Rng.int rng (String.length l));
    join (Array.to_list lines)
  in
  match Rng.int rng 12 with
  | 0 -> edit_char (fun l i -> String.mapi (fun j c -> if j = i then "0123456789ABCDEF".[Rng.int rng 16] else c) l)
  | 1 ->
      (* One or two stray characters, possibly both digits of one byte. *)
      let width = 1 + Rng.int rng 2 in
      edit_char (fun l i ->
          String.mapi (fun j c -> if j >= i && j < i + width then "Gg: xZ\r\t".[Rng.int rng 8] else c) l)
  | 2 -> String.lowercase_ascii text
  | 3 -> join (List.map (fun l -> l ^ "\r") (Array.to_list lines))
  | 4 -> insert (pick ()) (if Rng.bool rng then "" else "  \t ")
  | 5 -> text ^ ":zz junk\n:00000001FF\nmore"
  | 6 -> join (List.filter (fun l -> not (String.starts_with ~prefix:":00000001" l)) (Array.to_list lines))
  | 7 -> edit_char (fun l i -> String.sub l 0 i ^ String.sub l (i + 1) (String.length l - i - 1))
  | 8 -> insert (pick ()) (raw_record [ 2; 0x12; 0x34; Rng.pick rng [| 2; 3; 5; 6; 0x42 |]; 0x12; 0x34 ])
  | 9 ->
      let len = Rng.pick rng [| 0; 1; 3 |] in
      insert (pick ()) (raw_record ([ len; 0; 0; 4 ] @ List.init len (fun _ -> 0xA)))
  | 10 -> insert (pick ()) (raw_record [ 2 + Rng.int rng 4; 0x00; 0x10; 0; 0xAB ])
  | _ -> String.sub text 0 (Rng.int rng (String.length text + 1))

let prop_ihex_decode_mutants_match_oracle =
  QCheck.Test.make ~name:"ihex decode of mutated texts matches the previous codec" ~count:600
    QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let text = mutate rng (Ihex.encode (random_segments rng)) in
      decode_result Ihex.decode text = decode_result Ihex_oracle.decode text)

let () =
  Alcotest.run "objfile"
    [
      ( "ihex",
        [
          Alcotest.test_case "simple roundtrip" `Quick test_ihex_simple_roundtrip;
          Alcotest.test_case "crosses 64K" `Quick test_ihex_crosses_64k;
          Alcotest.test_case "multi segment" `Quick test_ihex_multi_segment;
          Alcotest.test_case "bad checksum" `Quick test_ihex_bad_checksum;
          Alcotest.test_case "missing EOF" `Quick test_ihex_missing_eof;
          Alcotest.test_case "flatten" `Quick test_ihex_flatten;
        ] );
      ( "image",
        [
          Alcotest.test_case "invariants" `Quick test_image_invariants;
          Alcotest.test_case "function_containing" `Quick test_image_function_containing;
          Alcotest.test_case "coverage gaps rejected" `Quick test_image_broken_coverage_rejected;
          Alcotest.test_case "fingerprint" `Quick test_fingerprint_changes;
        ] );
      ( "symtab",
        [
          Alcotest.test_case "blob roundtrip" `Quick test_symtab_blob_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_symtab_bad_magic;
          Alcotest.test_case "preprocessed hex roundtrip" `Quick test_preprocessed_hex_roundtrip;
          Alcotest.test_case "inconsistent metadata refused" `Quick test_symtab_inconsistent_meta;
        ] );
      ( "properties",
        List.map Helpers.qtest
          [ prop_ihex_roundtrip; prop_ihex_encode_matches_oracle; prop_ihex_decode_mutants_match_oracle ] );
    ]
