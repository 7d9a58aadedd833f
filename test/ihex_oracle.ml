(* The Intel HEX codec as it stood before the linear-time rewrite of
   [Mavr_obj.Ihex], kept unchanged as a differential oracle: the new codec
   must encode byte for byte the same text, and decode every text, valid or
   not, to the same segments or the same [Parse_error].  Its merge is
   quadratic in the record count, so only feed it small inputs. *)

exception Parse_error of { line : int; message : string }

let parse_error line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let record buf ~addr ~rtype data =
  let len = String.length data in
  let sum = ref (len + ((addr lsr 8) land 0xFF) + (addr land 0xFF) + rtype) in
  Buffer.add_char buf ':';
  Buffer.add_string buf (Printf.sprintf "%02X%04X%02X" len (addr land 0xFFFF) rtype);
  String.iter
    (fun c ->
      sum := !sum + Char.code c;
      Buffer.add_string buf (Printf.sprintf "%02X" (Char.code c)))
    data;
  Buffer.add_string buf (Printf.sprintf "%02X\n" ((0x100 - (!sum land 0xFF)) land 0xFF))

let encode segments =
  let buf = Buffer.create 4096 in
  let upper = ref 0 in
  let emit_data addr data =
    let n = String.length data in
    let pos = ref 0 in
    while !pos < n do
      let a = addr + !pos in
      let hi = a lsr 16 in
      if hi <> !upper then begin
        upper := hi;
        record buf ~addr:0 ~rtype:4 (Printf.sprintf "%c%c" (Char.chr ((hi lsr 8) land 0xFF)) (Char.chr (hi land 0xFF)))
      end;
      (* Do not let a record cross a 64 KB boundary. *)
      let chunk = min 16 (min (n - !pos) (0x10000 - (a land 0xFFFF))) in
      record buf ~addr:(a land 0xFFFF) ~rtype:0 (String.sub data !pos chunk);
      pos := !pos + chunk
    done
  in
  List.iter (fun (addr, data) -> emit_data addr data) segments;
  record buf ~addr:0 ~rtype:1 "";
  Buffer.contents buf

let hex_nibble line c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> parse_error line "bad hex digit %C" c

let decode text =
  let lines = String.split_on_char '\n' text in
  let upper = ref 0 in
  let chunks = ref [] (* (addr, data) in file order *) in
  let saw_eof = ref false in
  List.iteri
    (fun lineno raw ->
      let line = lineno + 1 in
      let raw = String.trim raw in
      if raw <> "" && not !saw_eof then begin
        if raw.[0] <> ':' then parse_error line "record does not start with ':'";
        let body = String.sub raw 1 (String.length raw - 1) in
        if String.length body land 1 <> 0 then parse_error line "odd hex length";
        let nbytes = String.length body / 2 in
        if nbytes < 5 then parse_error line "record too short";
        let byte i = (hex_nibble line body.[2 * i] lsl 4) lor hex_nibble line body.[(2 * i) + 1] in
        let sum = ref 0 in
        for i = 0 to nbytes - 1 do
          sum := (!sum + byte i) land 0xFF
        done;
        if !sum <> 0 then parse_error line "checksum mismatch";
        let len = byte 0 in
        if nbytes <> len + 5 then parse_error line "length field mismatch";
        let addr = (byte 1 lsl 8) lor byte 2 in
        let rtype = byte 3 in
        match rtype with
        | 0 ->
            let data = String.init len (fun i -> Char.chr (byte (4 + i))) in
            chunks := ((!upper lsl 16) lor addr, data) :: !chunks
        | 1 -> saw_eof := true
        | 4 ->
            if len <> 2 then parse_error line "type-04 record must have 2 data bytes";
            upper := (byte 4 lsl 8) lor byte 5
        | 2 | 3 | 5 -> parse_error line "unsupported record type %d" rtype
        | _ -> parse_error line "unknown record type %d" rtype
      end)
    lines;
  if not !saw_eof then parse_error (List.length lines) "missing end-of-file record";
  (* Merge contiguous chunks into maximal segments. *)
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !chunks) in
  let rec merge acc = function
    | [] -> List.rev acc
    | (addr, data) :: rest -> (
        match acc with
        | (prev_addr, parts) :: acc_rest when prev_addr + List.fold_left (fun n p -> n + String.length p) 0 parts = addr ->
            merge ((prev_addr, data :: parts) :: acc_rest) rest
        | _ -> merge ((addr, [ data ]) :: acc) rest)
  in
  let merged = merge [] sorted in
  List.map (fun (addr, parts) -> (addr, String.concat "" (List.rev parts))) merged

let flatten ?limit segments =
  let visible = match limit with
    | None -> segments
    | Some l -> List.filter (fun (a, _) -> a < l) segments
  in
  let extent =
    List.fold_left (fun m (a, d) -> max m (a + String.length d)) 0 visible
  in
  let extent = match limit with Some l -> min extent l | None -> extent in
  let out = Bytes.make extent '\xff' in
  List.iter
    (fun (a, d) ->
      let len = min (String.length d) (extent - a) in
      if len > 0 then Bytes.blit_string d 0 out a len)
    visible;
  Bytes.to_string out
