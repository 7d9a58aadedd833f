exception Parse_error of { line : int; message : string }

let parse_error line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let digits = "0123456789ABCDEF"

let add_hex buf b =
  Buffer.add_char buf digits.[(b lsr 4) land 0xF];
  Buffer.add_char buf digits.[b land 0xF]

(* One record carrying [data.[pos .. pos+len-1]]. *)
let record buf ~addr ~rtype data ~pos ~len =
  let sum = ref (len + ((addr lsr 8) land 0xFF) + (addr land 0xFF) + rtype) in
  Buffer.add_char buf ':';
  add_hex buf len;
  add_hex buf ((addr lsr 8) land 0xFF);
  add_hex buf (addr land 0xFF);
  add_hex buf rtype;
  for i = pos to pos + len - 1 do
    let b = Char.code (String.unsafe_get data i) in
    sum := !sum + b;
    add_hex buf b
  done;
  add_hex buf ((0x100 - (!sum land 0xFF)) land 0xFF);
  Buffer.add_char buf '\n'

let encode segments =
  (* 16 data bytes take 44 characters. *)
  let total = List.fold_left (fun n (_, d) -> n + String.length d) 0 segments in
  let buf = Buffer.create ((3 * total) + 64) in
  let upper = ref 0 in
  let emit_data addr data =
    let n = String.length data in
    let pos = ref 0 in
    while !pos < n do
      let a = addr + !pos in
      let hi = a lsr 16 in
      if hi <> !upper then begin
        upper := hi;
        let word = String.init 2 (fun i -> Char.chr ((hi lsr (8 * (1 - i))) land 0xFF)) in
        record buf ~addr:0 ~rtype:4 word ~pos:0 ~len:2
      end;
      (* Do not let a record cross a 64 KB boundary. *)
      let chunk = min 16 (min (n - !pos) (0x10000 - (a land 0xFFFF))) in
      record buf ~addr:(a land 0xFFFF) ~rtype:0 data ~pos:!pos ~len:chunk;
      pos := !pos + chunk
    done
  in
  List.iter (fun (addr, data) -> emit_data addr data) segments;
  record buf ~addr:0 ~rtype:1 "" ~pos:0 ~len:0;
  Buffer.contents buf

let hex_nibble line c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> parse_error line "bad hex digit %C" c

(* The characters [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Merge chunks (ascending by address, file order among equal addresses)
   into maximal contiguous segments.  Each open segment carries its end
   address, so a chunk is appended in constant time. *)
let merge sorted =
  let close (addr, _, parts) = (addr, String.concat "" (List.rev parts)) in
  let rec go acc ((addr, end_, parts) as cur) = function
    | [] -> List.rev (close cur :: acc)
    | (a, d) :: rest ->
        if a = end_ then go acc (addr, end_ + String.length d, d :: parts) rest
        else go (close cur :: acc) (a, a + String.length d, [ d ]) rest
  in
  match sorted with [] -> [] | (a, d) :: rest -> go [] (a, a + String.length d, [ d ]) rest

let decode text =
  let n = String.length text in
  let upper = ref 0 in
  let chunks = ref [] (* (addr, data), most recent first *) in
  let saw_eof = ref false in
  let bytes = ref (Bytes.create 64) in
  (* Parse the trimmed record [text.[lo .. hi-1]] found on [line]. *)
  let parse_record line lo hi =
    if text.[lo] <> ':' then parse_error line "record does not start with ':'";
    let body = lo + 1 in
    if (hi - body) land 1 <> 0 then parse_error line "odd hex length";
    let nbytes = (hi - body) / 2 in
    if nbytes < 5 then parse_error line "record too short";
    if Bytes.length !bytes < nbytes then bytes := Bytes.create nbytes;
    let b = !bytes in
    let sum = ref 0 in
    for i = 0 to nbytes - 1 do
      (* The low digit is checked first, as the codec always has. *)
      let low = hex_nibble line text.[body + (2 * i) + 1] in
      let v = (hex_nibble line text.[body + (2 * i)] lsl 4) lor low in
      Bytes.unsafe_set b i (Char.unsafe_chr v);
      sum := !sum + v
    done;
    if !sum land 0xFF <> 0 then parse_error line "checksum mismatch";
    let byte i = Char.code (Bytes.get b i) in
    let len = byte 0 in
    if nbytes <> len + 5 then parse_error line "length field mismatch";
    let addr = (byte 1 lsl 8) lor byte 2 in
    match byte 3 with
    | 0 -> chunks := ((!upper lsl 16) lor addr, Bytes.sub_string b 4 len) :: !chunks
    | 1 -> saw_eof := true
    | 4 ->
        if len <> 2 then parse_error line "type-04 record must have 2 data bytes";
        upper := (byte 4 lsl 8) lor byte 5
    | (2 | 3 | 5) as rtype -> parse_error line "unsupported record type %d" rtype
    | rtype -> parse_error line "unknown record type %d" rtype
  in
  (* Lines are numbered as [String.split_on_char '\n'] would split them;
     everything after the EOF record is ignored. *)
  let line = ref 0 and pos = ref 0 in
  while (not !saw_eof) && !pos <= n do
    incr line;
    let stop = match String.index_from_opt text !pos '\n' with Some j -> j | None -> n in
    let lo = ref !pos and hi = ref stop in
    while !lo < !hi && is_space text.[!lo] do incr lo done;
    while !hi > !lo && is_space text.[!hi - 1] do decr hi done;
    if !lo < !hi then parse_record !line !lo !hi;
    pos := stop + 1
  done;
  if not !saw_eof then parse_error !line "missing end-of-file record";
  merge (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !chunks))

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
