let magic = 0xFE

type t = { seq : int; sysid : int; compid : int; msgid : int; payload : string }

let header_len = 6
let crc_len = 2

let check_byte name v = if v < 0 || v > 0xFF then invalid_arg ("Frame: " ^ name ^ " out of byte range")

let encode_with ~declared_len t =
  check_byte "declared length" declared_len;
  check_byte "seq" t.seq;
  check_byte "sysid" t.sysid;
  check_byte "compid" t.compid;
  check_byte "msgid" t.msgid;
  if String.length t.payload > 255 then invalid_arg "Frame: payload exceeds 255 bytes";
  let buf = Buffer.create (header_len + String.length t.payload + crc_len) in
  Buffer.add_char buf (Char.chr magic);
  List.iter
    (fun v -> Buffer.add_char buf (Char.chr v))
    [ declared_len; t.seq; t.sysid; t.compid; t.msgid ];
  Buffer.add_string buf t.payload;
  let body = Buffer.contents buf in
  let crc =
    Crc.accumulate
      (Crc.accumulate_string Crc.init (String.sub body 1 (String.length body - 1)))
      (Messages.crc_extra_of t.msgid)
  in
  let v = Crc.value crc in
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.contents buf

let encode t = encode_with ~declared_len:(String.length t.payload) t

let encode_raw ~declared_len t = encode_with ~declared_len t

type error = Bad_magic | Bad_crc of { got : int; expected : int } | Truncated

let pp_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "bad start magic"
  | Bad_crc { got; expected } -> Format.fprintf fmt "bad CRC: got 0x%04x, expected 0x%04x" got expected
  | Truncated -> Format.pp_print_string fmt "truncated frame"

let decode ?(pos = 0) s =
  let n = String.length s - pos in
  if pos < 0 || pos > String.length s then invalid_arg "Frame.decode: pos out of range";
  if n < 1 then Error Truncated
  else if Char.code s.[pos] <> magic then Error Bad_magic
  else if n < header_len then Error Truncated
  else begin
    let len = Char.code s.[pos + 1] in
    let total = header_len + len + crc_len in
    if n < total then Error Truncated
    else begin
      let seq = Char.code s.[pos + 2] in
      let sysid = Char.code s.[pos + 3] in
      let compid = Char.code s.[pos + 4] in
      let msgid = Char.code s.[pos + 5] in
      let payload = String.sub s (pos + header_len) len in
      let crc =
        Crc.accumulate
          (Crc.accumulate_string Crc.init (String.sub s (pos + 1) (header_len - 1 + len)))
          (Messages.crc_extra_of msgid)
      in
      let expected = Crc.value crc in
      let got = Char.code s.[pos + total - 2] lor (Char.code s.[pos + total - 1] lsl 8) in
      if got <> expected then Error (Bad_crc { got; expected })
      else Ok ({ seq; sysid; compid; msgid; payload }, total)
    end
  end

let wire_length t = header_len + String.length t.payload + crc_len
