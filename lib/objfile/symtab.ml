let meta_base = 0x0080_0000

type meta = {
  exec_low_end : int;
  text_start : int;
  text_end : int;
  func_addrs : int list;
  funptr_locs : int list;
}

let magic = "MAVR1"

let meta_of_image (img : Image.t) =
  {
    exec_low_end = img.exec_low_end;
    text_start = img.text_start;
    text_end = img.text_end;
    func_addrs = List.map (fun (s : Image.symbol) -> s.addr) img.symbols;
    funptr_locs = img.funptr_locs;
  }

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let to_blob m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  add_u32 buf m.exec_low_end;
  add_u32 buf m.text_start;
  add_u32 buf m.text_end;
  add_u16 buf (List.length m.func_addrs);
  List.iter (add_u32 buf) m.func_addrs;
  add_u16 buf (List.length m.funptr_locs);
  List.iter (add_u32 buf) m.funptr_locs;
  Buffer.contents buf

let of_blob s =
  let fail m = invalid_arg ("Symtab.of_blob: " ^ m) in
  let len = String.length s in
  let pos = ref 0 in
  let need n = if !pos + n > len then fail "truncated" in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u16 () = let lo = u8 () in lo lor (u8 () lsl 8) in
  let u32 () = let lo = u16 () in lo lor (u16 () lsl 16) in
  need (String.length magic);
  if String.sub s 0 (String.length magic) <> magic then fail "bad magic";
  pos := String.length magic;
  let exec_low_end = u32 () in
  let text_start = u32 () in
  let text_end = u32 () in
  let nfun = u16 () in
  let func_addrs = List.init nfun (fun _ -> u32 ()) in
  let nptr = u16 () in
  let funptr_locs = List.init nptr (fun _ -> u32 ()) in
  { exec_low_end; text_start; text_end; func_addrs; funptr_locs }

let to_hex img = Ihex.encode [ (meta_base, to_blob (meta_of_image img)); (0, img.code) ]

let of_hex text =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Symtab.of_hex: " ^ m)) fmt in
  let segments = Ihex.decode text in
  let blob =
    match List.find_opt (fun (a, _) -> a = meta_base) segments with
    | Some (_, b) -> b
    | None -> fail "no MAVR metadata segment"
  in
  let m = of_blob blob in
  let code = Ihex.flatten ~limit:meta_base segments in
  let size = String.length code in
  if m.exec_low_end > m.text_start then
    fail "exec_low_end 0x%x above text_start 0x%x" m.exec_low_end m.text_start;
  if m.text_start > m.text_end || m.text_end > size then
    fail "text_start/text_end [0x%x, 0x%x) outside the 0x%x-byte code" m.text_start m.text_end size;
  List.iter
    (fun loc -> if loc + 1 >= size then fail "funptr_locs: 0x%x past the 0x%x-byte code" loc size)
    m.funptr_locs;
  let rec symbols = function
    | [] -> []
    | [ a ] -> [ { Image.name = Printf.sprintf "f_%05x" a; addr = a; size = m.text_end - a; kind = Image.Func } ]
    | a :: (b :: _ as rest) ->
        { Image.name = Printf.sprintf "f_%05x" a; addr = a; size = b - a; kind = Image.Func }
        :: symbols rest
  in
  let symbols = symbols m.func_addrs in
  let img =
    {
      Image.code;
      exec_low_end = m.exec_low_end;
      text_start = m.text_start;
      text_end = m.text_end;
      symbols;
      symbol_array = Array.of_list symbols;
      funptr_locs = m.funptr_locs;
    }
  in
  match Image.validate img with Ok () -> img | Error e -> fail "func_addrs: %s" e

