module Image = Mavr_obj.Image

(* The flash offsets (within the non-executable low-flash rodata region,
   [exec_low_end .. text_start)) holding 16-bit words that decode as the
   word address of some function start.  A superset-of-truth heuristic:
   every real pointer is found; coincidental data may be too. *)
let scan_function_pointers (img : Image.t) =
  let starts = Hashtbl.create 512 in
  List.iter
    (fun (s : Image.symbol) -> Hashtbl.replace starts (s.addr / 2) ())
    img.symbols;
  (* A pointer may also route through a low-region trampoline (the
     >128 KB avr-gcc idiom): a fixed [jmp] whose target is a function
     start. *)
  let is_trampoline w =
    let addr = 2 * w in
    (* Trampolines live between the vector table and the data region;
       vector slots also decode to [jmp function], so exclude them. *)
    addr >= Mavr_avr.Device.Vector.count * 4
    && addr + 4 <= img.exec_low_end
    &&
    match Mavr_avr.Decode.decode_bytes img.code addr with
    | Mavr_avr.Isa.Jmp a, _ -> Hashtbl.mem starts a
    | _ -> false
  in
  let hits = ref [] in
  (* The data region between the vector code and the text section: where
     the vtable initializer (and other rodata) lives. *)
  let lo = img.exec_low_end and hi = img.text_start in
  let pos = ref lo in
  while !pos + 1 < hi do
    let w = Char.code img.code.[!pos] lor (Char.code img.code.[!pos + 1] lsl 8) in
    if Hashtbl.mem starts w || is_trampoline w then hits := !pos :: !hits;
    pos := !pos + 2
  done;
  List.rev !hits

let verify img =
  let scanned = scan_function_pointers img in
  let missing = List.filter (fun loc -> not (List.mem loc scanned)) img.Image.funptr_locs in
  match missing with
  | [] -> Ok ()
  | loc :: _ ->
      Error
        (Printf.sprintf "recorded function pointer at 0x%x not discovered by the scan (of %d)"
           loc (List.length missing))

let false_positive_count img =
  let scanned = scan_function_pointers img in
  List.length (List.filter (fun loc -> not (List.mem loc img.Image.funptr_locs)) scanned)
