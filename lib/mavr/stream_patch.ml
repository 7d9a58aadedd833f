module Isa = Mavr_avr.Isa
module Decode = Mavr_avr.Decode
module Opcode = Mavr_avr.Opcode
module Image = Mavr_obj.Image

exception Unpatchable of string

let unpatchable fmt = Printf.ksprintf (fun m -> raise (Unpatchable m)) fmt

type stats = { peak_working_set : int; bytes_read : int; pages_emitted : int }

(* A code address as (function index, offset); index -1 is the
   interrupt-vector block, which never moves. *)
type site = { block : int; off : int; call : bool; target : int; target_off : int }
type funptr = { loc : int; fn : int; fn_off : int }

type plan = { image : Image.t; sites : site array; funptrs : funptr array; ledger : stats }

let ledger p = p.ledger

let plan (img : Image.t) ~page_bytes =
  let code = img.code in
  let in_text addr = addr >= img.text_start && addr < img.text_end in
  let locate addr =
    match Image.function_index img addr with
    | Some i -> (i, addr - img.symbol_array.(i).addr)
    | None -> unpatchable "target 0x%x in no function" addr
  in
  (* The streamer's ledger: every byte is read and emitted once, and the
     transient buffer is one block or one data chunk at a time. *)
  let bytes_read = ref 0 and transient = ref 0 in
  let read len =
    bytes_read := !bytes_read + len;
    transient := max !transient len
  in
  let sites = ref [] and funptrs = ref [] in
  (* One executable block, decoded on its own so that a two-word
     instruction cut by the block's end decodes as data. *)
  let scan_block ~block ~lo ~hi =
    read (hi - lo);
    let bytes = String.sub code lo (hi - lo) in
    let pos = ref 0 in
    while !pos + 1 < hi - lo do
      let insn, size = Decode.decode_bytes bytes !pos in
      let addr = lo + !pos in
      let leaves k = addr + 2 + (k * 2) < lo || addr + 2 + (k * 2) >= hi in
      (match insn with
      | (Isa.Call a | Isa.Jmp a) when in_text (a * 2) ->
          let target, target_off = locate (a * 2) in
          let call = match insn with Isa.Call _ -> true | _ -> false in
          sites := { block; off = !pos; call; target; target_off } :: !sites
      | (Isa.Rcall k | Isa.Rjmp k) when leaves k ->
          unpatchable "relative transfer at 0x%x leaves its block (relaxed image?)" addr
      | (Isa.Brbs (_, k) | Isa.Brbc (_, k)) when leaves k ->
          unpatchable "branch at 0x%x leaves its block" addr
      | _ -> ());
      pos := !pos + size
    done
  in
  (* A data region, in the streamer's page-sized chunks: a pointer must
     lie within one chunk. *)
  let scan_data ~lo ~hi =
    let pos = ref lo in
    while !pos < hi do
      let len = min page_bytes (hi - !pos) in
      read len;
      List.iter
        (fun loc ->
          if loc >= !pos && loc + 1 < !pos + len then begin
            let w = Char.code code.[loc] lor (Char.code code.[loc + 1] lsl 8) in
            if in_text (w * 2) then begin
              let fn, fn_off = locate (w * 2) in
              funptrs := { loc; fn; fn_off } :: !funptrs
            end
          end
          else if loc = !pos + len - 1 then
            unpatchable "function pointer at 0x%x straddles a chunk" loc)
        img.funptr_locs;
      pos := !pos + len
    done
  in
  scan_block ~block:(-1) ~lo:0 ~hi:img.exec_low_end;
  scan_data ~lo:img.exec_low_end ~hi:img.text_start;
  Array.iteri
    (fun i (f : Image.symbol) -> scan_block ~block:i ~lo:f.addr ~hi:(f.addr + f.size))
    img.symbol_array;
  scan_data ~lo:img.text_end ~hi:(Image.size img);
  let table_bytes = (4 * Image.function_count img * 2) + (4 * List.length img.funptr_locs) in
  {
    image = img;
    sites = Array.of_list (List.rev !sites);
    funptrs = Array.of_list (List.rev !funptrs);
    ledger =
      {
        peak_working_set = table_bytes + page_bytes + !transient;
        bytes_read = !bytes_read;
        pages_emitted = (!bytes_read + page_bytes - 1) / page_bytes;
      };
  }

let layout p (shuffle : Shuffle.t) =
  let img = p.image in
  let new_addr = shuffle.Shuffle.new_addr in
  if Array.length new_addr <> Image.function_count img then
    invalid_arg "Stream_patch.layout: layout of another image";
  let code = Bytes.of_string img.code in
  Array.iteri
    (fun i (f : Image.symbol) -> Bytes.blit_string img.code f.addr code new_addr.(i) f.size)
    img.symbol_array;
  Array.iter
    (fun s ->
      let w = (new_addr.(s.target) + s.target_off) / 2 in
      let at = if s.block < 0 then s.off else new_addr.(s.block) + s.off in
      Bytes.blit_string (Opcode.encode_bytes (if s.call then Isa.Call w else Isa.Jmp w)) 0 code at 4)
    p.sites;
  Array.iter
    (fun f ->
      let target = new_addr.(f.fn) + f.fn_off in
      let w = target / 2 in
      if w > 0xFFFF then
        unpatchable "function pointer at 0x%x remaps to 0x%x, beyond icall's 16-bit reach" f.loc
          target;
      Bytes.set code f.loc (Char.chr (w land 0xFF));
      Bytes.set code (f.loc + 1) (Char.chr (w lsr 8)))
    p.funptrs;
  let symbols =
    List.sort
      (fun (a : Image.symbol) b -> compare a.addr b.addr)
      (List.mapi (fun i (s : Image.symbol) -> { s with addr = new_addr.(i) }) img.symbols)
  in
  { img with code = Bytes.unsafe_to_string code; symbols; symbol_array = Array.of_list symbols }

let check_randomizable img =
  let page_bytes = Mavr_avr.Device.atmega2560.flash_page_bytes in
  match layout (plan img ~page_bytes) (Shuffle.identity img) with
  | _ -> Ok ()
  | exception Unpatchable m -> Error m
