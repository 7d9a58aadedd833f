(* The byte-streaming relocator the master runs (§VI-B3), kept as the
   oracle for Stream_patch's plan and layout.

   Input is a random-access byte oracle (the external flash chip) plus
   the preprocessed metadata; output is emitted page by page to the
   application processor's bootloader, one byte at a time.  Every block
   is decoded again on every run.  The working set is the function table
   (old and new starts), the function-pointer location list, one
   function block at a time and one flash page buffer; its peak is
   measured and returned.

   [run ~code_size ~read ~meta ~order ~page_bytes ~emit_page]: [read
   ~pos ~len] serves bytes of the original image; the function placed
   k-th in the new layout is the [order.(k)]-th of [meta.func_addrs].
   Pages are emitted in ascending address order, the last one padded
   with 0xFF.  Raises [Stream_patch.Unpatchable] on cross-block relative
   transfers, targets inside the text section but in no function, and
   function pointers that straddle a chunk or remap beyond 16-bit word
   reach; [Invalid_argument] if [order] is not a permutation. *)

module Isa = Mavr_avr.Isa
module Decode = Mavr_avr.Decode
module Opcode = Mavr_avr.Opcode
module Image = Mavr_obj.Image
module Symtab = Mavr_obj.Symtab
module Stream_patch = Mavr_core.Stream_patch
module Shuffle = Mavr_core.Shuffle

let unpatchable fmt = Printf.ksprintf (fun m -> raise (Stream_patch.Unpatchable m)) fmt

let run ~code_size ~read ~(meta : Symtab.meta) ~order ~page_bytes ~emit_page =
  let starts = Array.of_list meta.func_addrs in
  let n = Array.length starts in
  if Array.length order <> n then invalid_arg "Stream_oracle.run: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then invalid_arg "Stream_oracle.run: not a permutation";
      seen.(i) <- true)
    order;
  let size_of i = (if i + 1 < n then starts.(i + 1) else meta.text_end) - starts.(i) in
  (* Assign new start addresses by walking the permutation. *)
  let new_start = Array.make n 0 in
  let cursor = ref meta.text_start in
  Array.iter
    (fun i ->
      new_start.(i) <- !cursor;
      cursor := !cursor + size_of i)
    order;
  assert (!cursor = meta.text_end);
  let funptrs = Array.of_list meta.funptr_locs in
  (* ---- working-set ledger ---- *)
  let table_bytes = (4 * n * 2) + (4 * Array.length funptrs) in
  let peak = ref 0 in
  let note_ws transient = peak := max !peak (table_bytes + page_bytes + transient) in
  note_ws 0;
  let bytes_read = ref 0 in
  let read ~pos ~len =
    bytes_read := !bytes_read + len;
    read ~pos ~len
  in
  (* ---- address remapping (binary search over old starts) ---- *)
  let in_text addr = addr >= meta.text_start && addr < meta.text_end in
  let map_addr addr =
    if not (in_text addr) then addr
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if starts.(mid) <= addr then lo := mid else hi := mid - 1
      done;
      let i = !lo in
      if addr >= starts.(i) + size_of i then unpatchable "target 0x%x in no function" addr;
      new_start.(i) + (addr - starts.(i))
    end
  in
  (* ---- page-buffered emission ---- *)
  let page = Bytes.make page_bytes '\xff' in
  let page_fill = ref 0 in
  let page_addr = ref 0 in
  let pages = ref 0 in
  let flush () =
    if !page_fill > 0 then begin
      emit_page ~page_addr:!page_addr (Bytes.to_string page);
      incr pages;
      Bytes.fill page 0 page_bytes '\xff';
      page_addr := !page_addr + page_bytes;
      page_fill := 0
    end
  in
  let out_byte b =
    Bytes.set page !page_fill (Char.chr (b land 0xFF));
    incr page_fill;
    if !page_fill = page_bytes then flush ()
  in
  let out_string s = String.iter (fun c -> out_byte (Char.code c)) s in
  (* ---- one executable block: decode, rewrite, emit ---- *)
  let patch_block ~old_base ~block ~block_lo ~block_hi =
    note_ws (String.length block);
    let len = String.length block in
    let pos = ref 0 in
    while !pos + 1 < len do
      let insn, size = Decode.decode_bytes block !pos in
      let old_addr = old_base + !pos in
      (match insn with
      | Isa.Call a | Isa.Jmp a when in_text (a * 2) ->
          let target' = map_addr (a * 2) in
          let insn' =
            match insn with Isa.Call _ -> Isa.Call (target' / 2) | _ -> Isa.Jmp (target' / 2)
          in
          out_string (Opcode.encode_bytes insn')
      | Isa.Rcall k | Isa.Rjmp k ->
          let target = old_addr + 2 + (k * 2) in
          if target < block_lo || target >= block_hi then
            unpatchable "relative transfer at 0x%x leaves its block (relaxed image?)" old_addr;
          out_string (String.sub block !pos size)
      | Isa.Brbs (_, k) | Isa.Brbc (_, k) ->
          let target = old_addr + 2 + (k * 2) in
          if target < block_lo || target >= block_hi then
            unpatchable "branch at 0x%x leaves its block" old_addr;
          out_string (String.sub block !pos size)
      | _ -> out_string (String.sub block !pos size));
      pos := !pos + size
    done;
    (* A trailing odd byte (possible only in data-ish blocks). *)
    if !pos < len then out_byte (Char.code block.[!pos])
  in
  (* ---- non-executable region: copy with function-pointer fixups ---- *)
  let copy_data_region ~lo ~hi =
    let chunk = page_bytes in
    let pos = ref lo in
    while !pos < hi do
      let len = min chunk (hi - !pos) in
      let s = read ~pos:!pos ~len in
      note_ws len;
      let b = Bytes.of_string s in
      Array.iter
        (fun loc ->
          if loc >= !pos && loc + 1 < !pos + len then begin
            let off = loc - !pos in
            let w = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8) in
            if in_text (w * 2) then begin
              let target' = map_addr (w * 2) in
              let w' = target' / 2 in
              if w' > 0xFFFF then
                unpatchable "function pointer at 0x%x remaps to 0x%x, beyond icall's 16-bit reach"
                  loc target';
              Bytes.set b off (Char.chr (w' land 0xFF));
              Bytes.set b (off + 1) (Char.chr (w' lsr 8))
            end
          end
          else if loc = !pos + len - 1 then
            (* A pointer straddling a chunk boundary would need carry-over
               state; the preprocessed layout keeps pointers aligned, so
               treat this as a hard error rather than corrupt silently. *)
            unpatchable "function pointer at 0x%x straddles a chunk" loc)
        funptrs;
      out_string (Bytes.to_string b);
      pos := !pos + len
    done
  in
  (* 1. interrupt-vector code (stays at address 0, targets remapped) *)
  let vec = read ~pos:0 ~len:meta.exec_low_end in
  patch_block ~old_base:0 ~block:vec ~block_lo:0 ~block_hi:meta.exec_low_end;
  (* 2. low rodata (vtable initializer etc.) *)
  copy_data_region ~lo:meta.exec_low_end ~hi:meta.text_start;
  (* 3. the text section, streamed function by function in new order *)
  Array.iter
    (fun i ->
      let block = read ~pos:starts.(i) ~len:(size_of i) in
      patch_block ~old_base:starts.(i) ~block ~block_lo:starts.(i)
        ~block_hi:(starts.(i) + size_of i))
    order;
  (* 4. everything after the text section *)
  copy_data_region ~lo:meta.text_end ~hi:code_size;
  flush ();
  { Stream_patch.peak_working_set = !peak; bytes_read = !bytes_read; pages_emitted = !pages }

(* [run] over an in-memory image (standing in for the external chip) in
   the layout of [shuffle], with the emitted pages reassembled and the
   symbols recomputed. *)
let apply (img : Image.t) (shuffle : Shuffle.t) ~page_bytes =
  let buf = Buffer.create (Image.size img + page_bytes) in
  let stats =
    run ~code_size:(Image.size img)
      ~read:(fun ~pos ~len -> String.sub img.code pos len)
      ~meta:(Symtab.meta_of_image img) ~order:shuffle.Shuffle.order ~page_bytes
      ~emit_page:(fun ~page_addr:_ page -> Buffer.add_string buf page)
  in
  (* Trim the final page padding back to the image size. *)
  let code = Buffer.sub buf 0 (Image.size img) in
  let symbols =
    List.sort
      (fun (a : Image.symbol) b -> compare a.addr b.addr)
      (List.mapi
         (fun i (s : Image.symbol) -> { s with addr = shuffle.Shuffle.new_addr.(i) })
         img.symbols)
  in
  ({ img with code; symbols; symbol_array = Array.of_list symbols }, stats)

(* ---- comparing the plan with the oracle ---- *)

(* What a relocation produced: the image and its ledger, or the class of
   its refusal. *)
let outcome f =
  match f () with
  | img, (st : Stream_patch.stats) -> Ok (img, (st.pages_emitted, st.bytes_read, st.peak_working_set))
  | exception Stream_patch.Unpatchable m ->
      let has sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
        go 0
      in
      Error
        (if has "leaves its block" then "relaxed branch"
         else if has "straddles" then "straddling pointer"
         else if has "icall" then "pointer beyond icall reach"
         else m)

let planned img shuffle ~page_bytes () =
  let p = Stream_patch.plan img ~page_bytes in
  (Stream_patch.layout p shuffle, Stream_patch.ledger p)

(* Plan + layout and the oracle give the same image, symbols and ledger,
   or refuse with the same class of refusal. *)
let agrees img shuffle ~page_bytes =
  outcome (planned img shuffle ~page_bytes) = outcome (fun () -> apply img shuffle ~page_bytes)
