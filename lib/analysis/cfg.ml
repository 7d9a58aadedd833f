module Isa = Mavr_avr.Isa
module Decode = Mavr_avr.Decode
module Device = Mavr_avr.Device
module Image = Mavr_obj.Image
module Json = Mavr_telemetry.Json

type provenance = Vector of int | Symbol of string | Funptr of int

type t = {
  image : Image.t;
  reachable : (int, Isa.t * int) Hashtbl.t;
  sweep : (int, Isa.t * int) Hashtbl.t;
  entries : (int * provenance) list;
  leaders : (int, unit) Hashtbl.t;
}

let image t = t.image
let entries t = t.entries

let exec_regions (img : Image.t) = [ (0, img.exec_low_end); (img.text_start, img.text_end) ]

let in_exec img addr =
  addr land 1 = 0 && List.exists (fun (s, e) -> addr >= s && addr < e) (exec_regions img)

(* A stored function pointer is a 16-bit little-endian *word* address. *)
let funptr_target (img : Image.t) loc =
  if loc >= 0 && loc + 1 < String.length img.code then
    Some (2 * (Char.code img.code.[loc] lor (Char.code img.code.[loc + 1] lsl 8)))
  else None

let icall_targets img =
  List.sort_uniq compare
    (List.filter_map
       (fun loc ->
         match funptr_target img loc with Some t when in_exec img t -> Some t | _ -> None)
       img.Image.funptr_locs)

let successors ~code addr insn size =
  match insn with
  | Isa.Ret | Isa.Reti | Isa.Ijmp | Isa.Break | Isa.Data _ -> []
  | Isa.Jmp a -> [ 2 * a ]
  | Isa.Rjmp off -> [ addr + size + (2 * off) ]
  | Isa.Call a -> [ 2 * a; addr + size ]
  | Isa.Rcall off -> [ addr + size + (2 * off); addr + size ]
  | Isa.Brbs (_, off) | Isa.Brbc (_, off) -> [ addr + size + (2 * off); addr + size ]
  | Isa.Cpse _ | Isa.Sbic _ | Isa.Sbis _ | Isa.Sbrc _ | Isa.Sbrs _ ->
      (* The skip distance depends on the size of the next instruction,
         exactly as the CPU computes it. *)
      let _, nsize = Decode.decode_bytes code (addr + size) in
      [ addr + size; addr + size + nsize ]
  | _ -> [ addr + size ]

(* Non-fallthrough successors start basic blocks. *)
let branch_targets addr insn size =
  match insn with
  | Isa.Jmp a -> [ 2 * a ]
  | Isa.Rjmp off -> [ addr + size + (2 * off) ]
  | Isa.Call a -> [ 2 * a ]
  | Isa.Rcall off -> [ addr + size + (2 * off) ]
  | Isa.Brbs (_, off) | Isa.Brbc (_, off) -> [ addr + size + (2 * off) ]
  | _ -> []

let seed_list (img : Image.t) =
  let vectors =
    List.init Device.Vector.count (fun n -> (Device.Vector.byte_addr n, Vector n))
  in
  let symbols = List.map (fun (s : Image.symbol) -> (s.addr, Symbol s.name)) img.symbols in
  let funptrs =
    List.filter_map
      (fun loc -> Option.map (fun t -> (t, Funptr loc)) (funptr_target img loc))
      img.funptr_locs
  in
  List.sort compare (vectors @ symbols @ funptrs)

let recover (img : Image.t) =
  let code = img.Image.code in
  let reachable = Hashtbl.create 4096 in
  let leaders = Hashtbl.create 512 in
  let entries = List.filter (fun (a, _) -> in_exec img a) (seed_list img) in
  let work = Queue.create () in
  List.iter
    (fun (a, _) ->
      Hashtbl.replace leaders a ();
      Queue.add a work)
    entries;
  while not (Queue.is_empty work) do
    let addr = Queue.pop work in
    if (not (Hashtbl.mem reachable addr)) && in_exec img addr then begin
      let insn, size = Decode.decode_bytes code addr in
      Hashtbl.replace reachable addr (insn, size);
      List.iter (fun t -> Hashtbl.replace leaders t ()) (branch_targets addr insn size);
      List.iter
        (fun t -> if in_exec img t && not (Hashtbl.mem reachable t) then Queue.add t work)
        (successors ~code addr insn size)
    end
  done;
  (* Linear-sweep fallback over the gaps descent never reached. *)
  let sweep = Hashtbl.create 256 in
  let covered = Bytes.make (String.length code) '\x00' in
  Hashtbl.iter
    (fun addr (_, size) ->
      for b = addr to min (addr + size - 1) (Bytes.length covered - 1) do
        Bytes.set covered b '\x01'
      done)
    reachable;
  List.iter
    (fun (rs, re) ->
      let pos = ref rs in
      while !pos < re do
        if Bytes.get covered !pos = '\x00' then begin
          (* A maximal unreached gap, word-aligned by construction of the
             regions and instruction sizes. *)
          let gap_start = !pos + (!pos land 1) in
          let gap_end = ref gap_start in
          while !gap_end < re && Bytes.get covered !gap_end = '\x00' do
            incr gap_end
          done;
          Decode.fold_program code ~pos:gap_start ~len:(!gap_end - gap_start)
            (fun () a i ->
              let _, size = Decode.decode_bytes code a in
              Hashtbl.replace sweep a (i, size))
            ();
          pos := !gap_end
        end
        else incr pos
      done)
    (exec_regions img);
  { image = img; reachable; sweep; entries; leaders }

let insn_at t addr = Hashtbl.find_opt t.reachable addr
let is_reachable t addr = Hashtbl.mem t.reachable addr

let sorted_reachable t =
  let addrs = Hashtbl.fold (fun a _ acc -> a :: acc) t.reachable [] in
  List.sort compare addrs

let reachable_addrs = sorted_reachable

let block_starts t =
  let starts = Hashtbl.fold (fun a _ acc -> if Hashtbl.mem t.reachable a then a :: acc else acc) t.leaders [] in
  List.sort compare starts

let iter_reachable t f =
  List.iter
    (fun a ->
      let insn, size = Hashtbl.find t.reachable a in
      f a insn size)
    (sorted_reachable t)

type stats = {
  entries : int;
  reachable_insns : int;
  reachable_bytes : int;
  exec_bytes : int;
  coverage_pct : float;
  blocks : int;
  sweep_insns : int;
  sweep_bytes : int;
}

let stats t =
  let code = t.image.Image.code in
  let covered = Bytes.make (String.length code) '\x00' in
  Hashtbl.iter
    (fun addr (_, size) ->
      for b = addr to min (addr + size - 1) (Bytes.length covered - 1) do
        Bytes.set covered b '\x01'
      done)
    t.reachable;
  let reachable_bytes = ref 0 and exec_bytes = ref 0 in
  List.iter
    (fun (rs, re) ->
      exec_bytes := !exec_bytes + (re - rs);
      for b = rs to re - 1 do
        if Bytes.get covered b = '\x01' then incr reachable_bytes
      done)
    (exec_regions t.image);
  (* A block starts at a leader, or wherever the previous reachable
     instruction does not fall through to the address. *)
  let blocks = ref 0 in
  let prev : (int * Isa.t * int) option ref = ref None in
  List.iter
    (fun a ->
      let insn, size = Hashtbl.find t.reachable a in
      let flows_in =
        match !prev with
        | Some (pa, pi, ps) when pa + ps = a ->
            List.mem a (successors ~code pa pi ps)
        | _ -> false
      in
      if Hashtbl.mem t.leaders a || not flows_in then incr blocks;
      prev := Some (a, insn, size))
    (sorted_reachable t);
  let sweep_insns = Hashtbl.length t.sweep in
  let sweep_bytes = Hashtbl.fold (fun _ (_, size) acc -> acc + size) t.sweep 0 in
  {
    entries = List.length t.entries;
    reachable_insns = Hashtbl.length t.reachable;
    reachable_bytes = !reachable_bytes;
    exec_bytes = !exec_bytes;
    coverage_pct =
      (if !exec_bytes = 0 then 0.0
       else 100.0 *. float_of_int !reachable_bytes /. float_of_int !exec_bytes);
    blocks = !blocks;
    sweep_insns;
    sweep_bytes;
  }

let stats_to_json s =
  Json.Obj
    [
      ("entries", Json.Int s.entries);
      ("reachable_insns", Json.Int s.reachable_insns);
      ("reachable_bytes", Json.Int s.reachable_bytes);
      ("exec_bytes", Json.Int s.exec_bytes);
      ("coverage_pct", Json.Float s.coverage_pct);
      ("blocks", Json.Int s.blocks);
      ("sweep_insns", Json.Int s.sweep_insns);
      ("sweep_bytes", Json.Int s.sweep_bytes);
    ]

let pp_stats fmt s =
  Format.fprintf fmt
    "cfg: %d entries, %d insns / %d blocks, %d/%d bytes reachable (%.1f%%), sweep fallback %d insns (%d B)"
    s.entries s.reachable_insns s.blocks s.reachable_bytes s.exec_bytes s.coverage_pct
    s.sweep_insns s.sweep_bytes
