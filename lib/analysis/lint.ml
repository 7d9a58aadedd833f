module Isa = Mavr_avr.Isa
module Decode = Mavr_avr.Decode
module Device = Mavr_avr.Device
module Disasm = Mavr_avr.Disasm
module Image = Mavr_obj.Image
module Json = Mavr_telemetry.Json

type kind =
  | Target_out_of_bounds
  | Target_undecodable
  | Target_mid_instruction
  | Vector_not_jmp
  | Vector_target_not_function
  | Funptr_out_of_bounds
  | Funptr_not_function
  | Stray_sp_write

type finding = { kind : kind; addr : int; target : int option; detail : string; context : string }

let kind_name = function
  | Target_out_of_bounds -> "target_out_of_bounds"
  | Target_undecodable -> "target_undecodable"
  | Target_mid_instruction -> "target_mid_instruction"
  | Vector_not_jmp -> "vector_not_jmp"
  | Vector_target_not_function -> "vector_target_not_function"
  | Funptr_out_of_bounds -> "funptr_out_of_bounds"
  | Funptr_not_function -> "funptr_not_function"
  | Stray_sp_write -> "stray_sp_write"

(* A three-line disassembly listing starting at the offending address. *)
let context_at (img : Image.t) addr =
  if addr < 0 || addr land 1 <> 0 || addr + 2 > String.length img.code then ""
  else
    let len = min 12 (String.length img.code - addr) in
    let listing = Disasm.listing ~pos:addr ~len img.Image.code in
    String.concat "\n" (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' listing))

let finding img kind addr ?target detail =
  { kind; addr; target; detail; context = context_at img addr }

(* ---- transfer targets ------------------------------------------------ *)

let direct_target addr insn size =
  match insn with
  | Isa.Jmp a | Isa.Call a -> Some (2 * a)
  | Isa.Rjmp off | Isa.Rcall off -> Some (addr + size + (2 * off))
  | Isa.Brbs (_, off) | Isa.Brbc (_, off) -> Some (addr + size + (2 * off))
  | _ -> None

let check_transfers img cfg acc =
  let code = img.Image.code in
  let acc = ref acc in
  let check_target addr insn t ~what =
    let name = Isa.to_string insn in
    if not (Cfg.in_exec img t) then
      acc :=
        finding img Target_out_of_bounds addr ~target:t
          (Printf.sprintf "%s %s 0x%x lands outside the executable regions" name what t)
        :: !acc
    else begin
      (match Decode.decode_bytes code t with
      | Isa.Data w, _ ->
          acc :=
            finding img Target_undecodable addr ~target:t
              (Printf.sprintf "%s %s 0x%x decodes to raw word 0x%04x" name what t w)
            :: !acc
      | _ -> ());
      (* Only a two-word instruction starting one word earlier can
         straddle the target. *)
      match Cfg.insn_at cfg (t - 2) with
      | Some (_, 4) ->
          acc :=
            finding img Target_mid_instruction addr ~target:t
              (Printf.sprintf
                 "%s %s 0x%x lands inside the two-word instruction at 0x%x" name what t (t - 2))
            :: !acc
      | _ -> ()
    end
  in
  Cfg.iter_reachable cfg (fun addr insn size ->
      (match direct_target addr insn size with
      | Some t -> check_target addr insn t ~what:"target"
      | None -> ());
      match insn with
      | Isa.Cpse _ | Isa.Sbic _ | Isa.Sbis _ | Isa.Sbrc _ | Isa.Sbrs _ -> (
          match Cfg.successors ~code addr insn size with
          | [ _; skip ] when not (Cfg.in_exec img skip) ->
              acc :=
                finding img Target_out_of_bounds addr ~target:skip
                  (Printf.sprintf "%s skip lands outside the executable regions at 0x%x"
                     (Isa.to_string insn) skip)
                :: !acc
          | _ -> ())
      | _ -> ());
  !acc

(* ---- vector table ---------------------------------------------------- *)

let check_vectors (img : Image.t) acc =
  let acc = ref acc in
  for n = 0 to Device.Vector.count - 1 do
    let slot = Device.Vector.byte_addr n in
    if slot + 4 > img.exec_low_end then
      acc :=
        finding img Vector_not_jmp slot
          (Printf.sprintf "vector %d slot extends past the vector region (0x%x)" n
             img.exec_low_end)
        :: !acc
    else
      match Decode.decode_bytes img.code slot with
      | Isa.Jmp a, _ ->
          let t = 2 * a in
          if not (Image.is_function_start img t || t = slot) then
            acc :=
              finding img Vector_target_not_function slot ~target:t
                (Printf.sprintf "vector %d jumps to 0x%x, not a function start" n t)
              :: !acc
      | insn, _ ->
          acc :=
            finding img Vector_not_jmp slot
              (Printf.sprintf "vector %d holds %s, expected a 4-byte jmp slot" n
                 (Isa.to_string insn))
            :: !acc
  done;
  !acc

(* ---- stored function pointers (vtables / jump tables) ---------------- *)

let check_funptrs (img : Image.t) acc =
  let acc = ref acc in
  List.iter
    (fun loc ->
      match Cfg.funptr_target img loc with
      | None ->
          acc :=
            finding img Funptr_out_of_bounds loc
              (Printf.sprintf "function-pointer slot at 0x%x is truncated" loc)
            :: !acc
      | Some t ->
          (* Legal shapes: a function start in text, or a low-region
             trampoline — a [jmp] whose target is a function start (the
             >128 KB avr-gcc idiom; [icall] only reaches 16-bit word
             addresses). *)
          let trampoline_to_function =
            t + 4 <= img.exec_low_end
            &&
            match Decode.decode_bytes img.code t with
            | Isa.Jmp a, _ -> Image.is_function_start img (2 * a)
            | _ -> false
          in
          if not (Cfg.in_exec img t) then
            acc :=
              finding img Funptr_out_of_bounds loc ~target:t
                (Printf.sprintf
                   "function pointer at 0x%x aims at 0x%x, outside the executable regions" loc t)
              :: !acc
          else if not (Image.is_function_start img t || trampoline_to_function) then
            acc :=
              finding img Funptr_not_function loc ~target:t
                (Printf.sprintf
                   "function pointer at 0x%x aims at 0x%x, neither a function start nor a trampoline"
                   loc t)
              :: !acc)
    img.funptr_locs;
  !acc

(* ---- stack-pointer writes -------------------------------------------- *)

(* The old implementation pattern-matched idiom shapes inside ±3/±8
   instruction windows of the linear decode; it is replaced by the
   {!Stackdepth} data-flow facts: an [out SPL/SPH] is clean iff the
   written register provably holds an SP-relative or constant value on
   every path reaching the write.  [sts] to the SP's data-space aliases
   (io_base + SPL/SPH, 0x5D/0x5E on the megaAVR) is the same pivot
   primitive through the memory map and is never a compiler idiom. *)
let check_sp_writes img cfg acc =
  let acc = ref acc in
  let spl = Device.Io.spl and sph = Device.Io.sph in
  let io_base = Device.atmega2560.Device.io_base in
  let spl_mem = io_base + spl and sph_mem = io_base + sph in
  let classes = lazy (Stackdepth.sp_write_classes cfg) in
  Cfg.iter_reachable cfg (fun addr insn _size ->
      match insn with
      | Isa.Out (port, _) when port = spl || port = sph -> (
          let half = if port = spl then "SPL" else "SPH" in
          match Hashtbl.find_opt (Lazy.force classes) addr with
          | Some Stackdepth.Sp_relative | Some Stackdepth.Const_init -> ()
          | Some Stackdepth.Unknown_source ->
              acc :=
                finding img Stray_sp_write addr
                  (Printf.sprintf
                     "out %s at 0x%x writes a value with no SP-relative or constant provenance"
                     half addr)
                :: !acc
          | None ->
              acc :=
                finding img Stray_sp_write addr
                  (Printf.sprintf
                     "out %s at 0x%x is reached by no stack-depth analysis entry" half addr)
                :: !acc)
      | Isa.Sts (a, _) when a = spl_mem || a = sph_mem ->
          acc :=
            finding img Stray_sp_write addr
              (Printf.sprintf
                 "sts 0x%02x at 0x%x writes %s through its data-space alias (memory-mapped \
                  stack pivot)"
                 a addr
                 (if a = spl_mem then "SPL" else "SPH"))
            :: !acc
      | _ -> ());
  !acc

let run ?cfg img =
  let cfg = match cfg with Some c -> c | None -> Cfg.recover img in
  []
  |> check_transfers img cfg
  |> check_vectors img
  |> check_funptrs img
  |> check_sp_writes img cfg
  |> List.sort (fun a b -> compare (a.addr, a.kind) (b.addr, b.kind))

let to_json findings =
  Json.List
    (List.map
       (fun f ->
         Json.Obj
           ([ ("kind", Json.String (kind_name f.kind)); ("addr", Json.Int f.addr) ]
           @ (match f.target with Some t -> [ ("target", Json.Int t) ] | None -> [])
           @ [ ("detail", Json.String f.detail); ("context", Json.String f.context) ]))
       findings)

let pp_finding fmt f =
  Format.fprintf fmt "@[<v>[%s] at 0x%x%s: %s" (kind_name f.kind) f.addr
    (match f.target with Some t -> Printf.sprintf " -> 0x%x" t | None -> "")
    f.detail;
  if f.context <> "" then Format.fprintf fmt "@,%s" f.context;
  Format.fprintf fmt "@]"
