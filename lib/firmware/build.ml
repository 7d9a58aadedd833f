module Asm = Mavr_asm.Assembler
module Image = Mavr_obj.Image
module Rng = Mavr_prng.Splitmix

type t = {
  image : Image.t;
  asm : Asm.output;
  profile : Profile.t;
  toolchain : Profile.toolchain;
  pad_bytes : int;
}

let runtime_function_count = List.length Runtime.function_names

let crc_extra_table =
  String.init 256 (fun msgid -> Char.chr (Mavr_mavlink.Messages.crc_extra_of msgid))

(* Filler rodata for the calibration pad: parameter-name-like text, the
   dominant constant data in real ArduPilot images. *)
let pad_text n =
  let base = "GYRO_SCALE;ACRO_PITCH_RATE;THR_FAILSAFE;WP_RADIUS;NAVL1_PERIOD;COMPASS_OFS_X;" in
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    Buffer.add_string buf base
  done;
  Buffer.sub buf 0 n

let assemble ~pad (profile : Profile.t) (toolchain : Profile.toolchain) =
  let filler_count = max 0 (profile.n_functions - runtime_function_count) in
  let rng = Rng.create ~seed:profile.seed in
  let avg_body_units =
    if profile.target_size = 0 then 10
    else
      let code_budget = profile.target_size * 82 / 100 in
      let per_func = code_budget / max 1 filler_count in
      (* a body unit is ~2 instructions of ~2 bytes each *)
      max 4 (min 400 (per_func / 5))
  in
  let fillers = Codegen.generate ~toolchain ~rng ~count:filler_count ~avg_body_units in
  let roots = List.init (min 4 filler_count) Codegen.name in
  let vtable_targets =
    if filler_count = 0 then List.init Layout.vtable_entries (fun _ -> "sensor_update")
    else
      List.init Layout.vtable_entries (fun j ->
          Codegen.name (j * filler_count / Layout.vtable_entries))
  in
  (* Indirect calls go through [icall], which only sees the 16-bit Z
     register — functions above the 128 KB line are unreachable from a
     stored pointer, and randomization can move any function there.  Do
     what avr-gcc does on >128 KB parts: route every vtable entry through
     a [jmp] trampoline in the low fixed region, whose word address
     always fits 16 bits and whose absolute target the randomizer's
     patcher rewrites in place. *)
  let tramp_name j = Printf.sprintf "__vt_tramp_%d" j in
  let trampolines =
    [ Asm.Label "__trampolines" ]
    @ List.concat
        (List.mapi
           (fun j target -> [ Asm.Label (tramp_name j); Asm.Jmp_sym target ])
           vtable_targets)
  in
  let vectors =
    Runtime.vectors () @ trampolines
    @ [ Asm.Label "__data_init" ]
    @ List.mapi (fun j _ -> Asm.Word_sym (tramp_name j)) vtable_targets
    @ [ Asm.Label "__data_init_end"; Asm.Label "crc_extra_tbl"; Asm.Raw_bytes crc_extra_table ]
  in
  let funcs = Runtime.functions ~toolchain ~roots () @ fillers in
  let data = if pad > 0 then [ Asm.Label "__rodata_pad"; Asm.Raw_bytes (pad_text pad) ] else [] in
  let program = { Asm.vectors; funcs; data; defines = Runtime.defines } in
  Asm.assemble ~relax:toolchain.relax program

(* The pad that brings the stock build of [profile] to its target size
   (a stock dry run). *)
let calibrated_pad (profile : Profile.t) =
  if profile.target_size = 0 then 0
  else
    let dry = assemble ~pad:0 profile Profile.stock in
    max 0 (profile.target_size - String.length dry.code)

let build_padded ~pad profile toolchain =
  let asm = assemble ~pad profile toolchain in
  let exec_low_end = Asm.label_value asm "__data_init" in
  { image = Image.of_assembly ~exec_low_end asm; asm; profile; toolchain; pad_bytes = pad }

let build profile toolchain = build_padded ~pad:(calibrated_pad profile) profile toolchain

let build_pair profile =
  let pad = calibrated_pad profile in
  (build_padded ~pad profile Profile.stock, build_padded ~pad profile Profile.mavr)

let label t name = Asm.label_value t.asm name
let function_count t = Image.function_count t.image
let code_size t = Image.size t.image
