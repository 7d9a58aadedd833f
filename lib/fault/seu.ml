module Splitmix = Mavr_prng.Splitmix
module Metrics = Mavr_telemetry.Metrics
module Cpu = Mavr_avr.Cpu
module Device = Mavr_avr.Device

type params = { sram_flip_ppm : int; flash_flip_ppm : int }

let off = { sram_flip_ppm = 0; flash_flip_ppm = 0 }
let is_off p = p.sram_flip_ppm = 0 && p.flash_flip_ppm = 0

type stats = { sram_flips : int; flash_flips : int }

type t = {
  params : params;
  rng : Splitmix.t;
  mutable sram_flips : int;
  mutable flash_flips : int;
}

let create ~rng params = { params; rng; sram_flips = 0; flash_flips = 0 }
let stats t = { sram_flips = t.sram_flips; flash_flips = t.flash_flips }
let hit rng ppm = ppm > 0 && Splitmix.int rng 1_000_000 < ppm

let flip_sram t cpu =
  let dev = Cpu.device cpu in
  let addr = dev.Device.sram_base + Splitmix.int t.rng dev.Device.sram_bytes in
  let bit = Splitmix.int t.rng 8 in
  Cpu.data_poke cpu addr (Cpu.data_peek cpu addr lxor (1 lsl bit));
  t.sram_flips <- t.sram_flips + 1

(* A flash upset rewrites the whole victim page with one bit changed:
   [Cpu.flash_write_page] is the only flash mutation path short of a
   reflash, and going through it drops every decode and compiled block,
   so the CPU executes the flipped bit from the next instruction on. *)
let flip_flash t cpu =
  let size = Cpu.program_size cpu in
  if size > 0 then begin
    let dev = Cpu.device cpu in
    let page = dev.Device.flash_page_bytes in
    let victim = Splitmix.int t.rng size in
    let bit = Splitmix.int t.rng 8 in
    let page_addr = victim / page * page in
    let buf = Bytes.create page in
    for i = 0 to page - 1 do
      Bytes.set buf i (Char.chr (Cpu.flash_byte cpu (page_addr + i)))
    done;
    let off = victim - page_addr in
    Bytes.set buf off (Char.chr (Char.code (Bytes.get buf off) lxor (1 lsl bit)));
    Cpu.flash_write_page cpu ~page_addr (Bytes.to_string buf);
    t.flash_flips <- t.flash_flips + 1
  end

let tick t cpu =
  if hit t.rng t.params.sram_flip_ppm then flip_sram t cpu;
  if hit t.rng t.params.flash_flip_ppm then flip_flash t cpu

let attach_metrics ~prefix t registry =
  Metrics.sampled_counter registry (prefix ^ ".sram_flips") (fun () -> t.sram_flips);
  Metrics.sampled_counter registry (prefix ^ ".flash_flips") (fun () -> t.flash_flips)
