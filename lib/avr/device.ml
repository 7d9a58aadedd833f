type t = {
  name : string;
  flash_bytes : int;
  sram_bytes : int;
  eeprom_bytes : int;
  pc_bytes : int;
  io_base : int;
  sram_base : int;
  flash_page_bytes : int;
  flash_endurance : int;
  unit_price_usd : float;
}

let atmega2560 =
  {
    name = "ATmega2560";
    flash_bytes = 256 * 1024;
    sram_bytes = 8 * 1024;
    eeprom_bytes = 4 * 1024;
    pc_bytes = 3;
    io_base = 0x20;
    sram_base = 0x200;
    flash_page_bytes = 256;
    flash_endurance = 10_000;
    unit_price_usd = 17.36;
  }

let atmega1284p =
  {
    name = "ATmega1284P";
    flash_bytes = 128 * 1024;
    sram_bytes = 16 * 1024;
    eeprom_bytes = 4 * 1024;
    pc_bytes = 2;
    io_base = 0x20;
    sram_base = 0x100;
    flash_page_bytes = 256;
    flash_endurance = 10_000;
    unit_price_usd = 7.74;
  }

let data_end d = d.sram_base + d.sram_bytes

module Io = struct
  let spl = 0x3D
  let sph = 0x3E
  let sreg = 0x3F
  let wdt_feed = 0x1B
  let udr = 0x0C
  let ucsra = 0x0B
  let gyro_lo = 0x10
  let gyro_hi = 0x11
  let accel_lo = 0x16
  let accel_hi = 0x17
  let eecr = 0x1F
  let eedr = 0x20
  let eearl = 0x21
  let eearh = 0x22
  let rampz = 0x3B
  let tccr = 0x13
  let ocr = 0x14
end

module Vector = struct
  let reset = 0
  let timer_compare = 1
  let count = 57
  let byte_addr n = 4 * n
end

module External_flash = struct
  (* The programmed bytes, with the erased (0xFF) rest of the chip
     implied.  [program] keeps the caller's immutable string rather than
     copying it into a chip-sized buffer, so masters provisioned with one
     HEX share it. *)
  type t = { size : int; mutable data : string }

  let create ~bytes = { size = bytes; data = "" }
  let size t = t.size

  let program t data =
    if String.length data > t.size then
      invalid_arg "External_flash.program: image larger than chip";
    t.data <- data

  let read_byte t pos =
    if pos < 0 || pos >= t.size then invalid_arg "External_flash.read_byte: out of range";
    if pos < String.length t.data then Char.code t.data.[pos] else 0xFF

  let read t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > t.size then
      invalid_arg "External_flash.read: out of range";
    if pos + len <= String.length t.data then String.sub t.data pos len
    else String.init len (fun i -> Char.chr (read_byte t (pos + i)))

  let content_length t = String.length t.data
  let unit_price_usd = 3.94
end
