type t = {
  dev : Device.t;
  flash : Bytes.t;
  data : Bytes.t;
  eeprom : Bytes.t;
  mutable flash_epoch : int;
}

let create dev =
  {
    dev;
    flash = Bytes.make dev.Device.flash_bytes '\xff';
    data = Bytes.make (Device.data_end dev) '\x00';
    eeprom = Bytes.make dev.Device.eeprom_bytes '\xff';
    flash_epoch = 0;
  }

let device t = t.dev
let flash_epoch t = t.flash_epoch

let load_flash t image =
  if String.length image > Bytes.length t.flash then
    invalid_arg "Memory.load_flash: image larger than flash";
  Bytes.fill t.flash 0 (Bytes.length t.flash) '\xff';
  Bytes.blit_string image 0 t.flash 0 (String.length image);
  t.flash_epoch <- t.flash_epoch + 1

let flash_byte t addr =
  if addr < 0 || addr >= Bytes.length t.flash then 0xFF else Char.code (Bytes.get t.flash addr)

let flash_word t word_addr =
  let b = word_addr * 2 in
  flash_byte t b lor (flash_byte t (b + 1) lsl 8)

let flash_write_page t ~page_addr data =
  let page = t.dev.Device.flash_page_bytes in
  if page_addr mod page <> 0 then invalid_arg "Memory.flash_write_page: unaligned page";
  if String.length data <> page then invalid_arg "Memory.flash_write_page: bad page size";
  if page_addr + page > Bytes.length t.flash then
    invalid_arg "Memory.flash_write_page: beyond flash";
  Bytes.blit_string data 0 t.flash page_addr page;
  t.flash_epoch <- t.flash_epoch + 1

let flash_contents t = Bytes.to_string t.flash

(* Register-file fast path: addresses 0..31 are always inside the data
   array, so skip the range test.  The [land 31] keeps the access memory
   safe even for a hand-constructed out-of-range register number. *)
let reg_get t r = Char.code (Bytes.unsafe_get t.data (r land 31))
let reg_set t r v = Bytes.unsafe_set t.data (r land 31) (Char.unsafe_chr (v land 0xFF))

let data_get t addr =
  if addr < 0 || addr >= Bytes.length t.data then 0 else Char.code (Bytes.get t.data addr)

let data_set t addr v =
  if addr >= 0 && addr < Bytes.length t.data then Bytes.set t.data addr (Char.unsafe_chr (v land 0xFF))

let data_slice t ~pos ~len =
  let size = Bytes.length t.data in
  let pos = max 0 (min pos size) in
  let len = max 0 (min len (size - pos)) in
  Bytes.sub_string t.data pos len

let eeprom_get t addr =
  if addr < 0 || addr >= Bytes.length t.eeprom then 0xFF else Char.code (Bytes.get t.eeprom addr)

let eeprom_set t addr v =
  if addr >= 0 && addr < Bytes.length t.eeprom then
    Bytes.set t.eeprom addr (Char.chr (v land 0xFF))
