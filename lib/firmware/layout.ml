let data_vma = 0x200
let vtable_entries = 8
let vtable_vma = data_vma

let stage = 0x300
let stage_len = 255

let st_state = 0x480
let st_len = 0x481
let st_idx = 0x482
let st_msgid = 0x483
let rxcrc_lo = 0x484
let rxcrc_hi = 0x485
let txcrc_lo = 0x486
let txcrc_hi = 0x487
let txseq = 0x488
let loop_lo = 0x489
let loop_hi = 0x48A
let gcs_beat = 0x48B
let gyro_val = 0x48C
let gyro_cfg = 0x48E
let tick = 0x490

let telem = 0x500
let telem_gyro_off = 14
let telem_accel_off = 8
let param_area = 0x540
let cmd_area = 0x560

let scratch i = 0x600 + (8 * (i mod 256))

(* The stack starts 128 bytes below RAMEND.  Real ArduPlane enters the
   MAVLink handler through a much deeper call chain than our synthetic
   runtime; reserving this region models that depth, so attacks that
   consume caller stack above the vulnerable frame (paper attack V1)
   stay inside physical SRAM. *)
let stack_top = 0x217F
let free_region = 0x1800

let vuln_buffer_len = 64
let vuln_frame_size = 66
