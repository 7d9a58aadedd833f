type def = { msgid : int; name : string; crc_extra : int; payload_len : int }

let heartbeat = { msgid = 0; name = "HEARTBEAT"; crc_extra = 50; payload_len = 9 }
let sys_status = { msgid = 1; name = "SYS_STATUS"; crc_extra = 124; payload_len = 31 }
let param_set = { msgid = 23; name = "PARAM_SET"; crc_extra = 168; payload_len = 23 }
let gps_raw_int = { msgid = 24; name = "GPS_RAW_INT"; crc_extra = 24; payload_len = 30 }
let raw_imu = { msgid = 27; name = "RAW_IMU"; crc_extra = 144; payload_len = 26 }
let attitude = { msgid = 30; name = "ATTITUDE"; crc_extra = 39; payload_len = 28 }
let command_long = { msgid = 76; name = "COMMAND_LONG"; crc_extra = 152; payload_len = 33 }
let statustext = { msgid = 253; name = "STATUSTEXT"; crc_extra = 83; payload_len = 51 }

let all =
  [ heartbeat; sys_status; param_set; gps_raw_int; raw_imu; attitude; command_long; statustext ]

let find msgid = List.find_opt (fun d -> d.msgid = msgid) all

let crc_extra_of msgid = match find msgid with Some d -> d.crc_extra | None -> 0

(* Little-endian field packing helpers. *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u16 buf v =
  put_u8 buf v;
  put_u8 buf (v lsr 8)

let put_u32 buf v =
  put_u16 buf v;
  put_u16 buf (v lsr 16)

let put_u64 buf v =
  put_u32 buf v;
  put_u32 buf (v lsr 32)

let put_i16 buf v = put_u16 buf (v land 0xFFFF)

let get_u8 s pos = Char.code s.[pos]
let get_u16 s pos = get_u8 s pos lor (get_u8 s (pos + 1) lsl 8)
let get_u32 s pos = get_u16 s pos lor (get_u16 s (pos + 2) lsl 16)
let get_u64 s pos = get_u32 s pos lor (get_u32 s (pos + 4) lsl 32)

let get_i16 s pos =
  let v = get_u16 s pos in
  if v >= 0x8000 then v - 0x10000 else v

module Heartbeat = struct
  type t = { typ : int; autopilot : int; base_mode : int; custom_mode : int; system_status : int }

  let encode t =
    let buf = Buffer.create 9 in
    put_u32 buf t.custom_mode;
    put_u8 buf t.typ;
    put_u8 buf t.autopilot;
    put_u8 buf t.base_mode;
    put_u8 buf t.system_status;
    put_u8 buf 3 (* mavlink_version *);
    Buffer.contents buf
end

module Raw_imu = struct
  type t = {
    time_usec : int;
    xacc : int; yacc : int; zacc : int;
    xgyro : int; ygyro : int; zgyro : int;
    xmag : int; ymag : int; zmag : int;
  }

  let encode t =
    let buf = Buffer.create 26 in
    put_u64 buf t.time_usec;
    List.iter (put_i16 buf)
      [ t.xacc; t.yacc; t.zacc; t.xgyro; t.ygyro; t.zgyro; t.xmag; t.ymag; t.zmag ];
    Buffer.contents buf

  let decode s =
    if String.length s <> raw_imu.payload_len then Error "RAW_IMU: bad payload length"
    else
      Ok
        {
          time_usec = get_u64 s 0;
          xacc = get_i16 s 8;
          yacc = get_i16 s 10;
          zacc = get_i16 s 12;
          xgyro = get_i16 s 14;
          ygyro = get_i16 s 16;
          zgyro = get_i16 s 18;
          xmag = get_i16 s 20;
          ymag = get_i16 s 22;
          zmag = get_i16 s 24;
        }
end
