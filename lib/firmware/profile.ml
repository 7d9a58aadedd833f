type t = { name : string; n_functions : int; target_size : int; seed : int }

let arduplane = { name = "Arduplane"; n_functions = 917; target_size = 221608; seed = 0x41504C31 }
let arducopter = { name = "Arducopter"; n_functions = 1030; target_size = 244532; seed = 0x41435031 }
let ardurover = { name = "Ardurover"; n_functions = 800; target_size = 177870; seed = 0x41525631 }

let all = [ arduplane; arducopter; ardurover ]

let tiny ~n ~seed =
  { name = Printf.sprintf "tiny-%d" n; n_functions = n; target_size = 0; seed }

(* Every function of a tiny image, runtime kernel included, takes at
   least 12 bytes (a filler has five or more one-word body units and a
   one-word return), so a count past this cannot fit the app CPU's flash
   and is refused before a build that would take minutes starts.  Counts
   below it are checked exactly against the built image by the campaign. *)
let min_function_bytes = 12

let of_string s =
  let lower = String.lowercase_ascii s in
  match List.find_opt (fun p -> String.lowercase_ascii p.name = lower) all with
  | Some p -> Ok p
  | None -> (
      let count =
        if String.starts_with ~prefix:"tiny-" s then String.sub s 5 (String.length s - 5) else s
      in
      let flash = Mavr_avr.Device.atmega2560.flash_bytes in
      match int_of_string_opt count with
      | Some n when n > flash / min_function_bytes ->
          Error
            (Printf.sprintf
               "%S cannot fit the %d-byte flash: its %d functions take at least %d bytes each"
               s flash n min_function_bytes)
      | Some n when n >= 1 -> Ok (tiny ~n ~seed:2024)
      | _ ->
          Error
            (Printf.sprintf
               "unknown profile %S (use arduplane/arducopter/ardurover or a filler count)" s))

type toolchain = { relax : bool; call_prologues : bool; vulnerable : bool }

let stock = { relax = true; call_prologues = true; vulnerable = true }
let mavr = { relax = false; call_prologues = false; vulnerable = true }
let patched = { relax = false; call_prologues = false; vulnerable = false }
