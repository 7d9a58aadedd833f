exception Unpatchable = Stream_patch.Unpatchable

let check_randomizable img =
  let page_bytes = Mavr_avr.Device.atmega2560.flash_page_bytes in
  match Stream_patch.apply img (Shuffle.identity img) ~page_bytes with
  | _ -> Ok ()
  | exception Unpatchable m -> Error m
