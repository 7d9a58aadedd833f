module Image = Mavr_obj.Image
module Rng = Mavr_prng.Splitmix

(* In memory, with the relocation plan at the master's flash page size. *)
let plan img = Stream_patch.plan img ~page_bytes:Mavr_avr.Device.atmega2560.flash_page_bytes

let apply img shuffle = Stream_patch.layout (plan img) shuffle

let randomize ~seed img = apply img (Shuffle.draw ~rng:(Rng.create ~seed) img)

let with_order img order = apply img (Shuffle.of_order img order)

let verify_structure ~original ~randomized =
  let open Image in
  if size original <> size randomized then Error "image size changed"
  else if
    original.text_start <> randomized.text_start || original.text_end <> randomized.text_end
  then Error "text bounds changed"
  else
    let key (s : symbol) = (s.name, s.size) in
    let sorted img = List.sort compare (List.map key img.symbols) in
    if sorted original <> sorted randomized then Error "symbol multiset changed"
    else
      match validate randomized with
      | Error m -> Error ("randomized image invalid: " ^ m)
      | Ok () -> Ok ()

let layout_distance a b =
  let addr_of img =
    List.fold_left
      (fun acc (s : Image.symbol) -> (s.name, s.addr) :: acc)
      [] img.Image.symbols
  in
  let bmap = addr_of b in
  List.fold_left
    (fun n (name, addr) -> match List.assoc_opt name bmap with
      | Some addr' when addr' = addr -> n
      | _ -> n + 1)
    0 (addr_of a)
