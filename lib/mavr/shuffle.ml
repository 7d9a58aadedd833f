module Image = Mavr_obj.Image
module Rng = Mavr_prng.Splitmix

type t = { order : int array; new_addr : int array }

let layout (img : Image.t) order =
  let syms = img.symbol_array in
  let new_addr = Array.make (Array.length syms) 0 in
  let cursor = ref img.text_start in
  Array.iter
    (fun idx ->
      new_addr.(idx) <- !cursor;
      cursor := !cursor + syms.(idx).Image.size)
    order;
  assert (!cursor = img.text_end);
  { order; new_addr }

let of_order img order =
  let n = Image.function_count img in
  if Array.length order <> n then invalid_arg "Shuffle.of_order: wrong length";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then invalid_arg "Shuffle.of_order: not a permutation";
      seen.(i) <- true)
    order;
  layout img order

let identity img = layout img (Array.init (Image.function_count img) (fun i -> i))

let draw ~rng img =
  let order = Array.init (Image.function_count img) (fun i -> i) in
  Rng.shuffle rng order;
  layout img order

let map_addr (img : Image.t) t addr =
  if addr < img.text_start || addr >= img.text_end then addr
  else
    match Image.function_index img addr with
    | None -> addr
    | Some i -> t.new_addr.(i) + (addr - img.symbol_array.(i).addr)
