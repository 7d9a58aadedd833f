type kind = Func | Object

type symbol = { name : string; addr : int; size : int; kind : kind }

type t = {
  code : string;
  exec_low_end : int;
  text_start : int;
  text_end : int;
  symbols : symbol list;
  symbol_array : symbol array;
  funptr_locs : int list;
}

let check t =
  if t.text_start < 0 || t.text_end > String.length t.code || t.text_start > t.text_end then
    Error "text section outside image"
  else
    let rec go expected = function
      | [] -> if expected = t.text_end then Ok () else Error "symbols do not cover text section"
      | s :: rest ->
          if s.addr <> expected then
            Error (Printf.sprintf "symbol %s at 0x%x, expected 0x%x (gap/overlap)" s.name s.addr expected)
          else if s.size < 0 then Error (Printf.sprintf "symbol %s has negative size" s.name)
          else go (s.addr + s.size) rest
    in
    match go t.text_start t.symbols with
    | Ok () when Array.to_list t.symbol_array <> t.symbols ->
        Error "symbol array out of step with the symbol list"
    | r -> r

let validate = check

let of_assembly ?exec_low_end (out : Mavr_asm.Assembler.output) =
  let symbols =
    List.map
      (fun (s : Mavr_asm.Assembler.symbol) ->
        { name = s.name; addr = s.addr; size = s.size; kind = Func })
      (List.sort
         (fun (a : Mavr_asm.Assembler.symbol) b -> compare a.addr b.addr)
         out.symbols)
  in
  let t =
    {
      code = out.code;
      exec_low_end = (match exec_low_end with Some e -> e | None -> out.text_start);
      text_start = out.text_start;
      text_end = out.text_end;
      symbols;
      symbol_array = Array.of_list symbols;
      funptr_locs = List.sort compare out.funptr_locs;
    }
  in
  match check t with Ok () -> t | Error m -> invalid_arg ("Image.of_assembly: " ^ m)

let size t = String.length t.code
let function_count t = Array.length t.symbol_array

let find t name =
  match List.find_opt (fun s -> s.name = name) t.symbols with
  | Some s -> s
  | None -> raise Not_found

let function_index t addr =
  (* Binary search over the ascending symbol array. *)
  let arr = t.symbol_array in
  let n = Array.length arr in
  if n = 0 || addr < arr.(0).addr then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if arr.(mid).addr <= addr then lo := mid else hi := mid - 1
    done;
    if addr < arr.(!lo).addr + arr.(!lo).size then Some !lo else None
  end

let function_containing t addr = Option.map (Array.get t.symbol_array) (function_index t addr)

let code_of t sym = String.sub t.code sym.addr sym.size

let is_function_start t addr =
  (* Binary search over the ascending symbol array. *)
  let arr = t.symbol_array in
  let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let a = arr.(mid).addr in
    if a = addr then found := true else if a < addr then lo := mid + 1 else hi := mid - 1
  done;
  !found

let fingerprint t =
  let h = ref 0x4bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    t.code;
  !h land max_int

let pp_summary fmt t =
  Format.fprintf fmt "image: %d bytes, text [0x%x,0x%x), %d functions, %d function pointers"
    (size t) t.text_start t.text_end (function_count t) (List.length t.funptr_locs)
