type stack_snapshot = { label : string; window_start : int; bytes : string; sp_at : int }

let snapshot cpu ~label ~window_start ~window_len =
  {
    label;
    window_start;
    bytes = Cpu.stack_slice cpu ~pos:window_start ~len:window_len;
    sp_at = Cpu.sp cpu;
  }

let pp_snapshot fmt s =
  Format.fprintf fmt "%s (SP=0x%04x)@." s.label s.sp_at;
  let n = String.length s.bytes in
  let row = 8 in
  let rec go i =
    if i < n then begin
      Format.fprintf fmt "0x%06X:" (s.window_start + i);
      for j = i to min (i + row - 1) (n - 1) do
        Format.fprintf fmt " 0x%02X" (Char.code s.bytes.[j])
      done;
      Format.fprintf fmt "@.";
      go (i + row)
    end
  in
  go 0
