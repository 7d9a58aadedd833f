type reg = int

type ptr = X | X_inc | X_dec | Y_inc | Y_dec | Z_inc | Z_dec

type base = Y | Z

type t =
  | Nop
  | Movw of reg * reg
  | Ldi of reg * int
  | Mov of reg * reg
  | Add of reg * reg
  | Adc of reg * reg
  | Sub of reg * reg
  | Sbc of reg * reg
  | And of reg * reg
  | Or of reg * reg
  | Eor of reg * reg
  | Cp of reg * reg
  | Cpc of reg * reg
  | Cpse of reg * reg
  | Mul of reg * reg
  | Subi of reg * int
  | Sbci of reg * int
  | Andi of reg * int
  | Ori of reg * int
  | Cpi of reg * int
  | Com of reg
  | Neg of reg
  | Inc of reg
  | Dec of reg
  | Lsr of reg
  | Ror of reg
  | Asr of reg
  | Swap of reg
  | Push of reg
  | Pop of reg
  | Ret
  | Reti
  | Icall
  | Ijmp
  | Call of int
  | Jmp of int
  | Rcall of int
  | Rjmp of int
  | Brbs of int * int
  | Brbc of int * int
  | In of reg * int
  | Out of int * reg
  | Lds of reg * int
  | Sts of int * reg
  | Ldd of reg * base * int
  | Std of base * int * reg
  | Ld of reg * ptr
  | St of ptr * reg
  | Adiw of reg * int
  | Sbiw of reg * int
  | Lpm0
  | Lpm of reg * bool
  | Sbi of int * int
  | Cbi of int * int
  | Sbic of int * int
  | Sbis of int * int
  | Bld of reg * int
  | Bst of reg * int
  | Sbrc of reg * int
  | Sbrs of reg * int
  | Elpm0
  | Elpm of reg * bool
  | Bset of int
  | Bclr of int
  | Wdr
  | Sleep
  | Break
  | Data of int

let equal (a : t) (b : t) = a = b

let size_words = function
  | Call _ | Jmp _ | Lds _ | Sts _ -> 2
  | _ -> 1

let is_useful_for_gadget = function
  | Std _ | St _ | Sts _ | Out _ | Pop _ | Mov _ | Movw _ | Ldi _ | In _ | Ld _ | Ldd _
  | Lds _ | Adiw _ | Sbiw _ | Add _ | Sub _ | Subi _ | Eor _ ->
      true
  | Nop | Adc _ | Sbc _ | And _ | Or _ | Cp _ | Cpc _ | Cpse _ | Mul _ | Sbci _ | Andi _
  | Ori _ | Cpi _ | Com _ | Neg _ | Inc _ | Dec _ | Lsr _ | Ror _ | Asr _ | Swap _
  | Push _ | Ret | Reti | Icall | Ijmp | Call _ | Jmp _ | Rcall _ | Rjmp _ | Brbs _
  | Brbc _ | Lpm0 | Lpm _ | Elpm0 | Elpm _ | Sbi _ | Cbi _ | Sbic _ | Sbis _ | Bld _
  | Bst _ | Sbrc _ | Sbrs _ | Bset _ | Bclr _ | Wdr | Sleep | Break | Data _ ->
      false

module Transfer = struct
  type t =
    | Straight
    | Branch
    | Jump
    | Call
    | Indirect_jump
    | Indirect_call
    | Skip
    | Return
    | Stop
end

let transfer : t -> Transfer.t = function
  | Brbs _ | Brbc _ -> Transfer.Branch
  | Jmp _ | Rjmp _ -> Transfer.Jump
  | Call _ | Rcall _ -> Transfer.Call
  | Ijmp -> Transfer.Indirect_jump
  | Icall -> Transfer.Indirect_call
  | Cpse _ | Sbic _ | Sbis _ | Sbrc _ | Sbrs _ -> Transfer.Skip
  | Ret | Reti -> Transfer.Return
  | Break | Data _ -> Transfer.Stop
  | _ -> Transfer.Straight

module Flag = struct
  let c = 0
  let z = 1
  let n = 2
  let v = 3
  let s = 4
  let h = 5
  let t = 6
  let i = 7
end

let pp_ptr fmt p =
  Format.pp_print_string fmt
    (match p with
    | X -> "X"
    | X_inc -> "X+"
    | X_dec -> "-X"
    | Y_inc -> "Y+"
    | Y_dec -> "-Y"
    | Z_inc -> "Z+"
    | Z_dec -> "-Z")

let base_name = function Y -> "Y" | Z -> "Z"

let branch_mnemonic ~set b =
  match (set, b) with
  | true, 0 -> "brcs"
  | true, 1 -> "breq"
  | true, 2 -> "brmi"
  | true, 3 -> "brvs"
  | true, 4 -> "brlt"
  | false, 0 -> "brcc"
  | false, 1 -> "brne"
  | false, 2 -> "brpl"
  | false, 3 -> "brvc"
  | false, 4 -> "brge"
  | true, _ -> Printf.sprintf "brbs %d," b
  | false, _ -> Printf.sprintf "brbc %d," b

(* Mnemonic heads, one per instruction kind (no operands, no branch
   condition): static strings, so an event naming an instruction
   allocates nothing. *)
let mnemonics =
  [| "nop"; "movw"; "ldi"; "mov"; "add"; "adc"; "sub"; "sbc"; "and"; "or"; "eor"; "cp"; "cpc";
     "cpse"; "mul"; "subi"; "sbci"; "andi"; "ori"; "cpi"; "com"; "neg"; "inc"; "dec"; "lsr";
     "ror"; "asr"; "swap"; "push"; "pop"; "ret"; "reti"; "icall"; "ijmp"; "call"; "jmp";
     "rcall"; "rjmp"; "brbs"; "brbc"; "in"; "out"; "lds"; "sts"; "ldd"; "std"; "ld"; "st";
     "adiw"; "sbiw"; "lpm"; "sbi"; "cbi"; "sbic"; "sbis"; "bld"; "bst"; "sbrc"; "sbrs"; "elpm";
     "bset"; "bclr"; "wdr"; "sleep"; "break"; "(data)" |]

let mnemonic_index = function
  | Nop -> 0 | Movw _ -> 1 | Ldi _ -> 2 | Mov _ -> 3 | Add _ -> 4 | Adc _ -> 5 | Sub _ -> 6
  | Sbc _ -> 7 | And _ -> 8 | Or _ -> 9 | Eor _ -> 10 | Cp _ -> 11 | Cpc _ -> 12 | Cpse _ -> 13
  | Mul _ -> 14 | Subi _ -> 15 | Sbci _ -> 16 | Andi _ -> 17 | Ori _ -> 18 | Cpi _ -> 19
  | Com _ -> 20 | Neg _ -> 21 | Inc _ -> 22 | Dec _ -> 23 | Lsr _ -> 24 | Ror _ -> 25
  | Asr _ -> 26 | Swap _ -> 27 | Push _ -> 28 | Pop _ -> 29 | Ret -> 30 | Reti -> 31
  | Icall -> 32 | Ijmp -> 33 | Call _ -> 34 | Jmp _ -> 35 | Rcall _ -> 36 | Rjmp _ -> 37
  | Brbs _ -> 38 | Brbc _ -> 39 | In _ -> 40 | Out _ -> 41 | Lds _ -> 42 | Sts _ -> 43
  | Ldd _ -> 44 | Std _ -> 45 | Ld _ -> 46 | St _ -> 47 | Adiw _ -> 48 | Sbiw _ -> 49
  | Lpm0 | Lpm _ -> 50 | Sbi _ -> 51 | Cbi _ -> 52 | Sbic _ -> 53 | Sbis _ -> 54 | Bld _ -> 55
  | Bst _ -> 56 | Sbrc _ -> 57 | Sbrs _ -> 58 | Elpm0 | Elpm _ -> 59 | Bset _ -> 60
  | Bclr _ -> 61 | Wdr -> 62 | Sleep -> 63 | Break -> 64 | Data _ -> 65

let pp fmt = function
  | Nop -> Format.fprintf fmt "nop"
  | Movw (d, r) -> Format.fprintf fmt "movw r%d, r%d" d r
  | Ldi (d, k) -> Format.fprintf fmt "ldi r%d, 0x%02X" d k
  | Mov (d, r) -> Format.fprintf fmt "mov r%d, r%d" d r
  | Add (d, r) -> Format.fprintf fmt "add r%d, r%d" d r
  | Adc (d, r) -> Format.fprintf fmt "adc r%d, r%d" d r
  | Sub (d, r) -> Format.fprintf fmt "sub r%d, r%d" d r
  | Sbc (d, r) -> Format.fprintf fmt "sbc r%d, r%d" d r
  | And (d, r) -> Format.fprintf fmt "and r%d, r%d" d r
  | Or (d, r) -> Format.fprintf fmt "or r%d, r%d" d r
  | Eor (d, r) -> Format.fprintf fmt "eor r%d, r%d" d r
  | Cp (d, r) -> Format.fprintf fmt "cp r%d, r%d" d r
  | Cpc (d, r) -> Format.fprintf fmt "cpc r%d, r%d" d r
  | Cpse (d, r) -> Format.fprintf fmt "cpse r%d, r%d" d r
  | Mul (d, r) -> Format.fprintf fmt "mul r%d, r%d" d r
  | Subi (d, k) -> Format.fprintf fmt "subi r%d, 0x%02X" d k
  | Sbci (d, k) -> Format.fprintf fmt "sbci r%d, 0x%02X" d k
  | Andi (d, k) -> Format.fprintf fmt "andi r%d, 0x%02X" d k
  | Ori (d, k) -> Format.fprintf fmt "ori r%d, 0x%02X" d k
  | Cpi (d, k) -> Format.fprintf fmt "cpi r%d, 0x%02X" d k
  | Com d -> Format.fprintf fmt "com r%d" d
  | Neg d -> Format.fprintf fmt "neg r%d" d
  | Inc d -> Format.fprintf fmt "inc r%d" d
  | Dec d -> Format.fprintf fmt "dec r%d" d
  | Lsr d -> Format.fprintf fmt "lsr r%d" d
  | Ror d -> Format.fprintf fmt "ror r%d" d
  | Asr d -> Format.fprintf fmt "asr r%d" d
  | Swap d -> Format.fprintf fmt "swap r%d" d
  | Push r -> Format.fprintf fmt "push r%d" r
  | Pop r -> Format.fprintf fmt "pop r%d" r
  | Ret -> Format.fprintf fmt "ret"
  | Reti -> Format.fprintf fmt "reti"
  | Icall -> Format.fprintf fmt "icall"
  | Ijmp -> Format.fprintf fmt "ijmp"
  | Call a -> Format.fprintf fmt "call 0x%x" (a * 2)
  | Jmp a -> Format.fprintf fmt "jmp 0x%x" (a * 2)
  | Rcall k -> Format.fprintf fmt "rcall .%+d" (k * 2)
  | Rjmp k -> Format.fprintf fmt "rjmp .%+d" (k * 2)
  | Brbs (b, k) -> Format.fprintf fmt "%s .%+d" (branch_mnemonic ~set:true b) (k * 2)
  | Brbc (b, k) -> Format.fprintf fmt "%s .%+d" (branch_mnemonic ~set:false b) (k * 2)
  | In (d, a) -> Format.fprintf fmt "in r%d, 0x%02x" d a
  | Out (a, r) -> Format.fprintf fmt "out 0x%02x, r%d" a r
  | Lds (d, a) -> Format.fprintf fmt "lds r%d, 0x%04x" d a
  | Sts (a, r) -> Format.fprintf fmt "sts 0x%04x, r%d" a r
  | Ldd (d, b, q) -> Format.fprintf fmt "ldd r%d, %s+%d" d (base_name b) q
  | Std (b, q, r) -> Format.fprintf fmt "std %s+%d, r%d" (base_name b) q r
  | Ld (d, p) -> Format.fprintf fmt "ld r%d, %a" d pp_ptr p
  | St (p, r) -> Format.fprintf fmt "st %a, r%d" pp_ptr p r
  | Adiw (d, k) -> Format.fprintf fmt "adiw r%d, 0x%02x" d k
  | Sbiw (d, k) -> Format.fprintf fmt "sbiw r%d, 0x%02x" d k
  | Lpm0 -> Format.fprintf fmt "lpm"
  | Lpm (d, inc) -> Format.fprintf fmt "lpm r%d, Z%s" d (if inc then "+" else "")
  | Sbi (a, b) -> Format.fprintf fmt "sbi 0x%02x, %d" a b
  | Cbi (a, b) -> Format.fprintf fmt "cbi 0x%02x, %d" a b
  | Sbic (a, b) -> Format.fprintf fmt "sbic 0x%02x, %d" a b
  | Sbis (a, b) -> Format.fprintf fmt "sbis 0x%02x, %d" a b
  | Bld (d, b) -> Format.fprintf fmt "bld r%d, %d" d b
  | Bst (d, b) -> Format.fprintf fmt "bst r%d, %d" d b
  | Sbrc (r, b) -> Format.fprintf fmt "sbrc r%d, %d" r b
  | Sbrs (r, b) -> Format.fprintf fmt "sbrs r%d, %d" r b
  | Elpm0 -> Format.fprintf fmt "elpm"
  | Elpm (d, inc) -> Format.fprintf fmt "elpm r%d, Z%s" d (if inc then "+" else "")
  | Bset 7 -> Format.fprintf fmt "sei"
  | Bclr 7 -> Format.fprintf fmt "cli"
  | Bset b -> Format.fprintf fmt "bset %d" b
  | Bclr b -> Format.fprintf fmt "bclr %d" b
  | Wdr -> Format.fprintf fmt "wdr"
  | Sleep -> Format.fprintf fmt "sleep"
  | Break -> Format.fprintf fmt "break"
  | Data w -> Format.fprintf fmt ".word 0x%04x" w

let to_string i = Format.asprintf "%a" pp i
