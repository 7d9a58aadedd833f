(** The AVR instruction set, as an abstract syntax.

    This module defines the subset of the 8-bit AVR (megaAVR) instruction
    set implemented by the emulator, assembler and randomizer.  It covers
    every instruction the MAVR paper's attacks and defense depend on —
    long/short calls and jumps, the memory-mapped stack-pointer writes used
    by the [stk_move] gadget, the [std Y+q] stores and pop runs of the
    [write_mem] gadget — plus enough ALU/transfer/branch instructions to
    express realistic autopilot firmware.

    Conventions:
    - Registers are integers [0..31].
    - Program addresses attached to [Call]/[Jmp] are {e word} addresses
      (AVR program memory is addressed in 16-bit words).
    - [Rjmp]/[Rcall] and conditional branches carry {e signed word offsets}
      relative to the next instruction, exactly as encoded. *)

type reg = int
(** A general-purpose register number, [0..31]. *)

(** Pointer-register addressing modes for [Ld]/[St]. *)
type ptr =
  | X        (** [X] *)
  | X_inc    (** [X+] post-increment *)
  | X_dec    (** [-X] pre-decrement *)
  | Y_inc    (** [Y+] *)
  | Y_dec    (** [-Y] *)
  | Z_inc    (** [Z+] *)
  | Z_dec    (** [-Z] *)

(** Base register for displacement addressing ([Ldd]/[Std]). *)
type base = Y | Z

type t =
  | Nop
  | Movw of reg * reg          (** [movw Rd,Rr]: copy register pair; both even. *)
  | Ldi of reg * int           (** [ldi Rd,K]: d in 16..31, K in 0..255. *)
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
  | Cpse of reg * reg          (** compare, skip next instruction if equal *)
  | Mul of reg * reg           (** result to r1:r0 *)
  | Subi of reg * int          (** d in 16..31 *)
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
  | Icall                      (** call word address in Z *)
  | Ijmp
  | Call of int                (** absolute word address, 0..2^22-1; 2 words *)
  | Jmp of int                 (** absolute word address; 2 words *)
  | Rcall of int               (** signed word offset, -2048..2047 *)
  | Rjmp of int
  | Brbs of int * int          (** branch if SREG bit [b] set; signed offset -64..63 *)
  | Brbc of int * int          (** branch if SREG bit [b] clear *)
  | In of reg * int            (** I/O address 0..63 *)
  | Out of int * reg
  | Lds of reg * int           (** 16-bit data address; 2 words *)
  | Sts of int * reg
  | Ldd of reg * base * int    (** displacement 0..63 *)
  | Std of base * int * reg
  | Ld of reg * ptr
  | St of ptr * reg
  | Adiw of reg * int          (** d in {24,26,28,30}, K in 0..63 *)
  | Sbiw of reg * int
  | Lpm0                       (** [lpm]: r0 <- flash[Z] *)
  | Lpm of reg * bool          (** [lpm Rd, Z] / [lpm Rd, Z+] when flag *)
  | Sbi of int * int           (** set bit in I/O 0..31 *)
  | Cbi of int * int
  | Sbic of int * int          (** skip if I/O bit clear *)
  | Sbis of int * int
  | Bld of reg * int           (** load SREG.T into register bit *)
  | Bst of reg * int           (** store register bit into SREG.T *)
  | Sbrc of reg * int          (** skip if register bit clear *)
  | Sbrs of reg * int          (** skip if register bit set *)
  | Elpm0                      (** [elpm]: r0 <- flash[RAMPZ:Z] *)
  | Elpm of reg * bool         (** [elpm Rd, Z] / [elpm Rd, Z+] *)
  | Bset of int                (** set SREG bit (sei = bset 7) *)
  | Bclr of int
  | Wdr
  | Sleep
  | Break
  | Data of int                (** an undecodable 16-bit word kept verbatim *)

val equal : t -> t -> bool

(** Size of the instruction in 16-bit program words (1 or 2). *)
val size_words : t -> int

(** [is_useful_for_gadget i] is true when [i] performs work an attacker can
    exploit inside a ROP gadget (stores, I/O writes, register pops and
    moves), used by the gadget classifier. *)
val is_useful_for_gadget : t -> bool

(** Coarse control-transfer class of an instruction — the per-opcode
    transfer summary the static analyses key successor construction and
    call-graph edges on.  Its constructors live in their own namespace so
    [Transfer.Call] does not shadow the [Call] instruction. *)
module Transfer : sig
  type t =
    | Straight  (** falls through to the next instruction only *)
    | Branch  (** conditional branch: taken edge + fallthrough *)
    | Jump  (** unconditional [jmp]/[rjmp] *)
    | Call  (** [call]/[rcall]: callee edge + return continuation *)
    | Indirect_jump  (** [ijmp] *)
    | Indirect_call  (** [icall] *)
    | Skip  (** [cpse]/[sbic]/[sbis]/[sbrc]/[sbrs] *)
    | Return  (** [ret]/[reti] *)
    | Stop  (** [break] and undecodable words *)
end

val transfer : t -> Transfer.t

(** Every instruction kind's mnemonic head, without operands or branch
    condition (["lpm"] for both [lpm] forms, ["brbs"] for every
    branch-if-set, ["(data)"] for an undecodable word). *)
val mnemonics : string array

(** [mnemonic_index i] is the index of [i]'s head in {!mnemonics}. *)
val mnemonic_index : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** SREG bit numbers. *)
module Flag : sig
  val c : int
  val z : int
  val n : int
  val v : int
  val s : int
  val h : int
  val t : int
  val i : int
end
