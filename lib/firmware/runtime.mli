(** The hand-written autopilot runtime kernel (AVR assembly).

    Implements the fixed part of every generated firmware: reset and data
    initialization, the main control loop with watchdog feeds, a complete
    MAVLink v1 receive state machine with CRC checking, telemetry
    transmission, sensor sampling, vtable dispatch — and, deliberately,
    the paper's two gadgets:

    - the PARAM_SET handler's frame teardown is byte-for-byte the Fig. 4
      [stk_move] gadget ([out 0x3e,r29; out 0x3f,r0; out 0x3d,r28;
      pop r28; pop r29; pop r16; ret]);
    - [param_store]'s tail is byte-for-byte the Fig. 5 [write_mem_gadget]
      ([std Y+1..Y+3; sixteen pops; ret]).

    The handler's payload copy omits the MAVLink length check when the
    toolchain is [vulnerable] — the artificial bug of §IV-B. *)

(** Names of runtime functions, in layout order. *)
val function_names : string list

(** [vectors ()] is the interrupt vector table plus the early-flash
    rodata (.data initializer and the CRC_EXTRA table, kept below 64 KB so
    16-bit [lpm] reaches them). *)
val vectors : unit -> Mavr_asm.Assembler.item list

(** [functions ~toolchain ~roots ()] is the kernel's function list;
    [roots] are the generated functions the control step calls. *)
val functions :
  toolchain:Profile.toolchain -> roots:string list -> unit -> Mavr_asm.Assembler.func list

(** [defines] : the SRAM address constants used by the kernel. *)
val defines : (string * int) list

(** {2 Test hooks}

    Labels used only by the tests, to find the paper's gadgets in an
    assembled build (resolved via {!Mavr_asm.Assembler.label_value}). *)

val label_stk_move : string
(** First instruction of the Fig. 4 teardown/gadget. *)

val label_write_mem : string
(** First [std] of the Fig. 5 gadget. *)

val label_write_mem_pops : string
(** The gadget's pop run (the "second half" the attack enters first). *)
