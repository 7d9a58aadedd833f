(** AVR execution engine with cycle accounting.

    Executes real machine code from flash with the Harvard restrictions of
    the APM platform (Fig. 1 of the paper): the PC can only address flash,
    data writes can never reach flash (only {!load_program} and the
    bootloader's {!flash_write_page} can), and the register file / stack
    pointer are memory-mapped in the data space.  The CPU owns all of that
    state: flash, the data space (register file at 0x00–0x1F — the
    mapping both paper gadgets exploit — the 64 I/O registers, and SRAM)
    and EEPROM.  Includes the on-chip peripherals the MAVR system
    interacts with: a UART (the MAVLink transport), the watchdog-feed port
    observed by the master processor, and memory-mapped sensor registers.

    A wild return (the signature of a failed ROP attempt, §V-D) eventually
    decodes an illegal word or leaves flash, halting the CPU with a fault
    — the behaviour the master processor's failed-attack detector keys
    on.

    Two engines execute the same instructions: a stepper (one decoded
    instruction at a time, through the predecode cache) and fused
    superblocks (below).  Each instruction's semantics is written once
    and shared by both, and each static cycle cost comes from one table;
    the engines differ only in when they charge it. *)

(** Why execution stopped. *)
type halt =
  | Illegal_instruction of { byte_addr : int; word : int }
      (** decoded an unimplemented/garbage word — "executing garbage" *)
  | Wild_pc of int  (** PC left the programmed flash region (byte addr) *)
  | Break_hit  (** [break] instruction *)
  | Sleep_mode  (** [sleep] instruction *)
  | Rop_detected of { expected : int; got : int }
      (** shadow-stack mismatch on [ret] (byte addresses) — only with the
          runtime-monitoring baseline defense enabled *)

val pp_halt : Format.formatter -> halt -> unit

type t

(** [create ()] makes an ATmega2560 with erased flash and no program
    ({!program_size} 0: running it halts at once on a wild PC).

    Test hook: [device] emulates another part.  The superblock
    differential tests run the master's ATmega1284P, whose 2-byte PC
    changes what calls and returns push and cost. *)
val create : ?device:Device.t -> unit -> t

val device : t -> Device.t

(** [load_program t image] flashes [image] at address 0 (erasing the rest
    of flash) and resets.
    @raise Invalid_argument if the image exceeds flash. *)
val load_program : t -> string -> unit

(** [flash_write_page t ~page_addr data] emulates bootloader/SPM page
    programming.  [page_addr] must be page-aligned and [data] exactly one
    page.  Like {!load_program} it drops every decode and compiled block
    at once, so the next instruction executed — even within the current
    {!run}, when called from a tap — is the new code.
    @raise Invalid_argument on an unaligned page, a wrong page size, or a
    page beyond flash. *)
val flash_write_page : t -> page_addr:int -> string -> unit

(** [flash_byte t addr] reads program flash (0xFF outside it). *)
val flash_byte : t -> int -> int

(** [reset t] : PC ← 0, SP ← top of SRAM, SREG ← 0, halt cleared, cycle
    counter zeroed.  Peripheral state is also re-initialized: the UART
    RX queue and TX buffer are drained and the watchdog-feed /
    interrupt counters zeroed, so a reflashed lifetime starts clean
    rather than inheriting the previous lifetime's half-received bytes.
    Register file and SRAM are preserved (as on real hardware after an
    external reset). *)
val reset : t -> unit

(** {2 State accessors} *)

val pc : t -> int  (** program counter, in words *)

val pc_byte_addr : t -> int

val sp : t -> int  (** stack pointer (data-space address) *)

(** Lowest SP value ever observed on this CPU (any write path: pushes,
    calls, interrupt entry, direct SPL/SPH stores), i.e. the deepest
    stack excursion.  Maintained by the engine itself so it is exact
    under both single-step and superblock execution; [max_int] until the
    first SP write.  Spans reflash lifetimes (not cleared by
    {!reset}). *)
val sp_watermark : t -> int

val reg : t -> int -> int
val sreg : t -> int
val cycles : t -> int
val instructions_retired : t -> int

(** Byte extent of the currently flashed image (the PC wild-jump bound);
    fault injectors use it to aim flash upsets at live code rather than
    erased cells. *)
val program_size : t -> int
val halted : t -> halt option

(** {2 Probe accounting}

    What {!Mavr_avr.Probes} builds on.  Once {!start_accounting} turns it
    on, the engine itself counts every compiled block's executions per
    retired-prefix length and every single-stepped instruction per
    mnemonic, and appends each block, stepped instruction and interrupt
    to a ring of recent events, stamped with the cycle counter.  All of
    it is inline in the engine's block, step and interrupt paths, behind
    one flag: an accounted block costs two increments and two stores, with
    no call and no closure; with accounting off, one flag test.  The
    interrupt and halt taps below are off those paths. *)

(** A compiled superblock: a small dense key, unique per compiled block
    within a CPU's life (reflashes recompile under new keys), its entry
    word address, its per-instruction decodes, and [bi_execs.(n)], the
    executions since {!start_accounting} that retired exactly the first
    [n] instructions (index 0 unused). *)
type block_info = private {
  bi_key : int;
  bi_pc : int;
  bi_insns : Isa.t array;
  bi_execs : int array;
}

(** [start_accounting t ~window] turns accounting on and counts from
    zero: every block's execution counts, the stepped counts and the
    event ring, which keeps at least the last [window] events. *)
val start_accounting : t -> window:int -> unit

(** An accounted event: a block ran (stamped after it), an instruction
    was stepped (stamped before it; word [pc], {!Isa.mnemonics} index),
    or the timer interrupt was taken (stamped at vector entry, with its
    dispatch latency as for {!set_irq_tap}). *)
type event = Block of block_info | Step of { pc : int; mnemonic : int } | Irq of { latency : int }

(** [take_events t ~last f] hands over the events appended since the
    previous call, oldest first: [f ~cycle e] for the newest [last] of
    them (at most the ring's window), and returns how many older ones it
    passed over. *)
val take_events : t -> last:int -> (cycle:int -> event -> unit) -> int

(** Events appended since {!start_accounting}: it moves whenever a count
    does. *)
val events_noted : t -> int

(** Every block compiled on this CPU, by key. *)
val blocks_compiled : t -> block_info array

(** Single-stepped instructions since {!start_accounting}, by
    {!Isa.mnemonics} index. *)
val stepped_counts : t -> int array

(** [set_irq_tap t (Some f)] — [f ~latency ~masked] fires when an
    interrupt is taken: [latency] is the hardware dispatch latency
    (cycles from the compare match — or from the [sei] that unmasked it,
    whichever is later — to vector entry), [masked] the cycles the
    pending interrupt spent blocked on a cleared I flag.  Their sum is
    the total compare-to-dispatch delay. *)
val set_irq_tap : t -> (latency:int -> masked:int -> unit) option -> unit

(** [set_halt_tap t (Some f)] — [f halt] fires exactly once per fault,
    whichever execution path raised it (including {!force_halt}).  This
    is the flight-recorder dump trigger. *)
val set_halt_tap : t -> (halt -> unit) option -> unit

(** {2 Execution} *)

(** [step t] executes one instruction (no-op when halted). *)
val step : t -> unit

(** [run t ~max_cycles] executes batched until halt or until at least
    [max_cycles] cycles have elapsed since the call.  Dispatch goes
    through fused superblocks when enabled (below), falling back to the
    predecode cache per instruction.

    Budget contract: the budget saturates (a [max_cycles] of [max_int]
    means "run until halt" and never wraps into an instant
    [`Budget_exhausted]), and execution stops at the first block
    boundary at-or-after the budget — the overshoot is bounded by one
    superblock (or, when single-stepping, one instruction plus one
    interrupt dispatch). *)
val run : t -> max_cycles:int -> [ `Halted of halt | `Budget_exhausted ]

(** [run_until_halt t ~max_cycles] is {!run} for callers that only care
    whether the CPU faulted: [Some halt] on a fault within the budget,
    [None] when the budget is exhausted with the CPU still healthy. *)
val run_until_halt : t -> max_cycles:int -> halt option

(** [run_until t ~max_cycles pred] additionally stops when [pred t]
    becomes true.  The predicate is observed between {e instructions},
    so this entry point always single-steps regardless of the
    superblock switch. *)
val run_until :
  t -> max_cycles:int -> (t -> bool) -> [ `Pred | `Halted of halt | `Budget_exhausted ]

(** {2 Predecode cache}

    Flash is decoded at most once per word address per lifetime: decoded
    instructions are memoized in an array indexed by word PC (covering
    every word offset, since ROP gadgets enter mid-instruction) and
    dropped by every flash write — {!load_program} or
    {!flash_write_page} — so a freshly randomized image never executes
    a stale decode.  Each entry also carries the instruction's static
    cycle cost, so a cached step matches on the instruction once.  It is
    always on: every stepped instruction goes through it. *)

(** {2 Superblock threaded-code engine}

    The batched loops compile traces of instructions along the
    predicted path into continuation-threaded closures — one closure per
    body instruction, with PC updates, retirement counting, interrupt
    polling and probe accounting hoisted to block boundaries.  A body
    closure runs the same inlined semantics the stepper runs, and a
    trace's final control-transfer, skip or halting instruction runs
    the stepper's own dispatch, so no instruction is written twice.
    Static cycle costs are summed at compile time from the stepper's
    cost table and charged only where the clock can be observed.

    Blocks are compiled only where they will be entered: a word address
    with no block is single-stepped and its entries counted, and its
    trace is compiled on the 16th entry, once that entry is at least 128
    cycles (twice {!max_block_insns}) clear of the next enabled compare
    match and of the run budget.  Both are fixed constants.

    Observable semantics are bit-identical to single-[step] execution: a
    block is entered only when the worst-case cycles of every
    instruction before its last (plus the shadow-stack overhead of the
    static calls among them) end before the next enabled compare match
    and before the run budget — a stepping engine can only take the
    interrupt or stop at an instruction boundary, and the block's exit
    is checked again.  Any in-block write that could change that (timer
    re-arm, SREG.I set) exits the block after the writing instruction.
    Compiled blocks and entry counts are dropped by every flash write,
    exactly like the predecode cache, so reflash and SEU page writes
    never execute stale fused code.  Enabled by default;
    the switch may be flipped at any time, including from a tap callback
    mid-run, and takes effect at the next block boundary. *)

(** Process-wide default consulted by {!create} — lets a campaign
    driver flip every subsequently created CPU (including those built
    inside worker domains) without threading a flag through the
    scenario layers. *)
val set_superblocks_default : bool -> unit

(** {2 Peripherals} *)

(** [uart_send t s] queues bytes for the device to receive. *)
val uart_send : t -> string -> unit

(** [uart_take_tx t] drains and returns bytes the device transmitted. *)
val uart_take_tx : t -> string

(** Watchdog feeds: count and cycle time of the most recent [out] to
    {!Device.Io.wdt_feed}. *)
val watchdog_feeds : t -> int

val last_feed_cycles : t -> int

(** Host-side I/O register write (e.g. the simulator setting the gyro
    sensor registers). *)
val io_poke : t -> int -> int -> unit

(** Host-side data-space access. *)
val data_peek : t -> int -> int

val data_poke : t -> int -> int -> unit

(** [stack_slice t ~pos ~len] is a window of the data space, used for the
    Fig. 6 stack-progression dumps. *)
val stack_slice : t -> pos:int -> len:int -> string

(** {2 Runtime-monitoring baseline defense (the §IX comparison)}

    A DROP/ROPdefender-class shadow stack: every call pushes the return
    address to a protected side stack and every [ret] checks against it —
    detecting ROP at the first corrupted return, but charging
    [overhead_cycles] per call and per return, the instrumentation cost
    such software monitors would impose on the real AVR.  The paper
    rejects this class of defense because the APM runs at ~96 % CPU; the
    emulated cost makes that trade-off measurable. *)

(** [enable_shadow_stack t ~overhead_cycles] turns the monitor on (it
    also resets the shadow stack; call right after [load_program]). *)
val enable_shadow_stack : t -> overhead_cycles:int -> unit

(** {2 Test hooks}

    Used only by the tests: they set machine state directly, fault the
    CPU, watch every block and stepped instruction through the block tap
    (the decode oracle, flash writes mid-run, the probes' per-event
    reference), switch superblocks off as the reference engine, pace
    the UART, and observe state the firmware or a fault leaves
    behind. *)

val set_pc : t -> int -> unit

val set_sp : t -> int -> unit

val set_reg : t -> int -> int -> unit

(** Force a halt state (used by fault-injection tests).  Fires the halt
    tap like any organic fault. *)
val force_halt : t -> halt -> unit

(** [set_block_tap t ~on_block ~on_step] installs a boundary-grained
    tap: when the superblock engine executes a block, [on_block info
    count] fires once {e after} it, with [count] the number of
    instructions actually retired from [info]; whenever the engine
    single-steps instead, [on_step pc insn] fires before each
    instruction, with [pc] its {e word} address.  Installing or clearing
    the tap from inside a callback takes effect at the next block
    boundary, and a callback may write flash. *)
val set_block_tap :
  t -> on_block:(block_info -> int -> unit) -> on_step:(int -> Isa.t -> unit) -> unit

val clear_block_tap : t -> unit

val block_tap_active : t -> bool

val set_superblocks : t -> bool -> unit

(** [set_uart_tx_pacing t ~cycles_per_byte] models the transmitter's wire
    rate: after each byte the data register stays busy (UCSRA bit 5
    clear) for that many cycles, and writes during the busy window are
    dropped — as on real hardware.  0 (the default) transmits
    instantly. *)
val set_uart_tx_pacing : t -> cycles_per_byte:int -> unit

(** [uart_rx_pending t] is the number of undelivered host→device bytes. *)
val uart_rx_pending : t -> int

(** Host-side I/O register read, without peripheral side effects. *)
val io_peek : t -> int -> int

(** Copy of the whole flash, for checking what a fault or a reflash left
    there. *)
val flash_contents : t -> string

(** Host-side EEPROM access (the persistent configuration memory; survives
    reflashing, unlike program flash). *)
val eeprom_peek : t -> int -> int

(** Depth of the shadow stack (0 when disabled or at top level). *)
val shadow_depth : t -> int

(** Timer-compare interrupts serviced since reset.  The timer is enabled
    by firmware writing bit 0 of {!Device.Io.tccr}; the period is
    [(OCR + 1) * 64] cycles and the handler runs through interrupt
    vector {!Device.Vector.timer_compare}. *)
val interrupts_taken : t -> int
