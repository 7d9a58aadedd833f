open Isa

type halt =
  | Illegal_instruction of { byte_addr : int; word : int }
  | Wild_pc of int
  | Break_hit
  | Sleep_mode
  | Rop_detected of { expected : int; got : int }

let pp_halt fmt = function
  | Illegal_instruction { byte_addr; word } ->
      Format.fprintf fmt "illegal instruction 0x%04x at 0x%x" word byte_addr
  | Wild_pc a -> Format.fprintf fmt "wild PC at 0x%x" a
  | Break_hit -> Format.fprintf fmt "break"
  | Sleep_mode -> Format.fprintf fmt "sleep"
  | Rop_detected { expected; got } ->
      Format.fprintf fmt "shadow-stack violation: ret to 0x%x, expected 0x%x" got expected

(* A compiled superblock's identity and execution counts: enough for
   the telemetry layer to account for every instruction the block
   retires without per-instruction work.  [bi_key] is unique per
   compiled block (never reused within a CPU lifetime) and indexes
   [compiled]; [bi_execs.(n)] counts the executions that retired the
   first [n] instructions, while accounting is on. *)
type block_info = {
  bi_key : int;
  bi_pc : int; (* entry word address *)
  bi_insns : Isa.t array;
  bi_execs : int array;
}

(* The whole machine state of Fig. 1 in one record.  Program flash and
   the data space are separate arrays (Harvard: nothing executed can
   write flash; only [load_program] and [flash_write_page], the
   bootloader's interface, can).  The data space holds the register file
   at 0x00..0x1F — the mapping both paper gadgets exploit — the I/O
   file and SRAM. *)
type t = {
  dev : Device.t;
  flash : Bytes.t;
  data : Bytes.t;
  eeprom : Bytes.t;
  mutable pc : int; (* word address *)
  mutable cycles : int;
  mutable retired : int;
  mutable halt : halt option;
  (* Extent of the flashed image, 0 until [load_program]: PC beyond =>
     wild.  The decode and block tables span (program_bytes + 1) / 2
     words at all times ([drop_code]). *)
  mutable program_bytes : int;
  uart_rx : int Queue.t;
  uart_tx : Buffer.t;
  mutable feeds : int;
  mutable last_feed : int;
  mutable shadow : int list option; (* Some stack when the monitor is on *)
  mutable shadow_overhead : int;
  mutable timer_next_fire : int; (* cycle of the next compare interrupt *)
  mutable i_up_cycle : int; (* cycle at which SREG.I last rose 0 -> 1 *)
  mutable interrupts_taken : int;
  mutable tx_cycles_per_byte : int;
  mutable tx_busy_until : int;
  (* Predecode cache: one entry per word PC.  [icache_meta.(pc)] packs
     the instruction length in words (1 or 2, the low two bits), its
     static cycle cost ([insn_cycles], the next four) and its mnemonic
     index (the bits above, for probe accounting), with 0 meaning
     "not decoded yet"; [icache_insn.(pc)] is only meaningful when the
     entry is non-zero.  Entries are filled on first execution and the
     whole cache is discarded by every flash write (reflash / bootloader
     page write), so a freshly randomized lifetime can never dispatch a
     stale decode. *)
  mutable icache_insn : Isa.t array;
  mutable icache_meta : int array;
  (* Superblock engine: straight-line runs of instructions fused into
     closure arrays ([block]), compiled lazily at a word address the
     batched run loop has entered [hot_entries] times ([block_hits]
     counts the entries of addresses with no block yet) and indexed by
     entry PC.  Like the predecode cache the whole table, counters
     included, is discarded by every flash write, so reflashes and SEU
     page writes can never execute stale fused code.  [block_stop]
     is raised by [io_write] when a guest store re-arms the timer or
     sets SREG.I mid-block — the two events that can make the remainder
     of a fused block unsound — and makes the block exit after the
     current instruction. *)
  mutable blocks : block array;
  mutable block_hits : Bytes.t; (* entries of each word with no block, saturating *)
  mutable block_keys : int; (* next bi_key to assign *)
  mutable use_superblocks : bool;
  mutable block_stop : bool;
  mutable block_insns : int; (* executed prefix length of the last fused block *)
  (* SREG and SP are architecturally memory-mapped (0x5F / 0x5D-0x5E) but
     live here as plain ints: the flag helpers touch SREG on nearly every
     instruction and the stack pointer on every push/pop, so routing them
     through the byte array costs bounds checks and char conversions on
     the hottest path.  [io_read]/[io_write] intercept their I/O addresses
     so guest loads/stores still see the same values. *)
  mutable sreg_v : int;
  mutable sp_v : int;
  (* Deepest stack pointer ever written (the stack high-water mark).
     Tracked by the engine itself — on SP writes, not by sampling the
     instruction stream — so the value is bit-identical whether the
     telemetry taps fire per instruction or per superblock. *)
  mutable sp_min : int;
  (* Probe accounting ([start_accounting]), kept by the engine itself so
     an instrumented block costs two increments and two stores, with no
     call: per-block execution counts ([bi_execs]), stepped instructions
     per mnemonic ([stepped]), and every block, step and interrupt
     appended to [ring] as a (code, cycle) pair.  [ring] holds a power of
     two of events; [noted] counts the events ever appended and [taken]
     those handed over by [take_events]. *)
  mutable acct : bool;
  mutable stepped : int array;
  mutable ring : int array;
  mutable ring_mask : int;
  mutable noted : int;
  mutable taken : int;
  mutable compiled : block_info array; (* every block compiled, by [bi_key] *)
  (* Test taps.  The block tap is guarded by a plain bool ([tap_on]) with
     no-op closures behind it, so with no tap each block and each
     single-stepped instruction pays one load and one predictable
     branch.  The interrupt and halt taps sit on cold paths and stay
     options. *)
  mutable tap_on : bool;
  mutable tap_step : int -> Isa.t -> unit; (* word PC of the insn, decoded insn *)
  mutable tap_block : block_info -> int -> unit; (* block, instructions executed *)
  mutable tap_irq : (latency:int -> masked:int -> unit) option;
  mutable tap_halt : (halt -> unit) option;
}

(* One fused superblock: a *trace* compiled to continuation-threaded
   code.  [b_entry] is the first instruction's closure; each closure
   performs its instruction's semantics and tail-calls the next, so a
   straight-line run costs one indirect call per instruction and no
   dispatch.  Cycle accounting is batched at compile time: pure
   ALU/transfer closures never touch [t.cycles] — the accumulated
   constant is flushed immediately before any operation that can
   observe the clock (I/O reads/writes, data-space access, the
   terminator) and on every side exit, so every observer sees exactly
   the value the stepping engine would show it.  Every exit path
   (predicted-branch fall-out, skip taken, [block_stop] after an I/O
   write, terminator) writes [t.pc], credits [t.retired] once, and
   records the executed prefix length in [t.block_insns] for the block
   tap.  [b_lead] bounds the cycles from entry to the start of the
   trace's last instruction — the span in which a stepping engine would
   reach an internal instruction boundary, where a timer interrupt or
   the run budget could stop it (used to keep both out of fused runs);
   [b_lead_calls] counts the static calls in that span, whose
   shadow-stack overhead is added to the bound at entry time. *)
and block = {
  b_info : block_info;
  b_entry : t -> unit;
  b_lead : int;
  b_lead_calls : int;
}

let dummy_block_info = { bi_key = -1; bi_pc = -1; bi_insns = [||]; bi_execs = [||] }

let dummy_block =
  { b_info = dummy_block_info; b_entry = (fun _ -> ()); b_lead = 0; b_lead_calls = 0 }

let no_step_tap _ _ = ()
let no_block_tap _ _ = ()

(* Process-wide default for new CPUs, so harness layers (campaign CLI,
   benchmarks) can flip the engine without threading a parameter through
   every scenario constructor.  Read once, in [create]. *)
let superblocks_default = ref true
let set_superblocks_default v = superblocks_default := v

let create ?(device = Device.atmega2560) () =
  {
    dev = device;
    flash = Bytes.make device.Device.flash_bytes '\xff';
    data = Bytes.make (Device.data_end device) '\x00';
    eeprom = Bytes.make device.Device.eeprom_bytes '\xff';
    pc = 0;
    cycles = 0;
    retired = 0;
    halt = None;
    program_bytes = 0;
    uart_rx = Queue.create ();
    uart_tx = Buffer.create 256;
    feeds = 0;
    last_feed = 0;
    shadow = None;
    shadow_overhead = 0;
    timer_next_fire = max_int;
    i_up_cycle = 0;
    interrupts_taken = 0;
    tx_cycles_per_byte = 0;
    tx_busy_until = 0;
    icache_insn = [||];
    icache_meta = [||];
    blocks = [||];
    block_hits = Bytes.empty;
    block_keys = 0;
    use_superblocks = !superblocks_default;
    block_stop = false;
    block_insns = 0;
    sreg_v = 0;
    sp_v = 0;
    sp_min = max_int;
    acct = false;
    stepped = [||];
    ring = [||];
    ring_mask = 0;
    noted = 0;
    taken = 0;
    compiled = [||];
    tap_on = false;
    tap_step = no_step_tap;
    tap_block = no_block_tap;
    tap_irq = None;
    tap_halt = None;
  }

let device t = t.dev

(* Register file: memory-mapped at data 0x00..0x1F, always inside the
   data array, so no range test.  The [land 31] keeps a hand-built
   out-of-range register number memory safe. *)
let[@inline] reg t r = Char.code (Bytes.unsafe_get t.data (r land 31))
let[@inline] set_reg t r v = Bytes.unsafe_set t.data (r land 31) (Char.unsafe_chr (v land 0xFF))

(* Raw memory access, no I/O side effects: reads outside an array give
   0 (EEPROM and flash: the erased 0xFF), writes there are dropped. *)
let data_get t addr =
  if addr < 0 || addr >= Bytes.length t.data then 0 else Char.code (Bytes.get t.data addr)

let data_set t addr v =
  if addr >= 0 && addr < Bytes.length t.data then
    Bytes.set t.data addr (Char.unsafe_chr (v land 0xFF))

let eeprom_get t addr =
  if addr < 0 || addr >= Bytes.length t.eeprom then 0xFF else Char.code (Bytes.get t.eeprom addr)

let eeprom_set t addr v =
  if addr >= 0 && addr < Bytes.length t.eeprom then
    Bytes.set t.eeprom addr (Char.chr (v land 0xFF))

let flash_byte t addr =
  if addr < 0 || addr >= Bytes.length t.flash then 0xFF else Char.code (Bytes.get t.flash addr)

let flash_word t word_addr =
  let b = word_addr * 2 in
  flash_byte t b lor (flash_byte t (b + 1) lsl 8)

let flash_contents t = Bytes.to_string t.flash

let io_addr t a = t.dev.Device.io_base + a
let sp t = t.sp_v

let[@inline] set_sp t v =
  let v = v land 0xFFFF in
  t.sp_v <- v;
  if v < t.sp_min then t.sp_min <- v

let sp_watermark t = t.sp_min
let[@inline] sreg t = t.sreg_v
let[@inline] set_sreg t v = t.sreg_v <- v land 0xFF
let pc t = t.pc
let pc_byte_addr t = t.pc * 2
let set_pc t v = t.pc <- v
let cycles t = t.cycles
let instructions_retired t = t.retired
let halted t = t.halt

(* Single halt funnel: every path that stops the CPU goes through here so
   the halt tap (the flight-recorder dump trigger) fires exactly once per
   fault, whichever execution entry point was driving. *)
let set_halt t h =
  t.halt <- Some h;
  match t.tap_halt with None -> () | Some f -> f h

let force_halt t h = set_halt t h

(* ---- Probe accounting ----------------------------------------------- *)

(* Ring event codes: the low two bits say what ran, the rest is its
   payload — a block's key, a step's word pc and mnemonic index, an
   interrupt's dispatch latency. *)
let ev_block = 0
let ev_step = 1
let ev_irq = 2

let[@inline] note t code =
  let i = (t.noted lsl 1) land t.ring_mask in
  Array.unsafe_set t.ring i code;
  Array.unsafe_set t.ring (i + 1) t.cycles;
  t.noted <- t.noted + 1

let start_accounting t ~window =
  let rec pow2 n = if n >= window then n else pow2 (2 * n) in
  let cap = pow2 1 in
  t.ring <- Array.make (2 * cap) 0;
  t.ring_mask <- (2 * cap) - 1;
  t.noted <- 0;
  t.taken <- 0;
  t.stepped <- Array.make (Array.length Isa.mnemonics) 0;
  for k = 0 to t.block_keys - 1 do
    let e = t.compiled.(k).bi_execs in
    Array.fill e 0 (Array.length e) 0
  done;
  t.acct <- true

type event = Block of block_info | Step of { pc : int; mnemonic : int } | Irq of { latency : int }

let take_events t ~last f =
  let pending = t.noted - t.taken in
  let n = min pending (min last ((t.ring_mask + 1) / 2)) in
  t.taken <- t.noted;
  for k = t.noted - n to t.noted - 1 do
    let i = (k lsl 1) land t.ring_mask in
    let code = t.ring.(i) in
    let p = code asr 2 in
    f ~cycle:t.ring.(i + 1)
      (if code land 3 = ev_block then Block t.compiled.(p)
       else if code land 3 = ev_step then Step { pc = p lsr 7; mnemonic = p land 127 }
       else Irq { latency = p })
  done;
  pending - n

let events_noted t = t.noted
let blocks_compiled t = Array.sub t.compiled 0 t.block_keys
let stepped_counts t = Array.copy t.stepped

(* ---- Test taps ------------------------------------------------------ *)

(* The block tap observes whole superblocks, with its [on_step]
   callback covering the instructions the engine executes one at a time
   (timer-near windows, budget edges, superblocks off).  Installing or
   clearing it takes effect at the next block boundary — compiled blocks
   never embed tap state, so there is no stale fused code to worry
   about. *)

let set_block_tap t ~on_block ~on_step =
  t.tap_block <- on_block;
  t.tap_step <- on_step;
  t.tap_on <- true

let clear_block_tap t =
  t.tap_on <- false;
  t.tap_step <- no_step_tap;
  t.tap_block <- no_block_tap

let block_tap_active t = t.tap_on
let set_irq_tap t f = t.tap_irq <- f
let set_halt_tap t f = t.tap_halt <- f

let reset t =
  (match t.shadow with Some _ -> t.shadow <- Some [] | None -> ());
  t.timer_next_fire <- max_int;
  t.i_up_cycle <- 0;
  t.block_stop <- false;
  t.pc <- 0;
  t.cycles <- 0;
  t.retired <- 0;
  t.halt <- None;
  (* Cycle-anchored peripheral state must restart with the clock, or a
     reflashed CPU would see a transmitter busy for an entire previous
     lifetime and a watchdog that never times out. *)
  t.tx_busy_until <- 0;
  t.last_feed <- 0;
  (* Likewise the UART FIFOs and event counters: a reflashed lifetime
     must not inherit the previous lifetime's pending RX bytes (a
     half-received attack payload would replay into the fresh image),
     untaken TX bytes, or watchdog/interrupt tallies. *)
  Queue.clear t.uart_rx;
  Buffer.clear t.uart_tx;
  t.feeds <- 0;
  t.interrupts_taken <- 0;
  (* [sp_min] is deliberately *not* cleared: the high-water mark spans
     reflash lifetimes, matching the attach-lifetime watermark the
     telemetry layer reports. *)
  set_sp t (Device.data_end t.dev - 1);
  set_sreg t 0

(* ---- Flash writes ---------------------------------------------------- *)

(* Drop every decode, compiled block and entry count, and size the
   tables to the flashed image.  The two flash mutation paths call it, so
   the tables only ever hold decodes of flash as it is now — even when a
   tap callback rewrites flash in the middle of a run — and always span
   (program_bytes + 1) / 2 words, the bound the unchecked indexing in
   [step_at] and [run] relies on.  Same-size tables (the next
   layout of one image) are cleared in place. *)
let drop_code t =
  let nwords = (t.program_bytes + 1) / 2 in
  if Array.length t.icache_meta = nwords then begin
    Array.fill t.icache_meta 0 nwords 0;
    Array.fill t.blocks 0 nwords dummy_block;
    Bytes.fill t.block_hits 0 nwords '\000'
  end
  else begin
    t.icache_meta <- Array.make nwords 0;
    t.icache_insn <- Array.make nwords Isa.Nop;
    t.blocks <- Array.make nwords dummy_block;
    t.block_hits <- Bytes.make nwords '\000'
  end

let load_program t image =
  if String.length image > Bytes.length t.flash then
    invalid_arg "Cpu.load_program: image larger than flash";
  Bytes.fill t.flash 0 (Bytes.length t.flash) '\xff';
  Bytes.blit_string image 0 t.flash 0 (String.length image);
  t.program_bytes <- String.length image;
  drop_code t;
  reset t

let flash_write_page t ~page_addr data =
  let page = t.dev.Device.flash_page_bytes in
  if page_addr mod page <> 0 then invalid_arg "Cpu.flash_write_page: unaligned page";
  if String.length data <> page then invalid_arg "Cpu.flash_write_page: bad page size";
  if page_addr + page > Bytes.length t.flash then invalid_arg "Cpu.flash_write_page: beyond flash";
  Bytes.blit_string data 0 t.flash page_addr page;
  drop_code t

(* ---- Cycle costs ----------------------------------------------------- *)

(* The static cycle cost of every instruction, in one table: what it
   takes with no branch taken, no skip and no shadow-stack monitor.
   Those dynamic extras are charged where they happen ([branch],
   [skip_next], [shadow_call]/[shadow_ret]).  The stepper reads the cost
   from its decode cache, the trace compiler at compile time. *)
let insn_cycles (dev : Device.t) (insn : Isa.t) =
  let long_pc = dev.Device.pc_bytes = 3 in
  match insn with
  | Mul _ | Adiw _ | Sbiw _ | Push _ | Pop _ | Lds _ | Sts _ | Ldd _ | Std _ | Ld _ | St _
  | Sbi _ | Cbi _ | Ijmp | Rjmp _ ->
      2
  | Lpm0 | Lpm _ | Elpm0 | Elpm _ | Jmp _ -> 3
  | Icall | Rcall _ -> if long_pc then 4 else 3
  | Ret | Reti | Call _ -> if long_pc then 5 else 4
  | _ -> 1

(* ---- Predecode cache ------------------------------------------------ *)

(* Entries are decoded lazily on first execution: per-lifetime
   randomized images rarely execute every word, and ROP gadgets enter
   mid-instruction, so the cache must cover *every* word address rather
   than just a linear disassembly — lazy fill gives both for free. *)
let decode_raw t pc = Decode.decode (flash_word t pc) (flash_word t (pc + 1))

(* Decode word address [pc] and store it in the cache (in-range [pc]
   only).  Returns the packed length, cost and mnemonic index. *)
let fill_entry t pc =
  let insn, words = decode_raw t pc in
  let meta = words lor (insn_cycles t.dev insn lsl 2) lor (Isa.mnemonic_index insn lsl 6) in
  Array.unsafe_set t.icache_insn pc insn;
  Array.unsafe_set t.icache_meta pc meta;
  meta

(* Fetch the (insn, length-in-words) pair at word address [pc].
   [skip_next] can probe one word past the programmed image;
   out-of-range addresses fall back to a raw decode of the (erased)
   flash there. *)
let fetch t pc =
  if pc >= 0 && pc < Array.length t.icache_meta then begin
    let meta = Array.unsafe_get t.icache_meta pc in
    let meta = if meta <> 0 then meta else fill_entry t pc in
    (Array.unsafe_get t.icache_insn pc, meta land 3)
  end
  else decode_raw t pc

(* I/O-aware data-space access: reads/writes to the I/O file trigger
   peripheral behaviour; everything else is plain memory (including the
   register file, which is how the write_mem gadget corrupts state). *)
let io_read t a =
  if a = Device.Io.udr then (if Queue.is_empty t.uart_rx then 0 else Queue.pop t.uart_rx)
  else if a = Device.Io.ucsra then
    (if Queue.is_empty t.uart_rx then 0 else 0x80)
    lor (if t.cycles >= t.tx_busy_until then 0x20 else 0)
  else if a = Device.Io.sreg then t.sreg_v
  else if a = Device.Io.spl then t.sp_v land 0xFF
  else if a = Device.Io.sph then (t.sp_v lsr 8) land 0xFF
  else data_get t (io_addr t a)

let io_write t a v =
  if a = Device.Io.udr then begin
    (* Writes during the busy window are lost, as on the real part. *)
    if t.cycles >= t.tx_busy_until then begin
      Buffer.add_char t.uart_tx (Char.chr (v land 0xFF));
      t.tx_busy_until <- t.cycles + t.tx_cycles_per_byte
    end
  end
  else if a = Device.Io.wdt_feed then begin
    t.feeds <- t.feeds + 1;
    t.last_feed <- t.cycles;
    data_set t (io_addr t a) v
  end
  else if a = Device.Io.tccr then begin
    data_set t (io_addr t a) v;
    if v land 1 <> 0 then begin
      let period = (data_get t (io_addr t Device.Io.ocr) + 1) * 64 in
      t.timer_next_fire <- t.cycles + period
    end
    else t.timer_next_fire <- max_int;
    (* Re-arming the timer invalidates the no-interrupt-within-this-block
       guarantee a running superblock was entered under. *)
    t.block_stop <- true
  end
  else if a = Device.Io.sreg then begin
    if v land 0x80 <> 0 then begin
      if t.sreg_v land 0x80 = 0 then t.i_up_cycle <- t.cycles;
      (* Setting I mid-block could unmask a pending compare match. *)
      t.block_stop <- true
    end;
    t.sreg_v <- v land 0xFF
  end
  else if a = Device.Io.spl then set_sp t (t.sp_v land 0xFF00 lor (v land 0xFF))
  else if a = Device.Io.sph then set_sp t ((v land 0xFF) lsl 8 lor (t.sp_v land 0xFF))
  else if a = Device.Io.eecr then begin
    (* EEPROM access, triggered by the EERE/EEPE strobe bits. *)
    let ear =
      data_get t (io_addr t Device.Io.eearl)
      lor (data_get t (io_addr t Device.Io.eearh) lsl 8)
    in
    if v land 0x01 <> 0 then
      (* EERE: read eeprom[EEAR] into EEDR (stalls the CPU 4 cycles). *)
      data_set t (io_addr t Device.Io.eedr) (eeprom_get t ear)
    else if v land 0x02 <> 0 then
      (* EEPE: program eeprom[EEAR] from EEDR. *)
      eeprom_set t ear (data_get t (io_addr t Device.Io.eedr));
    data_set t (io_addr t a) 0 (* strobes auto-clear *)
  end
  else data_set t (io_addr t a) v

let data_read_slow t addr =
  let io0 = t.dev.Device.io_base in
  if addr >= io0 && addr < io0 + 64 then io_read t (addr - io0) else data_get t addr

let data_write_slow t addr v =
  let io0 = t.dev.Device.io_base in
  if addr >= io0 && addr < io0 + 64 then io_write t (addr - io0) v
  else data_set t addr v

(* SRAM, above the 64 I/O registers, is what nearly every load, store,
   push and pop touches: it takes one range test and unchecked
   indexing, inline.  The register file, the I/O file and out-of-range
   addresses go the general way. *)
let[@inline] data_read t addr =
  if addr >= t.dev.Device.io_base + 64 && addr < Bytes.length t.data then
    Char.code (Bytes.unsafe_get t.data addr)
  else data_read_slow t addr

let[@inline] data_write t addr v =
  if addr >= t.dev.Device.io_base + 64 && addr < Bytes.length t.data then
    Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))
  else data_write_slow t addr v

let[@inline] push_byte t v =
  let p = t.sp_v in
  data_write t p v;
  set_sp t (p - 1)

let[@inline] pop_byte t =
  let p = t.sp_v + 1 in
  set_sp t p;
  data_read t p

(* Return addresses: low byte pushed first, so the address sits big-endian
   in memory (MSB at the lower address) — the layout ROP payloads encode. *)
let push_pc t addr =
  push_byte t (addr land 0xFF);
  push_byte t ((addr lsr 8) land 0xFF);
  if t.dev.Device.pc_bytes = 3 then push_byte t ((addr lsr 16) land 0xFF)

let pop_pc t =
  let hi = if t.dev.Device.pc_bytes = 3 then pop_byte t else 0 in
  let mid = pop_byte t in
  let lo = pop_byte t in
  (hi lsl 16) lor (mid lsl 8) lor lo

(* Shadow-stack hooks (§IX runtime-monitoring baseline). *)
let shadow_call t addr =
  match t.shadow with
  | None -> ()
  | Some stack ->
      t.shadow <- Some (addr :: stack);
      t.cycles <- t.cycles + t.shadow_overhead

let shadow_ret t got =
  match t.shadow with
  | None -> ()
  | Some [] -> t.cycles <- t.cycles + t.shadow_overhead (* returning past main: ignore *)
  | Some (expected :: rest) ->
      t.shadow <- Some rest;
      t.cycles <- t.cycles + t.shadow_overhead;
      if expected <> got then
        set_halt t (Rop_detected { expected = expected * 2; got = got * 2 })

(* Flag helpers. *)
let flag_bit = 1

let[@inline] get_flag t f = (sreg t lsr f) land 1 = flag_bit
let[@inline] carry t = t.sreg_v land 1

let set_flag t f v =
  let s = sreg t in
  set_sreg t (if v then s lor (1 lsl f) else s land lnot (1 lsl f))

(* Flag batching: [set_flag] costs a memory-mapped SREG read and write
   per flag, and the ALU instructions set up to six — a dozen byte
   accesses per instruction on the hot path.  These helpers compose the
   freshly computed bits and commit them with a single read-modify-write,
   preserving the net effect of the former per-flag sequences. *)
(* [b2i] relies on [false]/[true] being the immediates 0/1; unlike
   [if cond then 1 else 0] it compiles to straight-line code, so flag
   composition carries no data-dependent branches (these mispredict on
   real workloads and dominated the ALU hot path). *)
let b2i : bool -> int = Obj.magic

let[@inline] fbit f (cond : bool) = b2i cond lsl f

let mask_zns = (1 lsl Flag.z) lor (1 lsl Flag.n) lor (1 lsl Flag.s)
let mask_vzns = mask_zns lor (1 lsl Flag.v)
let mask_cvzns = mask_vzns lor (1 lsl Flag.c)
let mask_cvzn = mask_cvzns land lnot (1 lsl Flag.s)
let mask_hcvzns = mask_cvzns lor (1 lsl Flag.h)

let[@inline] update_flags t ~mask bits = set_sreg t (sreg t land lnot mask lor bits)

(* z/n/s for a 8-bit result given the (new) V flag; S = N xor V. *)
let[@inline] zns_bits r ~v =
  let n = r land 0x80 <> 0 in
  fbit Flag.z (r = 0) lor fbit Flag.n n lor fbit Flag.s (n <> v)

let[@inline] flags_add t d r res =
  let res8 = res land 0xFF in
  let c = (d land r) lor (r land lnot res) lor (lnot res land d) in
  let v = (d land r land lnot res lor (lnot d land lnot r land res)) land 0x80 <> 0 in
  update_flags t ~mask:mask_hcvzns
    (fbit Flag.h (c land 0x08 <> 0)
    lor fbit Flag.c (c land 0x80 <> 0)
    lor fbit Flag.v v lor zns_bits res8 ~v)

let[@inline] flags_sub ~keep_z t d r res =
  let s0 = sreg t in
  let res8 = res land 0xFF in
  let bw = (lnot d land r) lor (r land res) lor (res land lnot d) in
  let v = (d land lnot r land lnot res lor (lnot d land r land res)) land 0x80 <> 0 in
  let n = res8 land 0x80 <> 0 in
  let zb = b2i (res8 = 0) in
  (* [keep_z] is closure-constant (Cpc/Sbc/Sbci), so this branch is
     perfectly predicted; the Z computation itself stays branchless. *)
  let zb = if keep_z then zb land (s0 lsr Flag.z) land 1 else zb in
  set_sreg t
    (s0 land lnot mask_hcvzns
    lor fbit Flag.h (bw land 0x08 <> 0)
    lor fbit Flag.c (bw land 0x80 <> 0)
    lor fbit Flag.v v lor (zb lsl Flag.z) lor fbit Flag.n n
    lor fbit Flag.s (n <> v))

let[@inline] flags_logic t res = update_flags t ~mask:mask_vzns (zns_bits res ~v:false)

let[@inline] word_reg t r = reg t r lor (reg t (r + 1) lsl 8)

let[@inline] set_word_reg t r v =
  set_reg t r (v land 0xFF);
  set_reg t (r + 1) ((v lsr 8) land 0xFF)

let x_reg = 26
let y_reg = 28
let z_reg = 30

(* The effective address of an [ld]/[st], applying the pointer's
   pre-decrement or post-increment. *)
let ptr_access t p =
  let base, pre_dec, post_inc =
    match p with
    | X -> (x_reg, false, false)
    | X_inc -> (x_reg, false, true)
    | X_dec -> (x_reg, true, false)
    | Y_inc -> (y_reg, false, true)
    | Y_dec -> (y_reg, true, false)
    | Z_inc -> (z_reg, false, true)
    | Z_dec -> (z_reg, true, false)
  in
  let v = word_reg t base in
  let addr = if pre_dec then (v - 1) land 0xFFFF else v in
  if pre_dec then set_word_reg t base addr
  else if post_inc then set_word_reg t base ((v + 1) land 0xFFFF);
  addr

let skip_next t =
  (* Used by cpse/sbic/sbis/sbrc/sbrs: skip over the next instruction
     (1 or 2 words), through the predecode cache — the second decode of
     the skipped word was pure waste, and the skip distance must agree
     with what would execute at that address. *)
  let _, words = fetch t t.pc in
  t.pc <- t.pc + words;
  t.cycles <- t.cycles + words

let branch t cond k =
  if cond then begin
    t.pc <- t.pc + k;
    t.cycles <- t.cycles + 1
  end

(* Take the pending timer-compare interrupt, mirroring AVR hardware:
   finish the current instruction, push the PC, clear SREG.I, vector. *)
let take_timer_interrupt t =
  (* Telemetry for the dispatch: the caller guarantees
     [cycles >= timer_next_fire].  The raw delay since the scheduled
     compare match conflates two very different things — time the
     interrupt sat *masked* behind a cleared I flag (a property of the
     software, e.g. a handler's cli window) and the hardware dispatch
     latency of finishing the in-flight instruction.  Split them: when
     the I flag rose after the compare match ([i_up_cycle]), everything
     up to that rise was software masking; only the remainder is billed
     as dispatch latency. *)
  let total = t.cycles - t.timer_next_fire in
  let masked =
    if t.i_up_cycle > t.timer_next_fire then min total (t.i_up_cycle - t.timer_next_fire)
    else 0
  in
  let latency = total - masked in
  push_pc t t.pc;
  shadow_call t t.pc;
  set_flag t Flag.i false;
  t.pc <- Device.Vector.byte_addr Device.Vector.timer_compare / 2;
  let period = (data_get t (io_addr t Device.Io.ocr) + 1) * 64 in
  t.timer_next_fire <- t.cycles + period;
  t.interrupts_taken <- t.interrupts_taken + 1;
  t.cycles <- t.cycles + 5;
  if t.acct then note t ((latency lsl 2) lor ev_irq);
  match t.tap_irq with None -> () | Some f -> f ~latency ~masked

(* ---- Instruction semantics ------------------------------------------ *)

(* Every non-control instruction's semantics, written once: the stepper
   ([exec_insn]) and the trace compiler ([compile_body]) both call these.
   Each is [@inline], so every call site compiles to the code it would
   have if written out in place — no call and no closure, without
   flambda.  None of them charges cycles ([insn_cycles] does).  The
   register-register and register-immediate forms share one function,
   which takes the second operand's value.  A pure ALU function takes a
   flags switch, [~fl]: the stepper passes [true], and the trace
   compiler's flag-free closures pass [false] to skip the flag commit.
   Every caller passes a literal, so inlining folds the test away.
   Compares have no switch: with their flags dead they compile to
   nothing. *)

let base_reg = function Y -> y_reg | Z -> z_reg

let[@inline] op_movw t d r =
  set_reg t d (reg t r);
  set_reg t (d + 1) (reg t (r + 1))

let[@inline] op_ldi t d k = set_reg t d k
let[@inline] op_mov t d r = set_reg t d (reg t r)

let[@inline] op_add ~fl t d b =
  let a = reg t d in
  let res = a + b in
  if fl then flags_add t a b res;
  set_reg t d res

let[@inline] op_adc ~fl t d b =
  let a = reg t d in
  let res = a + b + carry t in
  if fl then flags_add t a b res;
  set_reg t d res

let[@inline] op_sub ~fl t d b =
  let a = reg t d in
  let res = a - b in
  if fl then flags_sub ~keep_z:false t a b res;
  set_reg t d res

let[@inline] op_sbc ~fl t d b =
  let a = reg t d in
  let res = a - b - carry t in
  if fl then flags_sub ~keep_z:true t a b res;
  set_reg t d res

let[@inline] op_and ~fl t d b =
  let res = reg t d land b in
  if fl then flags_logic t res;
  set_reg t d res

let[@inline] op_or ~fl t d b =
  let res = reg t d lor b in
  if fl then flags_logic t res;
  set_reg t d res

let[@inline] op_eor ~fl t d b =
  let res = reg t d lxor b in
  if fl then flags_logic t res;
  set_reg t d res

let[@inline] op_cp t d b = flags_sub ~keep_z:false t (reg t d) b (reg t d - b)
let[@inline] op_cpc t d b = flags_sub ~keep_z:true t (reg t d) b (reg t d - b - carry t)

let[@inline] op_mul ~fl t d r =
  let p = reg t d * reg t r in
  set_reg t 0 (p land 0xFF);
  set_reg t 1 ((p lsr 8) land 0xFF);
  if fl then
    update_flags t
      ~mask:((1 lsl Flag.c) lor (1 lsl Flag.z))
      (fbit Flag.c (p land 0x8000 <> 0) lor fbit Flag.z (p land 0xFFFF = 0))

let[@inline] op_com ~fl t d =
  let res = 0xFF - reg t d in
  if fl then update_flags t ~mask:mask_cvzns ((1 lsl Flag.c) lor zns_bits res ~v:false);
  set_reg t d res

let[@inline] op_neg ~fl t d =
  let a = reg t d in
  let res = (0x100 - a) land 0xFF in
  let v = res = 0x80 in
  if fl then
    update_flags t ~mask:mask_hcvzns
      (fbit Flag.c (res <> 0) lor fbit Flag.v v
      lor fbit Flag.h ((res lor a) land 0x08 <> 0)
      lor zns_bits res ~v);
  set_reg t d res

let[@inline] op_inc ~fl t d =
  let res = (reg t d + 1) land 0xFF in
  let v = res = 0x80 in
  if fl then update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
  set_reg t d res

let[@inline] op_dec ~fl t d =
  let res = (reg t d - 1) land 0xFF in
  let v = res = 0x7F in
  if fl then update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
  set_reg t d res

let[@inline] op_lsr ~fl t d =
  let a = reg t d in
  let res = a lsr 1 in
  (* n = 0, v = c, s = n xor v = v. *)
  let c = a land 1 <> 0 in
  if fl then
    update_flags t ~mask:mask_cvzns
      (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.v c lor fbit Flag.s c);
  set_reg t d res

let[@inline] op_ror ~fl t d =
  let a = reg t d in
  let res = (a lsr 1) lor (carry t lsl 7) in
  let c = a land 1 <> 0 in
  let n = res land 0x80 <> 0 in
  let v = n <> c in
  if fl then
    update_flags t ~mask:mask_cvzns
      (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.n n lor fbit Flag.v v
      lor fbit Flag.s (n <> v));
  set_reg t d res

let[@inline] op_asr ~fl t d =
  let a = reg t d in
  let res = (a lsr 1) lor (a land 0x80) in
  let c = a land 1 <> 0 in
  let n = res land 0x80 <> 0 in
  (* v = n xor c, so s = n xor v = c. *)
  if fl then
    update_flags t ~mask:mask_cvzns
      (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.n n
      lor fbit Flag.v (n <> c) lor fbit Flag.s c);
  set_reg t d res

let[@inline] op_swap t d =
  let a = reg t d in
  set_reg t d (((a lsl 4) lor (a lsr 4)) land 0xFF)

let[@inline] op_adiw ~fl t d k =
  let v = word_reg t d in
  let res = (v + k) land 0xFFFF in
  if fl then
    update_flags t ~mask:mask_cvzn
      (fbit Flag.c (v + k > 0xFFFF)
      lor fbit Flag.z (res = 0)
      lor fbit Flag.n (res land 0x8000 <> 0)
      lor fbit Flag.v (res land 0x8000 <> 0 && v land 0x8000 = 0));
  set_word_reg t d res

let[@inline] op_sbiw ~fl t d k =
  let v = word_reg t d in
  let res = (v - k) land 0xFFFF in
  if fl then
    update_flags t ~mask:mask_cvzn
      (fbit Flag.c (v < k)
      lor fbit Flag.z (res = 0)
      lor fbit Flag.n (res land 0x8000 <> 0)
      lor fbit Flag.v (res land 0x8000 = 0 && v land 0x8000 <> 0));
  set_word_reg t d res

(* [lpm] is [lpm r0, Z]; likewise [elpm]. *)
let[@inline] op_lpm t d inc =
  let z = word_reg t z_reg in
  set_reg t d (flash_byte t z);
  if inc then set_word_reg t z_reg ((z + 1) land 0xFFFF)

let[@inline] op_elpm t d inc =
  let rampz = data_get t (io_addr t Device.Io.rampz) in
  let z = word_reg t z_reg in
  set_reg t d (flash_byte t ((rampz lsl 16) lor z));
  if inc then begin
    (* 24-bit post-increment carries into RAMPZ. *)
    let full = ((rampz lsl 16) lor z) + 1 in
    set_word_reg t z_reg (full land 0xFFFF);
    data_set t (io_addr t Device.Io.rampz) ((full lsr 16) land 0xFF)
  end

let[@inline] op_bld t d b =
  let v = reg t d in
  set_reg t d (if get_flag t Flag.t then v lor (1 lsl b) else v land lnot (1 lsl b))

let[@inline] op_bst t d b = set_flag t Flag.t (reg t d land (1 lsl b) <> 0)

let[@inline] op_bset t b =
  if b = Flag.i && not (get_flag t Flag.i) then t.i_up_cycle <- t.cycles;
  set_flag t b true

let[@inline] op_bclr t b = set_flag t b false

(* Data-space and I/O accesses: the instructions that can observe the
   clock or (stores) raise [block_stop]. *)
let[@inline] op_in t d a = set_reg t d (io_read t a)
let[@inline] op_out t a r = io_write t a (reg t r)
let[@inline] op_lds t d a = set_reg t d (data_read t a)
let[@inline] op_sts t a r = data_write t a (reg t r)
let[@inline] op_ldd t d base q = set_reg t d (data_read t (word_reg t base + q))
let[@inline] op_std t base q r = data_write t (word_reg t base + q) (reg t r)
let[@inline] op_ld t d p = set_reg t d (data_read t (ptr_access t p))
let[@inline] op_st t p r = data_write t (ptr_access t p) (reg t r)
let[@inline] op_push t r = push_byte t (reg t r)
let[@inline] op_pop t r = set_reg t r (pop_byte t)
let[@inline] op_sbi t a b = io_write t a (io_read t a lor (1 lsl b))
let[@inline] op_cbi t a b = io_write t a (io_read t a land lnot (1 lsl b))

(* The stepper's dispatch, one arm per instruction.  Body instructions
   call their [op_*] semantics; control transfers, skips and halts are
   written here once, and a superblock's final instruction runs through
   this same function.  Precondition: [t.pc] already holds the
   fall-through address and [t.retired] counts [insn]; [pc0] is the
   instruction's own word address.  [cost] is its [insn_cycles],
   charged after the instruction's work, so a clock observer inside it
   sees the cycle count at its start. *)
let exec_insn t pc0 (insn : Isa.t) cost =
  (match insn with
  | Nop | Wdr -> ()
  | Data w ->
      set_halt t (Illegal_instruction { byte_addr = pc0 * 2; word = w });
      t.pc <- pc0
  | Movw (d, r) -> op_movw t d r
  | Ldi (d, k) -> op_ldi t d k
  | Mov (d, r) -> op_mov t d r
  | Add (d, r) -> op_add ~fl:true t d (reg t r)
  | Adc (d, r) -> op_adc ~fl:true t d (reg t r)
  | Sub (d, r) -> op_sub ~fl:true t d (reg t r)
  | Sbc (d, r) -> op_sbc ~fl:true t d (reg t r)
  | And (d, r) -> op_and ~fl:true t d (reg t r)
  | Or (d, r) -> op_or ~fl:true t d (reg t r)
  | Eor (d, r) -> op_eor ~fl:true t d (reg t r)
  | Cp (d, r) -> op_cp t d (reg t r)
  | Cpc (d, r) -> op_cpc t d (reg t r)
  | Mul (d, r) -> op_mul ~fl:true t d r
  | Subi (d, k) -> op_sub ~fl:true t d k
  | Sbci (d, k) -> op_sbc ~fl:true t d k
  | Andi (d, k) -> op_and ~fl:true t d k
  | Ori (d, k) -> op_or ~fl:true t d k
  | Cpi (d, k) -> op_cp t d k
  | Com d -> op_com ~fl:true t d
  | Neg d -> op_neg ~fl:true t d
  | Inc d -> op_inc ~fl:true t d
  | Dec d -> op_dec ~fl:true t d
  | Lsr d -> op_lsr ~fl:true t d
  | Ror d -> op_ror ~fl:true t d
  | Asr d -> op_asr ~fl:true t d
  | Swap d -> op_swap t d
  | Adiw (d, k) -> op_adiw ~fl:true t d k
  | Sbiw (d, k) -> op_sbiw ~fl:true t d k
  | Lpm0 -> op_lpm t 0 false
  | Lpm (d, inc) -> op_lpm t d inc
  | Elpm0 -> op_elpm t 0 false
  | Elpm (d, inc) -> op_elpm t d inc
  | Bld (d, b) -> op_bld t d b
  | Bst (d, b) -> op_bst t d b
  | Bset b -> op_bset t b
  | Bclr b -> op_bclr t b
  | In (d, a) -> op_in t d a
  | Out (a, r) -> op_out t a r
  | Lds (d, a) -> op_lds t d a
  | Sts (a, r) -> op_sts t a r
  | Ldd (d, b, q) -> op_ldd t d (base_reg b) q
  | Std (b, q, r) -> op_std t (base_reg b) q r
  | Ld (d, p) -> op_ld t d p
  | St (p, r) -> op_st t p r
  | Push r -> op_push t r
  | Pop r -> op_pop t r
  | Sbi (a, b) -> op_sbi t a b
  | Cbi (a, b) -> op_cbi t a b
  | Ret ->
      t.pc <- pop_pc t;
      shadow_ret t t.pc
  | Reti ->
      t.pc <- pop_pc t;
      shadow_ret t t.pc;
      if not (get_flag t Flag.i) then t.i_up_cycle <- t.cycles;
      set_flag t Flag.i true
  | Icall ->
      push_pc t t.pc;
      shadow_call t t.pc;
      t.pc <- word_reg t z_reg
  | Ijmp -> t.pc <- word_reg t z_reg
  | Call a ->
      push_pc t t.pc;
      shadow_call t t.pc;
      t.pc <- a
  | Jmp a -> t.pc <- a
  | Rcall k ->
      push_pc t t.pc;
      shadow_call t t.pc;
      t.pc <- t.pc + k
  | Rjmp k -> t.pc <- t.pc + k
  | Brbs (b, k) -> branch t (get_flag t b) k
  | Brbc (b, k) -> branch t (not (get_flag t b)) k
  | Cpse (d, r) -> if reg t d = reg t r then skip_next t
  | Sbic (a, b) -> if io_read t a land (1 lsl b) = 0 then skip_next t
  | Sbis (a, b) -> if io_read t a land (1 lsl b) <> 0 then skip_next t
  | Sbrc (r, b) -> if reg t r land (1 lsl b) = 0 then skip_next t
  | Sbrs (r, b) -> if reg t r land (1 lsl b) <> 0 then skip_next t
  | Sleep -> set_halt t Sleep_mode
  | Break -> set_halt t Break_hit);
  t.cycles <- t.cycles + cost

(* Step the instruction at word [pc0] = [t.pc] through the predecode
   cache.  Precondition: not halted, no timer interrupt due, and [pc0]
   inside flash — the callers check, so the batched [run] loop pays for
   each check once per iteration.  The fetch is split so the cache-hit
   path allocates nothing (building an (insn, words) pair costs a heap
   block per instruction without flambda).  No bounds check: the cache
   spans exactly (program_bytes + 1) / 2 entries ([drop_code]).  The
   cached entry carries the cost and mnemonic too, so the stepper never
   matches an instruction twice. *)
let[@inline] step_at t pc0 =
  let meta = Array.unsafe_get t.icache_meta pc0 in
  let meta = if meta <> 0 then meta else fill_entry t pc0 in
  let insn = Array.unsafe_get t.icache_insn pc0 in
  t.pc <- pc0 + (meta land 3);
  if t.acct then begin
    let m = meta lsr 6 in
    Array.unsafe_set t.stepped m (Array.unsafe_get t.stepped m + 1);
    note t ((((pc0 lsl 7) lor m) lsl 2) lor ev_step)
  end;
  if t.tap_on then t.tap_step pc0 insn;
  t.retired <- t.retired + 1;
  exec_insn t pc0 insn ((meta lsr 2) land 15)

(* Execute exactly one instruction (or take a pending interrupt).
   Precondition: not halted.  The timer comparison is ordered before the
   SREG read so that with the timer disarmed ([max_int], the common
   case) the memory-mapped I flag is never touched on the hot path. *)
let exec_one t =
  if t.cycles >= t.timer_next_fire && get_flag t Flag.i then take_timer_interrupt t
  else if t.pc < 0 || t.pc * 2 >= t.program_bytes then set_halt t (Wild_pc (t.pc * 2))
  else step_at t t.pc

let step t =
  match t.halt with
  | Some _ -> ()
  | None -> exec_one t

(* ---- Superblock threaded-code engine -------------------------------- *)

let set_superblocks t enabled = t.use_superblocks <- enabled

(* ---- Trace compiler ------------------------------------------------- *)

(* A fusible (non-control) instruction compiles to a *builder*: a
   function that, given the continuation closure for the rest of the
   trace, returns this instruction's closure.  The closure runs the
   instruction's [op_*] semantics — the same inlined code the stepper
   runs — and tail-calls the continuation: continuation-threaded code,
   one indirect call per instruction, no dispatch loop.

   Cycle accounting is batched: [FPure] and [FAlu] closures never touch
   [t.cycles].  Their static costs ([insn_cycles]) accumulate in a
   compile-time [pending] counter that is flushed (one add of a
   captured constant) immediately before any operation able to observe
   the clock.  The observers are exactly the I/O paths: [io_read] (UART
   pacing reads [t.cycles]), [io_write] (UART busy window, watchdog feed
   stamp, timer arming), and therefore also every data-space access,
   whose dynamic address may land in the I/O file.  [FLoad] builders
   take the flush amount; [FStore] builders additionally take a stop
   continuation, because [io_write] can set [t.block_stop] (timer
   re-arm, SREG.I set) which must abandon the rest of the fused trace
   after the current instruction.

   A pure ALU instruction ([FAlu]) picks one of two literal closures
   over its [op_*], each passing a literal [~fl], so inlining folds the
   flag switch away.  With [flags] the op commits its flags, then
   continues at [kc] when SREG land [mask] = [want] and otherwise
   leaves by [kx]: a lone op has [mask] = 0 and always continues, and
   an ALU op followed by a flag branch is one closure, the branch's test
   folded in.  Without, where per-flag liveness finds every flag the op
   writes dead, the op skips its flag commit and continues at [kc]; a
   dead compare is [kc] itself, so it compiles to nothing. *)
type after = { mask : int; want : int; kc : t -> unit; kx : t -> unit }

type fuse =
  | FPure of ((t -> unit) -> t -> unit) (* builder k *)
  | FAlu of (bool -> after -> t -> unit) (* builder flags after *)
  | FLoad of (int -> (t -> unit) -> t -> unit) (* builder flush k *)
  | FStore of (int -> (t -> unit) -> (t -> unit) -> t -> unit) (* builder flush stop k *)

let[@inline] flush t fl = t.cycles <- t.cycles + fl

(* A builder's closure must come back as a function of [t] alone: a
   curried [fun k t -> ...] applied to [k] is a partial application,
   which runs through a [caml_curryN_M] stub on every execution.  The
   compiler merges [fun k -> fun t -> ...] (even through a [let]) into
   one curried function, so the returned closure goes through
   [Sys.opaque_identity]. *)
let[@inline] clo (f : t -> unit) = Sys.opaque_identity f
let[@inline] resume t stop k = if t.block_stop then stop t else k t
let[@inline] next t a = if t.sreg_v land a.mask = a.want then a.kc t else a.kx t
let alu f = Some (FAlu f)

let compile_body (insn : Isa.t) : fuse option =
  match insn with
  | Nop | Wdr -> Some (FPure (fun k -> k))
  | Movw (d, r) -> Some (FPure (fun k -> clo (fun t -> op_movw t d r; k t)))
  | Ldi (d, v) -> Some (FPure (fun k -> clo (fun t -> op_ldi t d v; k t)))
  | Mov (d, r) -> Some (FPure (fun k -> clo (fun t -> op_mov t d r; k t)))
  | Add (d, r) -> alu (fun fl a -> if fl then (fun t -> op_add ~fl:true t d (reg t r); next t a)
      else fun t -> op_add ~fl:false t d (reg t r); a.kc t)
  | Adc (d, r) -> alu (fun fl a -> if fl then (fun t -> op_adc ~fl:true t d (reg t r); next t a)
      else fun t -> op_adc ~fl:false t d (reg t r); a.kc t)
  | Sub (d, r) -> alu (fun fl a -> if fl then (fun t -> op_sub ~fl:true t d (reg t r); next t a)
      else fun t -> op_sub ~fl:false t d (reg t r); a.kc t)
  | Sbc (d, r) -> alu (fun fl a -> if fl then (fun t -> op_sbc ~fl:true t d (reg t r); next t a)
      else fun t -> op_sbc ~fl:false t d (reg t r); a.kc t)
  | And (d, r) -> alu (fun fl a -> if fl then (fun t -> op_and ~fl:true t d (reg t r); next t a)
      else fun t -> op_and ~fl:false t d (reg t r); a.kc t)
  | Or (d, r) -> alu (fun fl a -> if fl then (fun t -> op_or ~fl:true t d (reg t r); next t a)
      else fun t -> op_or ~fl:false t d (reg t r); a.kc t)
  | Eor (d, r) -> alu (fun fl a -> if fl then (fun t -> op_eor ~fl:true t d (reg t r); next t a)
      else fun t -> op_eor ~fl:false t d (reg t r); a.kc t)
  | Cp (d, r) -> alu (fun fl a -> if fl then (fun t -> op_cp t d (reg t r); next t a) else a.kc)
  | Cpc (d, r) -> alu (fun fl a -> if fl then (fun t -> op_cpc t d (reg t r); next t a) else a.kc)
  | Mul (d, r) -> alu (fun fl a -> if fl then (fun t -> op_mul ~fl:true t d r; next t a)
      else fun t -> op_mul ~fl:false t d r; a.kc t)
  | Subi (d, v) -> alu (fun fl a -> if fl then (fun t -> op_sub ~fl:true t d v; next t a)
      else fun t -> op_sub ~fl:false t d v; a.kc t)
  | Sbci (d, v) -> alu (fun fl a -> if fl then (fun t -> op_sbc ~fl:true t d v; next t a)
      else fun t -> op_sbc ~fl:false t d v; a.kc t)
  | Andi (d, v) -> alu (fun fl a -> if fl then (fun t -> op_and ~fl:true t d v; next t a)
      else fun t -> op_and ~fl:false t d v; a.kc t)
  | Ori (d, v) -> alu (fun fl a -> if fl then (fun t -> op_or ~fl:true t d v; next t a)
      else fun t -> op_or ~fl:false t d v; a.kc t)
  | Cpi (d, v) -> alu (fun fl a -> if fl then (fun t -> op_cp t d v; next t a) else a.kc)
  | Com d -> alu (fun fl a -> if fl then (fun t -> op_com ~fl:true t d; next t a)
      else fun t -> op_com ~fl:false t d; a.kc t)
  | Neg d -> alu (fun fl a -> if fl then (fun t -> op_neg ~fl:true t d; next t a)
      else fun t -> op_neg ~fl:false t d; a.kc t)
  | Inc d -> alu (fun fl a -> if fl then (fun t -> op_inc ~fl:true t d; next t a)
      else fun t -> op_inc ~fl:false t d; a.kc t)
  | Dec d -> alu (fun fl a -> if fl then (fun t -> op_dec ~fl:true t d; next t a)
      else fun t -> op_dec ~fl:false t d; a.kc t)
  | Lsr d -> alu (fun fl a -> if fl then (fun t -> op_lsr ~fl:true t d; next t a)
      else fun t -> op_lsr ~fl:false t d; a.kc t)
  | Ror d -> alu (fun fl a -> if fl then (fun t -> op_ror ~fl:true t d; next t a)
      else fun t -> op_ror ~fl:false t d; a.kc t)
  | Asr d -> alu (fun fl a -> if fl then (fun t -> op_asr ~fl:true t d; next t a)
      else fun t -> op_asr ~fl:false t d; a.kc t)
  | Swap d -> Some (FPure (fun k -> clo (fun t -> op_swap t d; k t)))
  | Adiw (d, v) -> alu (fun fl a -> if fl then (fun t -> op_adiw ~fl:true t d v; next t a)
      else fun t -> op_adiw ~fl:false t d v; a.kc t)
  | Sbiw (d, v) -> alu (fun fl a -> if fl then (fun t -> op_sbiw ~fl:true t d v; next t a)
      else fun t -> op_sbiw ~fl:false t d v; a.kc t)
  | Lpm0 -> Some (FPure (fun k -> clo (fun t -> op_lpm t 0 false; k t)))
  | Lpm (d, inc) -> Some (FPure (fun k -> clo (fun t -> op_lpm t d inc; k t)))
  | Elpm0 -> Some (FPure (fun k -> clo (fun t -> op_elpm t 0 false; k t)))
  | Elpm (d, inc) -> Some (FPure (fun k -> clo (fun t -> op_elpm t d inc; k t)))
  | Bld (d, b) -> Some (FPure (fun k -> clo (fun t -> op_bld t d b; k t)))
  | Bst (d, b) -> Some (FPure (fun k -> clo (fun t -> op_bst t d b; k t)))
  | Bset b when b <> Flag.i -> Some (FPure (fun k -> clo (fun t -> op_bset t b; k t)))
  (* cli (bclr I) stays fusible: clearing I can only *prevent* a
     dispatch, and the block was entered under a no-fire-within-this-
     block guarantee anyway. *)
  | Bclr b -> Some (FPure (fun k -> clo (fun t -> op_bclr t b; k t)))
  | In (d, a) -> Some (FLoad (fun fl k -> clo (fun t -> flush t fl; op_in t d a; k t)))
  | Lds (d, a) -> Some (FLoad (fun fl k -> clo (fun t -> flush t fl; op_lds t d a; k t)))
  | Ldd (d, b, q) ->
      let base = base_reg b in
      Some (FLoad (fun fl k -> clo (fun t -> flush t fl; op_ldd t d base q; k t)))
  | Ld (d, p) -> Some (FLoad (fun fl k -> clo (fun t -> flush t fl; op_ld t d p; k t)))
  | Pop r -> Some (FLoad (fun fl k -> clo (fun t -> flush t fl; op_pop t r; k t)))
  | Out (a, r) ->
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_out t a r; resume t stop k)))
  | Sts (a, r) ->
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_sts t a r; resume t stop k)))
  | Std (b, q, r) ->
      let base = base_reg b in
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_std t base q r; resume t stop k)))
  | St (p, r) ->
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_st t p r; resume t stop k)))
  | Push r ->
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_push t r; resume t stop k)))
  | Sbi (a, b) ->
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_sbi t a b; resume t stop k)))
  | Cbi (a, b) ->
      Some (FStore (fun fl stop k -> clo (fun t -> flush t fl; op_cbi t a b; resume t stop k)))
  | Bset _ (* sei: ends the block so a pending compare can dispatch *)
  | Cpse _ | Sbic _ | Sbis _ | Sbrc _ | Sbrs _ | Ret | Reti | Icall | Ijmp | Call _
  | Jmp _ | Rcall _ | Rjmp _ | Brbs _ | Brbc _ | Sleep | Break | Data _ ->
      None

(* ------------------------------------------------------------------ *)
(* Per-flag SREG dataflow metadata for the trace compiler.             *)
(*                                                                     *)
(* Within one fused trace the only readers of SREG are flag branches,  *)
(* carry-consuming ALU ops, the I/O file (SREG is memory-mapped, so    *)
(* any load/store may touch it), and every point where control can     *)
(* leave the trace (side exits, [block_stop] exits, the final          *)
(* instruction) — after which the whole register is architecturally    *)
(* observable.  A flag written by a pure op and overwritten before any *)
(* such point is dead, and the op can run without computing it.        *)

let allf = 0xFF

(* (written, read) SREG bit masks.  The default for unlisted           *)
(* instructions is (0, allf): claiming extra reads only pessimises the *)
(* liveness result, never breaks it. *)
let flag_masks (insn : Isa.t) : int * int =
  let cbit = 1 lsl Flag.c and zbit = 1 lsl Flag.z in
  match insn with
  | Add _ | Sub _ | Subi _ | Cp _ | Cpi _ | Neg _ -> (mask_hcvzns, 0)
  | Adc _ -> (mask_hcvzns, cbit)
  | Sbc _ | Sbci _ | Cpc _ -> (mask_hcvzns, cbit lor zbit)
  | And _ | Andi _ | Or _ | Ori _ | Eor _ | Inc _ | Dec _ -> (mask_vzns, 0)
  | Com _ | Lsr _ | Asr _ -> (mask_cvzns, 0)
  | Ror _ -> (mask_cvzns, cbit)
  | Mul _ -> (cbit lor zbit, 0)
  | Adiw _ | Sbiw _ -> (mask_cvzn, 0)
  | Bld (_, _) -> (0, 1 lsl Flag.t)
  | Bst (_, _) -> (1 lsl Flag.t, 0)
  | Bset b | Bclr b -> (1 lsl b, 0)
  | Nop | Movw _ | Ldi _ | Mov _ | Swap _ | Wdr
  | Lpm0 | Lpm _ | Elpm0 | Elpm _ -> (0, 0)
  | _ -> (0, allf)

(* Trace length cap: bounds compile latency, the worst-case cycle span
   a fused trace can cover (the entry-time interrupt margin), and the
   batched-run overshoot contract (at most one block past the budget),
   so a pathological straight-line region cannot force long
   single-stepped windows before every timer fire. *)
let max_block_insns = 64

(* How the trace scanner leaves each instruction.  A trace is a
   *predicted path*, not a basic block: unconditional direct transfers
   ([KGoto]) are followed at compile time and emit no code at all
   (their cycle cost folds into the pending constant), static calls
   ([KCall]) push the return address and continue at the callee, and
   conditional branches/skips ([KCond]) continue along the predicted
   direction — backward-taken, forward-fallthrough — with a side exit
   that flushes the pending cycles and leaves the block when the
   prediction misses.  Tight loops therefore unroll up to the length
   cap instead of breaking the trace every two instructions. *)
(* Conditional tests are carried as data, not closures, so the
   backward pass can emit the comparison inline in the guard closure
   (one indirect call per branch instead of two) and can recognise
   flag branches for ALU+branch pair fusion. *)
type ctest =
  | CFlag of int * bool (* continue when SREG bit = sense *)
  | CRegNe of int * int (* Cpse: continue while regs differ *)
  | CRegBit of int * int * bool (* reg, bit, continue when bit = sense *)
  | CIoBit of int * int * bool (* io addr, bit, continue when bit = sense *)

let ctest_io = function CIoBit _ -> true | _ -> false

(* The test a skip instruction continues on (its predicted path is the
   fallthrough, the instruction it would skip). *)
let skip_test (insn : Isa.t) =
  match insn with
  | Cpse (d, r) -> Some (CRegNe (d, r))
  | Sbrc (r, b) -> Some (CRegBit (r, b, true))
  | Sbrs (r, b) -> Some (CRegBit (r, b, false))
  | Sbic (a, b) -> Some (CIoBit (a, b, true))
  | Sbis (a, b) -> Some (CIoBit (a, b, false))
  | _ -> None

type skind =
  | KBody of fuse
  | KGoto (* continue at the jump target *)
  | KCall of int * int (* return word addr, callee word pc *)
  | KCond of ctest * int * int * int
      (* test, continue cost, exit word pc, exit cost *)

(* [s_cost] is the slot's static cost ([insn_cycles]); a [KCond]'s two
   directions carry their own. *)
type slot = { s_insn : Isa.t; s_next : int; s_cost : int; s_kind : skind }

let compile_block t entry_pc =
  let prog_ok pc = pc >= 0 && pc * 2 < t.program_bytes in
  let slots = ref [] in
  let count = ref 0 in
  (* Worst-case cycles and static calls of every slot, and the last
     slot's share of each. *)
  let span = ref 0 and calls = ref 0 in
  let last_cost = ref 0 and last_call = ref 0 in
  (* Scan forward along the predicted path, stopping at the first
     instruction that must end the trace (dynamic-target transfer,
     halt class, sei, cap, program edge, off-trace continue).  A body
     instruction cut by the cap or the program edge becomes the last
     slot, and the trace leaves to its fallthrough.  When the path
     reaches a pc that already has a compiled block, the trace *links*
     to it — it ends with a plain hand-off exit instead of unrolling
     over the same instructions.  Without this, every side
     exit seeds a fresh shifted trace over code that is already
     compiled, and the closure working set balloons by up to the
     length cap times the program size, trading the dispatch win for
     cache misses. *)
  let final = ref None in
  let link = ref (-1) in
  let rec go pc =
    if !count > 0 && Array.unsafe_get t.blocks pc != dummy_block then link := pc
    else scan pc
  and scan pc =
    let insn, w = fetch t pc in
    let next = pc + w in
    let c = insn_cycles t.dev insn in
    let room = !count < max_block_insns - 1 in
    let push kind worst =
      slots := { s_insn = insn; s_next = next; s_cost = c; s_kind = kind } :: !slots;
      incr count;
      span := !span + worst;
      last_cost := worst;
      last_call := (match kind with KCall _ -> 1 | _ -> 0);
      calls := !calls + !last_call
    in
    let emit kind worst cont = push kind worst; go cont in
    let finish () = final := Some (insn, pc, next) in
    let cond test ~cont_cost ~cont_pc ~exit_pc ~exit_cost =
      let worst = max cont_cost exit_cost in
      if room && prog_ok cont_pc then
        emit (KCond (test, cont_cost, exit_pc, exit_cost)) worst cont_pc
      else finish ()
    in
    match insn with
    | Rjmp k when room && prog_ok (next + k) -> emit KGoto c (next + k)
    | Jmp a when room && prog_ok a -> emit KGoto c a
    | Rcall k when room && prog_ok (next + k) -> emit (KCall (next, next + k)) c (next + k)
    | Call a when room && prog_ok a -> emit (KCall (next, a)) c a
    | Brbs (b, k) | Brbc (b, k) ->
        (* Continue on the taken side of a backward branch (+1 cycle),
           on the fallthrough of a forward one. *)
        let taken_when = match insn with Brbs _ -> true | _ -> false in
        let target = next + k in
        if target <= pc then
          cond (CFlag (b, taken_when)) ~cont_cost:(c + 1) ~cont_pc:target ~exit_pc:next
            ~exit_cost:c
        else
          cond (CFlag (b, not taken_when)) ~cont_cost:c ~cont_pc:next ~exit_pc:target
            ~exit_cost:(c + 1)
    | _ -> (
        match skip_test insn with
        | Some test ->
            let _, sw = fetch t next in
            cond test ~cont_cost:c ~cont_pc:next ~exit_pc:(next + sw) ~exit_cost:(c + sw)
        | None -> (
            match compile_body insn with
            | None -> finish ()
            | Some f ->
                if room && prog_ok next then emit (KBody f) c next
                else begin
                  push (KBody f) c;
                  link := next
                end))
  in
  go entry_pc;
  let arr = Array.of_list (List.rev !slots) in
  let nslots = Array.length arr in
  (* [fin] is [None] exactly when the trace ends by leaving to [!link]
     (an already-compiled block, or the fallthrough of a cut body
     instruction); then the trace has no final instruction of its own
     and executes [nslots] instructions. *)
  let fin = !final in
  let n_total = match fin with Some _ -> nslots + 1 | None -> nslots in
  (* Forward pass: [pend.(i)] is the cycle debt accumulated since the
     last flush when slot [i] starts (pend.(nslots) = debt at the final
     instruction).  Clock observers flush it; their own cost becomes
     the next debt. *)
  let pend = Array.make (n_total + 1) 0 in
  for i = 0 to nslots - 1 do
    let s = arr.(i) in
    pend.(i + 1) <-
      (match s.s_kind with
      | KBody (FPure _ | FAlu _) | KGoto -> pend.(i) + s.s_cost
      | KBody (FLoad _ | FStore _) | KCall _ -> s.s_cost
      | KCond (ct, cont_cost, _, _) ->
          (if ctest_io ct then 0 else pend.(i)) + cont_cost)
  done;
  (* Backward per-flag liveness at each slot entry.  Loads, stores and
     calls touch data space (SREG is memory-mapped) and can exit on
     [block_stop]; conditional slots have a side exit after which the
     whole SREG is observable — all of these make every flag live. *)
  let live = Array.make (n_total + 1) allf in
  for i = nslots - 1 downto 0 do
    live.(i) <-
      (match arr.(i).s_kind with
      | KBody (FPure _ | FAlu _) ->
          let wr, rd = flag_masks arr.(i).s_insn in
          (live.(i + 1) land lnot wr) lor rd
      | KBody (FLoad _ | FStore _) | KCall _ | KCond _ -> allf
      | KGoto -> live.(i + 1))
  done;
  (* Every way out of the trace lands here: flush the captured cycle
     debt, fix up the PC, credit the retired count once, and record the
     executed prefix length for [run]. *)
  let mk_exit cyc pc cnt =
    clo (fun t ->
        t.cycles <- t.cycles + cyc;
        t.pc <- pc;
        t.retired <- t.retired + cnt;
        t.block_insns <- cnt)
  in
  let entry =
    let fl = pend.(nslots) in
    (* [ks.(i)] is the compiled continuation entering slot [i];
       [ks.(nslots)] enters the final instruction. *)
    let ks = Array.make (n_total + 1) (fun (_ : t) -> ()) in
    ks.(nslots) <-
      (match fin with
      | None ->
          (* Linked or cut trace: the exit closure does all the
             bookkeeping. *)
          mk_exit fl !link nslots
      | Some (fin_insn, fin_pc, fin_next) ->
          (* A terminator runs the stepper's own instruction code, with
             [t.pc] at the fallthrough as [exec_one] leaves it. *)
          let fin_cost = insn_cycles t.dev fin_insn in
          fun t ->
            t.cycles <- t.cycles + fl;
            t.retired <- t.retired + n_total;
            t.block_insns <- n_total;
            t.pc <- fin_next;
            exec_insn t fin_pc fin_insn fin_cost);
    for i = nslots - 1 downto 0 do
      let s = arr.(i) in
      let cnt = i + 1 in
      let knext = ks.(i + 1) in
      ks.(i) <-
        (match s.s_kind with
        | KBody (FPure mk) -> mk knext
        | KBody (FAlu mk) -> (
            match if i + 1 < nslots then Some arr.(i + 1).s_kind else None with
            | Some (KCond (CFlag (b, sense), _, exit_pc, exit_cost)) ->
                (* ALU + flag-branch pair: the op commits every flag it
                   writes, so either way out sees stepping's SREG. *)
                let mask = 1 lsl b in
                let kx = mk_exit (pend.(i + 1) + exit_cost) exit_pc (i + 2) in
                mk true { mask; want = (if sense then mask else 0); kc = ks.(i + 2); kx }
            | _ ->
                let flags = fst (flag_masks s.s_insn) land live.(i + 1) <> 0 in
                mk flags { mask = 0; want = 0; kc = knext; kx = knext })
        | KBody (FLoad mk) -> mk pend.(i) knext
        | KBody (FStore mk) -> mk pend.(i) (mk_exit s.s_cost s.s_next cnt) knext
        | KGoto -> knext
        | KCall (ret, target) ->
            (* A mid-call [block_stop] resumes at the callee: the call
               itself has fully executed. *)
            let stop = mk_exit s.s_cost target cnt in
            let fl = pend.(i) in
            fun t ->
              t.cycles <- t.cycles + fl;
              push_pc t ret;
              shadow_call t ret;
              if t.block_stop then stop t else knext t
        | KCond (ct, _, exit_pc, exit_cost) -> (
            let exitc =
              mk_exit ((if ctest_io ct then 0 else pend.(i)) + exit_cost) exit_pc cnt
            in
            match ct with
            | CFlag (b, sense) ->
                let m = 1 lsl b in
                if sense then fun t ->
                  if t.sreg_v land m <> 0 then knext t else exitc t
                else fun t -> if t.sreg_v land m = 0 then knext t else exitc t
            | CRegNe (d, r) ->
                fun t -> if reg t d <> reg t r then knext t else exitc t
            | CRegBit (r, b, sense) ->
                let m = 1 lsl b in
                if sense then fun t ->
                  if reg t r land m <> 0 then knext t else exitc t
                else fun t -> if reg t r land m = 0 then knext t else exitc t
            | CIoBit (a, b, sense) ->
                let m = 1 lsl b and fl = pend.(i) in
                if sense then fun t ->
                  t.cycles <- t.cycles + fl;
                  if io_read t a land m <> 0 then knext t else exitc t
                else
                  fun t ->
                  t.cycles <- t.cycles + fl;
                  if io_read t a land m = 0 then knext t else exitc t))
    done;
    ks.(0)
  in
  let key = t.block_keys in
  t.block_keys <- key + 1;
  let insns =
    let body = Array.map (fun s -> s.s_insn) arr in
    match fin with Some (fi, _, _) -> Array.append body [| fi |] | None -> body
  in
  let info =
    { bi_key = key; bi_pc = entry_pc; bi_insns = insns; bi_execs = Array.make (n_total + 1) 0 }
  in
  if key >= Array.length t.compiled then begin
    let grown = Array.make (max 64 (2 * key)) dummy_block_info in
    Array.blit t.compiled 0 grown 0 key;
    t.compiled <- grown
  end;
  t.compiled.(key) <- info;
  (* The entry margin covers every instruction but the last: a timer
     compare or the run budget can only stop a stepping engine at an
     instruction boundary, and the last one a trace crosses is its exit,
     where [run] checks again.  A terminator is never a slot; a
     linked or cut trace's last instruction is its last slot. *)
  let lead, lead_calls =
    match fin with
    | Some _ -> (!span, !calls)
    | None -> (!span - !last_cost, !calls - !last_call)
  in
  {
    b_info = info;
    b_entry = entry;
    b_lead = lead;
    b_lead_calls = lead_calls;
  }

(* ---- Batched execution ---------------------------------------------- *)

(* Budget clamp: the former [t.cycles + max_cycles] overflowed to a
   negative stop for budgets near [max_int] (an "unbounded" run), making
   the loop exit before a single instruction — saturate instead.  The
   overshoot contract for all batched entry points: at most one
   instruction plus one interrupt dispatch past the budget, identical
   under both engines (a superblock is only entered when every
   instruction boundary inside it comes before the budget; see
   [run]). *)
let stop_cycle t max_cycles =
  if max_cycles >= max_int - t.cycles then max_int else t.cycles + max_cycles

(* Compile policy.  Every lifetime starts with no blocks, and most code
   of a large image runs only a few times per lifetime, so a trace is
   compiled only at a word address entered [hot_entries] times, and only
   [compile_window] cycles clear of [horizon] (below): closer in, the
   new block could not be entered anyway. *)
let hot_entries = 16
let compile_window = 2 * max_block_insns

(* One loop for both engines.  Each iteration takes a due interrupt,
   halts on a wild PC, or runs the code at [t.pc]: its compiled trace,
   or else one stepped instruction.  The correctness carve-out: a trace
   is entered only when every instruction boundary inside it comes
   before [horizon], the next compare match (interrupts enabled) or the
   run budget; otherwise the engine steps, and so takes the interrupt or
   ends the run at exactly the boundary pure stepping would.  That makes
   campaign documents byte-identical with superblocks on or off.  The
   engine switch is re-read every iteration, so [set_superblocks] from a
   tap callback takes effect at the next block boundary. *)
let run t ~max_cycles =
  let stop = stop_cycle t max_cycles in
  let rec go () =
    match t.halt with
    | Some h -> `Halted h
    | None ->
        if t.cycles >= stop then `Budget_exhausted
        else begin
          let pc = t.pc in
          if t.cycles >= t.timer_next_fire && get_flag t Flag.i then take_timer_interrupt t
          else if pc < 0 || pc * 2 >= t.program_bytes then set_halt t (Wild_pc (pc * 2))
          else begin
            (* The SREG read stays off the path of a disarmed timer. *)
            let horizon =
              if t.timer_next_fire < stop && get_flag t Flag.i then t.timer_next_fire else stop
            in
            let b =
              if not t.use_superblocks then dummy_block
              else
                let b = Array.unsafe_get t.blocks pc in
                if b != dummy_block then b
                else
                  let hits = Char.code (Bytes.unsafe_get t.block_hits pc) + 1 in
                  if hits < hot_entries then begin
                    Bytes.unsafe_set t.block_hits pc (Char.unsafe_chr hits);
                    b
                  end
                  else if t.cycles + compile_window >= horizon then b
                  else begin
                    let b = compile_block t pc in
                    Array.unsafe_set t.blocks pc b;
                    b
                  end
            in
            if b == dummy_block
               || t.cycles + b.b_lead + (b.b_lead_calls * t.shadow_overhead) >= horizon
            then step_at t pc
            else begin
              t.block_stop <- false;
              b.b_entry t;
              if t.acct then begin
                let info = b.b_info and n = t.block_insns in
                Array.unsafe_set info.bi_execs n (Array.unsafe_get info.bi_execs n + 1);
                note t ((info.bi_key lsl 2) lor ev_block)
              end;
              if t.tap_on then t.tap_block b.b_info t.block_insns
            end
          end;
          go ()
        end
  in
  go ()

let run_until_halt t ~max_cycles =
  match run t ~max_cycles with `Halted h -> Some h | `Budget_exhausted -> None

(* [run_until] single-steps regardless of the superblock switch: the
   predicate is specified to be observed between *instructions* (the
   Fig. 6 stack-progression dumps stop on exact PC values a block
   boundary would never land on). *)
let run_until t ~max_cycles pred =
  let stop = stop_cycle t max_cycles in
  let rec go () =
    match t.halt with
    | Some h -> `Halted h
    | None ->
        if pred t then `Pred
        else if t.cycles >= stop then `Budget_exhausted
        else (exec_one t; go ())
  in
  go ()

let enable_shadow_stack t ~overhead_cycles =
  t.shadow <- Some [];
  t.shadow_overhead <- overhead_cycles

let shadow_depth t = match t.shadow with Some l -> List.length l | None -> 0
let interrupts_taken t = t.interrupts_taken

let set_uart_tx_pacing t ~cycles_per_byte =
  t.tx_cycles_per_byte <- max 0 cycles_per_byte

let uart_send t s = String.iter (fun c -> Queue.push (Char.code c) t.uart_rx) s
let uart_rx_pending t = Queue.length t.uart_rx

let uart_take_tx t =
  let s = Buffer.contents t.uart_tx in
  Buffer.clear t.uart_tx;
  s

let watchdog_feeds t = t.feeds
let last_feed_cycles t = t.last_feed
(* Host-side inspection: side-effect free, but SREG and SP live in
   fields rather than the byte array, so those addresses are routed. *)
let io_peek t a =
  if a = Device.Io.sreg then t.sreg_v
  else if a = Device.Io.spl then t.sp_v land 0xFF
  else if a = Device.Io.sph then (t.sp_v lsr 8) land 0xFF
  else data_get t (io_addr t a)

let io_poke t a v =
  if a = Device.Io.sreg then begin
    if v land 0x80 <> 0 && t.sreg_v land 0x80 = 0 then t.i_up_cycle <- t.cycles;
    t.sreg_v <- v land 0xFF
  end
  else if a = Device.Io.spl then set_sp t (t.sp_v land 0xFF00 lor (v land 0xFF))
  else if a = Device.Io.sph then set_sp t ((v land 0xFF) lsl 8 lor (t.sp_v land 0xFF))
  else data_set t (io_addr t a) v

let program_size t = t.program_bytes
let eeprom_peek t a = eeprom_get t a

let is_sp_or_sreg t a =
  let r = a - t.dev.Device.io_base in
  r = Device.Io.sreg || r = Device.Io.spl || r = Device.Io.sph

let data_peek t a =
  if is_sp_or_sreg t a then io_peek t (a - t.dev.Device.io_base) else data_get t a

let data_poke t a v =
  if is_sp_or_sreg t a then io_poke t (a - t.dev.Device.io_base) v else data_set t a v
let stack_slice t ~pos ~len =
  let size = Bytes.length t.data in
  let pos = max 0 (min pos size) in
  let len = max 0 (min len (size - pos)) in
  Bytes.sub_string t.data pos len
