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

(* A compiled superblock handed to the block tap: enough for the
   telemetry layer to account for every instruction the block retires
   without per-instruction callbacks.  [bi_key] is unique per compiled
   block (never reused within a CPU lifetime), so observers can memoize
   per-block work against it. *)
type block_info = {
  bi_key : int;
  bi_pc : int; (* entry word address *)
  bi_insns : Isa.t array;
}

type t = {
  mem : Memory.t;
  dev : Device.t;
  mutable pc : int; (* word address *)
  mutable cycles : int;
  mutable retired : int;
  mutable halt : halt option;
  mutable program_bytes : int; (* extent of the flashed image; PC beyond => wild *)
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
  (* Predecode cache: one entry per word PC.  [icache_words.(pc)] is the
     instruction length in words (1 or 2), with 0 meaning "not decoded
     yet"; [icache_insn.(pc)] is only meaningful when the length is
     non-zero.  Entries are filled on first execution and the whole
     cache is discarded whenever the flash epoch moves (reflash /
     bootloader page write), so a freshly randomized lifetime can never
     dispatch a stale decode. *)
  mutable icache_insn : Isa.t array;
  mutable icache_words : int array;
  mutable icache_epoch : int;
  mutable use_icache : bool;
  (* Superblock engine: straight-line runs of instructions fused into
     closure arrays ([block]), compiled lazily at a word address the
     batched run loop has entered [hot_entries] times ([block_hits]
     counts the entries of addresses with no block yet) and indexed by
     entry PC.  Like the predecode cache the whole table, counters
     included, is discarded when the flash epoch moves, so reflashes and
     SEU page writes can never execute stale fused code.  [block_stop]
     is raised by [io_write] when a guest store re-arms the timer or
     sets SREG.I mid-block — the two events that can make the remainder
     of a fused block unsound — and makes the block exit after the
     current instruction. *)
  mutable blocks : block array;
  mutable block_hits : Bytes.t; (* entries of each word with no block, saturating *)
  mutable blocks_epoch : int;
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
  (* Scratch for the cycle cost of the instruction being executed; a
     field rather than a [ref] so [exec_insn] does not allocate. *)
  mutable cyc : int;
  (* Telemetry taps.  The block tap is the only one on the hot path, so
     it is guarded by a plain bool ([tap_on]) with no-op closures behind
     it: when tracing is off each block and each single-stepped
     instruction pays one load + one predictable branch, nothing else.
     The interrupt and halt taps sit on cold paths and stay options. *)
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

let dummy_block_info = { bi_key = -1; bi_pc = -1; bi_insns = [||] }

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
    mem = Memory.create device;
    dev = device;
    pc = 0;
    cycles = 0;
    retired = 0;
    halt = None;
    program_bytes = device.Device.flash_bytes;
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
    icache_words = [||];
    icache_epoch = -1;
    use_icache = true;
    blocks = [||];
    block_hits = Bytes.empty;
    blocks_epoch = -1;
    block_keys = 0;
    use_superblocks = !superblocks_default;
    block_stop = false;
    block_insns = 0;
    sreg_v = 0;
    sp_v = 0;
    sp_min = max_int;
    cyc = 0;
    tap_on = false;
    tap_step = no_step_tap;
    tap_block = no_block_tap;
    tap_irq = None;
    tap_halt = None;
  }

let mem t = t.mem
let device t = t.dev

(* Register file: memory-mapped at data 0x00..0x1F. *)
let[@inline] reg t r = Memory.reg_get t.mem r
let[@inline] set_reg t r v = Memory.reg_set t.mem r v

let io_addr t a = t.dev.Device.io_base + a
let sp t = t.sp_v

let set_sp t v =
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

(* ---- Telemetry taps ------------------------------------------------- *)

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

let load_program t image =
  Memory.load_flash t.mem image;
  t.program_bytes <- String.length image;
  reset t

(* ---- Predecode cache ------------------------------------------------ *)

(* Rebuild (or first-build) the cache skeleton for the current flash
   epoch.  Entries are decoded lazily on first execution: per-lifetime
   randomized images rarely execute every word, and ROP gadgets enter
   mid-instruction, so the cache must cover *every* word address rather
   than just a linear disassembly — lazy fill gives both for free. *)
let refresh_icache t =
  let nwords = (t.program_bytes + 1) / 2 in
  if Array.length t.icache_words = nwords then Array.fill t.icache_words 0 nwords 0
  else begin
    t.icache_words <- Array.make nwords 0;
    t.icache_insn <- Array.make nwords Isa.Nop
  end;
  t.icache_epoch <- Memory.flash_epoch t.mem

let decode_raw t pc =
  Decode.decode (Memory.flash_word t.mem pc) (Memory.flash_word t.mem (pc + 1))

(* Decode word address [pc] and store it in the cache (in-range [pc]
   only).  Returns the instruction; the length lands in [icache_words]. *)
let fill_entry t pc =
  let insn, words = decode_raw t pc in
  Array.unsafe_set t.icache_insn pc insn;
  Array.unsafe_set t.icache_words pc words;
  insn

(* Re-validate the cache against the flash epoch, so a reflash (the
   per-lifetime re-randomization path) can never serve stale decodes.
   Nothing executed by [exec_one] can mutate flash (there is no SPM
   instruction; reflashes happen host-side between calls), so the public
   execution entry points sync once instead of paying an epoch compare
   per instruction. *)
let sync_icache t =
  if t.use_icache && t.icache_epoch <> Memory.flash_epoch t.mem then refresh_icache t

(* Both switches sync their cache when flipped: the batched loops sync
   only at entry, and a tap callback may flip a switch mid-run, after a
   reflash made while the cache was off. *)
let set_decode_cache t enabled =
  t.use_icache <- enabled;
  sync_icache t

let decode_cache_enabled t = t.use_icache

(* Fetch the (insn, length-in-words) pair at word address [pc].
   Precondition: the cache is sync'd ([sync_icache]).  [skip_next] can
   probe one word past the programmed image; out-of-range addresses fall
   back to a raw decode, exactly as the uncached path reads erased
   flash. *)
let fetch t pc =
  if t.use_icache && pc >= 0 && pc < Array.length t.icache_words then begin
    let words = Array.unsafe_get t.icache_words pc in
    if words <> 0 then (Array.unsafe_get t.icache_insn pc, words)
    else
      let insn = fill_entry t pc in
      (insn, Array.unsafe_get t.icache_words pc)
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
  else Memory.data_get t.mem (io_addr t a)

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
    Memory.data_set t.mem (io_addr t a) v
  end
  else if a = Device.Io.tccr then begin
    Memory.data_set t.mem (io_addr t a) v;
    if v land 1 <> 0 then begin
      let period = (Memory.data_get t.mem (io_addr t Device.Io.ocr) + 1) * 64 in
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
      Memory.data_get t.mem (io_addr t Device.Io.eearl)
      lor (Memory.data_get t.mem (io_addr t Device.Io.eearh) lsl 8)
    in
    if v land 0x01 <> 0 then
      (* EERE: read eeprom[EEAR] into EEDR (stalls the CPU 4 cycles). *)
      Memory.data_set t.mem (io_addr t Device.Io.eedr) (Memory.eeprom_get t.mem ear)
    else if v land 0x02 <> 0 then
      (* EEPE: program eeprom[EEAR] from EEDR. *)
      Memory.eeprom_set t.mem ear (Memory.data_get t.mem (io_addr t Device.Io.eedr));
    Memory.data_set t.mem (io_addr t a) 0 (* strobes auto-clear *)
  end
  else Memory.data_set t.mem (io_addr t a) v

let data_read t addr =
  let io0 = t.dev.Device.io_base in
  if addr >= io0 && addr < io0 + 64 then io_read t (addr - io0) else Memory.data_get t.mem addr

let data_write t addr v =
  let io0 = t.dev.Device.io_base in
  if addr >= io0 && addr < io0 + 64 then io_write t (addr - io0) v
  else Memory.data_set t.mem addr v

let push_byte t v =
  let p = sp t in
  data_write t p v;
  set_sp t (p - 1)

let pop_byte t =
  let p = sp t + 1 in
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

let[@inline] flags_sub ?(keep_z = false) t d r res =
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

let word_reg t r = reg t r lor (reg t (r + 1) lsl 8)

let set_word_reg t r v =
  set_reg t r (v land 0xFF);
  set_reg t (r + 1) ((v lsr 8) land 0xFF)

let x_reg = 26
let y_reg = 28
let z_reg = 30

let ptr_access t p ~write =
  (* Returns the effective address for the access, applying inc/dec. *)
  ignore write;
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
  let period = (Memory.data_get t.mem (io_addr t Device.Io.ocr) + 1) * 64 in
  t.timer_next_fire <- t.cycles + period;
  t.interrupts_taken <- t.interrupts_taken + 1;
  t.cycles <- t.cycles + 5;
  match t.tap_irq with None -> () | Some f -> f ~latency ~masked

(* The semantics of one decoded instruction, shared by the stepper and
   by every superblock's final instruction, so control transfers, skips
   and halts are written once.  Precondition: [t.pc] already holds the
   fall-through address and [t.retired] counts [insn]; [pc0] is the
   instruction's own word address.  Charges the instruction's cycles. *)
let exec_insn t pc0 (insn : Isa.t) =
  t.cyc <- 1;
  (match insn with
  | Nop -> ()
  | Data w ->
      set_halt t (Illegal_instruction { byte_addr = pc0 * 2; word = w });
      t.pc <- pc0
  | Movw (d, r) ->
      set_reg t d (reg t r);
      set_reg t (d + 1) (reg t (r + 1))
  | Ldi (d, k) -> set_reg t d k
  | Mov (d, r) -> set_reg t d (reg t r)
  | Add (d, r) ->
      let a = reg t d and b = reg t r in
      let res = a + b in
      flags_add t a b res;
      set_reg t d res
  | Adc (d, r) ->
      let a = reg t d and b = reg t r in
      let res = a + b + if get_flag t Flag.c then 1 else 0 in
      flags_add t a b res;
      set_reg t d res
  | Sub (d, r) ->
      let a = reg t d and b = reg t r in
      let res = a - b in
      flags_sub t a b res;
      set_reg t d res
  | Sbc (d, r) ->
      let a = reg t d and b = reg t r in
      let res = a - b - if get_flag t Flag.c then 1 else 0 in
      flags_sub ~keep_z:true t a b res;
      set_reg t d res
  | And (d, r) ->
      let res = reg t d land reg t r in
      flags_logic t res;
      set_reg t d res
  | Or (d, r) ->
      let res = reg t d lor reg t r in
      flags_logic t res;
      set_reg t d res
  | Eor (d, r) ->
      let res = reg t d lxor reg t r in
      flags_logic t res;
      set_reg t d res
  | Cp (d, r) -> flags_sub t (reg t d) (reg t r) (reg t d - reg t r)
  | Cpc (d, r) ->
      let c = if get_flag t Flag.c then 1 else 0 in
      flags_sub ~keep_z:true t (reg t d) (reg t r) (reg t d - reg t r - c)
  | Cpse (d, r) -> if reg t d = reg t r then skip_next t
  | Mul (d, r) ->
      let p = reg t d * reg t r in
      set_reg t 0 (p land 0xFF);
      set_reg t 1 ((p lsr 8) land 0xFF);
      update_flags t
        ~mask:((1 lsl Flag.c) lor (1 lsl Flag.z))
        (fbit Flag.c (p land 0x8000 <> 0) lor fbit Flag.z (p land 0xFFFF = 0));
      t.cyc <- 2
  | Subi (d, k) ->
      let a = reg t d in
      let res = a - k in
      flags_sub t a k res;
      set_reg t d res
  | Sbci (d, k) ->
      let a = reg t d in
      let res = a - k - if get_flag t Flag.c then 1 else 0 in
      flags_sub ~keep_z:true t a k res;
      set_reg t d res
  | Andi (d, k) ->
      let res = reg t d land k in
      flags_logic t res;
      set_reg t d res
  | Ori (d, k) ->
      let res = reg t d lor k in
      flags_logic t res;
      set_reg t d res
  | Cpi (d, k) -> flags_sub t (reg t d) k (reg t d - k)
  | Com d ->
      let res = 0xFF - reg t d in
      update_flags t ~mask:mask_cvzns ((1 lsl Flag.c) lor zns_bits res ~v:false);
      set_reg t d res
  | Neg d ->
      let a = reg t d in
      let res = (0x100 - a) land 0xFF in
      let v = res = 0x80 in
      update_flags t ~mask:mask_hcvzns
        (fbit Flag.c (res <> 0) lor fbit Flag.v v
        lor fbit Flag.h ((res lor a) land 0x08 <> 0)
        lor zns_bits res ~v);
      set_reg t d res
  | Inc d ->
      let res = (reg t d + 1) land 0xFF in
      let v = res = 0x80 in
      update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
      set_reg t d res
  | Dec d ->
      let res = (reg t d - 1) land 0xFF in
      let v = res = 0x7F in
      update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
      set_reg t d res
  | Lsr d ->
      let a = reg t d in
      let res = a lsr 1 in
      (* n = 0, v = c, s = n xor v = v. *)
      let c = a land 1 <> 0 in
      update_flags t ~mask:mask_cvzns
        (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.v c lor fbit Flag.s c);
      set_reg t d res
  | Ror d ->
      let a = reg t d in
      let res = (a lsr 1) lor (if get_flag t Flag.c then 0x80 else 0) in
      let c = a land 1 <> 0 in
      let n = res land 0x80 <> 0 in
      let v = n <> c in
      update_flags t ~mask:mask_cvzns
        (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.n n lor fbit Flag.v v
        lor fbit Flag.s (n <> v));
      set_reg t d res
  | Asr d ->
      let a = reg t d in
      let res = (a lsr 1) lor (a land 0x80) in
      let s0 = sreg t in
      let c = a land 1 <> 0 in
      let n = res land 0x80 <> 0 in
      (* Net effect of the former sequence: S pairs N with the
         pre-update V, then V becomes n xor c. *)
      let v_old = (s0 lsr Flag.v) land 1 = 1 in
      set_sreg t
        (s0 land lnot mask_cvzns
        lor fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.n n
        lor fbit Flag.v (n <> c) lor fbit Flag.s (n <> v_old));
      set_reg t d res
  | Swap d ->
      let a = reg t d in
      set_reg t d (((a lsl 4) lor (a lsr 4)) land 0xFF)
  | Push r ->
      push_byte t (reg t r);
      t.cyc <- 2
  | Pop r ->
      set_reg t r (pop_byte t);
      t.cyc <- 2
  | Ret ->
      t.pc <- pop_pc t;
      shadow_ret t t.pc;
      t.cyc <- (if t.dev.Device.pc_bytes = 3 then 5 else 4)
  | Reti ->
      t.pc <- pop_pc t;
      shadow_ret t t.pc;
      if not (get_flag t Flag.i) then t.i_up_cycle <- t.cycles;
      set_flag t Flag.i true;
      t.cyc <- (if t.dev.Device.pc_bytes = 3 then 5 else 4)
  | Icall ->
      push_pc t t.pc;
      shadow_call t t.pc;
      t.pc <- word_reg t z_reg;
      t.cyc <- (if t.dev.Device.pc_bytes = 3 then 4 else 3)
  | Ijmp ->
      t.pc <- word_reg t z_reg;
      t.cyc <- 2
  | Call a ->
      push_pc t t.pc;
      shadow_call t t.pc;
      t.pc <- a;
      t.cyc <- (if t.dev.Device.pc_bytes = 3 then 5 else 4)
  | Jmp a ->
      t.pc <- a;
      t.cyc <- 3
  | Rcall k ->
      push_pc t t.pc;
      shadow_call t t.pc;
      t.pc <- t.pc + k;
      t.cyc <- (if t.dev.Device.pc_bytes = 3 then 4 else 3)
  | Rjmp k ->
      t.pc <- t.pc + k;
      t.cyc <- 2
  | Brbs (b, k) -> branch t (get_flag t b) k
  | Brbc (b, k) -> branch t (not (get_flag t b)) k
  | In (d, a) -> set_reg t d (io_read t a)
  | Out (a, r) -> io_write t a (reg t r)
  | Lds (d, a) ->
      set_reg t d (data_read t a);
      t.cyc <- 2
  | Sts (a, r) ->
      data_write t a (reg t r);
      t.cyc <- 2
  | Ldd (d, b, q) ->
      let base = if b = Y then y_reg else z_reg in
      set_reg t d (data_read t (word_reg t base + q));
      t.cyc <- 2
  | Std (b, q, r) ->
      let base = if b = Y then y_reg else z_reg in
      data_write t (word_reg t base + q) (reg t r);
      t.cyc <- 2
  | Ld (d, p) ->
      set_reg t d (data_read t (ptr_access t p ~write:false));
      t.cyc <- 2
  | St (p, r) ->
      data_write t (ptr_access t p ~write:true) (reg t r);
      t.cyc <- 2
  | Adiw (d, k) ->
      let v = word_reg t d in
      let res = (v + k) land 0xFFFF in
      update_flags t ~mask:mask_cvzn
        (fbit Flag.c (v + k > 0xFFFF)
        lor fbit Flag.z (res = 0)
        lor fbit Flag.n (res land 0x8000 <> 0)
        lor fbit Flag.v (res land 0x8000 <> 0 && v land 0x8000 = 0));
      set_word_reg t d res;
      t.cyc <- 2
  | Sbiw (d, k) ->
      let v = word_reg t d in
      let res = (v - k) land 0xFFFF in
      update_flags t ~mask:mask_cvzn
        (fbit Flag.c (v < k)
        lor fbit Flag.z (res = 0)
        lor fbit Flag.n (res land 0x8000 <> 0)
        lor fbit Flag.v (res land 0x8000 = 0 && v land 0x8000 <> 0));
      set_word_reg t d res;
      t.cyc <- 2
  | Lpm0 ->
      set_reg t 0 (Memory.flash_byte t.mem (word_reg t z_reg));
      t.cyc <- 3
  | Lpm (d, inc) ->
      let z = word_reg t z_reg in
      set_reg t d (Memory.flash_byte t.mem z);
      if inc then set_word_reg t z_reg ((z + 1) land 0xFFFF);
      t.cyc <- 3
  | Elpm0 ->
      let rampz = Memory.data_get t.mem (io_addr t 0x3B) in
      set_reg t 0 (Memory.flash_byte t.mem ((rampz lsl 16) lor word_reg t z_reg));
      t.cyc <- 3
  | Elpm (d, inc) ->
      let rampz = Memory.data_get t.mem (io_addr t 0x3B) in
      let z = word_reg t z_reg in
      set_reg t d (Memory.flash_byte t.mem ((rampz lsl 16) lor z));
      if inc then begin
        (* 24-bit post-increment carries into RAMPZ. *)
        let full = ((rampz lsl 16) lor z) + 1 in
        set_word_reg t z_reg (full land 0xFFFF);
        Memory.data_set t.mem (io_addr t 0x3B) ((full lsr 16) land 0xFF)
      end;
      t.cyc <- 3
  | Sbi (a, b) ->
      io_write t a (io_read t a lor (1 lsl b));
      t.cyc <- 2
  | Cbi (a, b) ->
      io_write t a (io_read t a land lnot (1 lsl b));
      t.cyc <- 2
  | Sbic (a, b) -> if io_read t a land (1 lsl b) = 0 then skip_next t
  | Sbis (a, b) -> if io_read t a land (1 lsl b) <> 0 then skip_next t
  | Bld (d, b) ->
      let v = reg t d in
      set_reg t d (if get_flag t Flag.t then v lor (1 lsl b) else v land lnot (1 lsl b))
  | Bst (d, b) -> set_flag t Flag.t (reg t d land (1 lsl b) <> 0)
  | Sbrc (r, b) -> if reg t r land (1 lsl b) = 0 then skip_next t
  | Sbrs (r, b) -> if reg t r land (1 lsl b) <> 0 then skip_next t
  | Bset b ->
      if b = Flag.i && not (get_flag t Flag.i) then t.i_up_cycle <- t.cycles;
      set_flag t b true
  | Bclr b -> set_flag t b false
  | Wdr -> ()
  | Sleep -> set_halt t Sleep_mode
  | Break -> set_halt t Break_hit);
  t.cycles <- t.cycles + t.cyc

(* Execute exactly one instruction (or take a pending interrupt).
   Precondition: not halted — the halt check lives in the callers so the
   batched [run] loops pay for it once per iteration condition rather
   than re-matching inside.  The timer comparison is ordered before the
   SREG read so that with the timer disarmed ([max_int], the common
   case) the memory-mapped I flag is never touched on the hot path. *)
let exec_one t =
  if t.cycles >= t.timer_next_fire && get_flag t Flag.i then take_timer_interrupt t
  else if t.pc < 0 || t.pc * 2 >= t.program_bytes then set_halt t (Wild_pc (t.pc * 2))
  else begin
    let pc0 = t.pc in
    (* Inline fetch, split so the cache-hit path allocates nothing
       (building the (insn, words) pair costs a heap block per
       instruction without flambda).  No bounds check: the wild-PC guard
       above bounds pc0 by program_bytes, and a sync'd cache spans
       exactly (program_bytes + 1) / 2 entries. *)
    let insn =
      if t.use_icache then begin
        let words = Array.unsafe_get t.icache_words pc0 in
        if words <> 0 then begin
          t.pc <- pc0 + words;
          Array.unsafe_get t.icache_insn pc0
        end
        else begin
          let insn = fill_entry t pc0 in
          t.pc <- pc0 + Array.unsafe_get t.icache_words pc0;
          insn
        end
      end
      else begin
        let insn, words = decode_raw t pc0 in
        t.pc <- pc0 + words;
        insn
      end
    in
    if t.tap_on then t.tap_step pc0 insn;
    t.retired <- t.retired + 1;
    exec_insn t pc0 insn
  end

let step t =
  match t.halt with
  | Some _ -> ()
  | None ->
      sync_icache t;
      exec_one t

(* ---- Superblock threaded-code engine -------------------------------- *)

let refresh_blocks t =
  let nwords = (t.program_bytes + 1) / 2 in
  if Array.length t.blocks = nwords then begin
    Array.fill t.blocks 0 nwords dummy_block;
    Bytes.fill t.block_hits 0 nwords '\000'
  end
  else begin
    t.blocks <- Array.make nwords dummy_block;
    t.block_hits <- Bytes.make nwords '\000'
  end;
  t.blocks_epoch <- Memory.flash_epoch t.mem

(* Same invalidation argument as [sync_icache]: guest execution cannot
   mutate flash, so the epoch compare happens once per batched entry
   point, and a reflash or SEU page write between slices drops every
   compiled block. *)
let sync_blocks t =
  if t.use_superblocks && t.blocks_epoch <> Memory.flash_epoch t.mem then refresh_blocks t

let set_superblocks t enabled =
  t.use_superblocks <- enabled;
  sync_blocks t

let superblocks_enabled t = t.use_superblocks

(* ---- Trace compiler ------------------------------------------------- *)

(* A fusible (non-control) instruction compiles to a *builder*: a
   function that, given the continuation closure for the rest of the
   trace, returns this instruction's closure.  The closure performs the
   instruction's exact [exec_one] semantics and tail-calls the
   continuation — continuation-threaded code, one indirect call per
   instruction, no dispatch loop.

   Cycle accounting is batched: [FPure] closures never touch
   [t.cycles].  Their static costs accumulate in a compile-time
   [pending] counter that is flushed (one add of a captured constant)
   immediately before any operation able to observe the clock.  The
   observers are exactly the I/O paths: [io_read] (UART pacing reads
   [t.cycles]), [io_write] (UART busy window, watchdog feed stamp,
   timer arming), and therefore also every data-space access, whose
   dynamic address may land in the I/O file.  [FLoad] builders take the
   flush amount; [FStore] builders additionally take a stop
   continuation, because [io_write] can set [t.block_stop] (timer
   re-arm, SREG.I set) which must abandon the rest of the fused trace
   after the current instruction. *)
type fuse =
  | FPure of int * ((t -> unit) -> t -> unit) (* cost, builder k *)
  | FLoad of int * (int -> (t -> unit) -> t -> unit) (* cost, builder flush k *)
  | FStore of int * (int -> (t -> unit) -> (t -> unit) -> t -> unit)
      (* cost, builder flush stop k *)

let compile_body (insn : Isa.t) : fuse option =
  match insn with
  | Nop -> Some (FPure (1, fun k t -> k t))
  | Movw (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               set_reg t d (reg t r);
               set_reg t (d + 1) (reg t (r + 1));
               k t ))
  | Ldi (d, v) -> Some (FPure (1, fun k t -> set_reg t d v; k t))
  | Mov (d, r) -> Some (FPure (1, fun k t -> set_reg t d (reg t r); k t))
  | Add (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d and b = reg t r in
               let res = a + b in
               flags_add t a b res;
               set_reg t d res;
               k t ))
  | Adc (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d and b = reg t r in
               let res = a + b + if get_flag t Flag.c then 1 else 0 in
               flags_add t a b res;
               set_reg t d res;
               k t ))
  | Sub (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d and b = reg t r in
               let res = a - b in
               flags_sub t a b res;
               set_reg t d res;
               k t ))
  | Sbc (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d and b = reg t r in
               let res = a - b - if get_flag t Flag.c then 1 else 0 in
               flags_sub ~keep_z:true t a b res;
               set_reg t d res;
               k t ))
  | And (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = reg t d land reg t r in
               flags_logic t res;
               set_reg t d res;
               k t ))
  | Or (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = reg t d lor reg t r in
               flags_logic t res;
               set_reg t d res;
               k t ))
  | Eor (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = reg t d lxor reg t r in
               flags_logic t res;
               set_reg t d res;
               k t ))
  | Cp (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               flags_sub t (reg t d) (reg t r) (reg t d - reg t r);
               k t ))
  | Cpc (d, r) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let c = if get_flag t Flag.c then 1 else 0 in
               flags_sub ~keep_z:true t (reg t d) (reg t r) (reg t d - reg t r - c);
               k t ))
  | Mul (d, r) ->
      Some
        (FPure
           ( 2,
             fun k t ->
               let p = reg t d * reg t r in
               set_reg t 0 (p land 0xFF);
               set_reg t 1 ((p lsr 8) land 0xFF);
               update_flags t
                 ~mask:((1 lsl Flag.c) lor (1 lsl Flag.z))
                 (fbit Flag.c (p land 0x8000 <> 0) lor fbit Flag.z (p land 0xFFFF = 0));
               k t ))
  | Subi (d, v) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               let res = a - v in
               flags_sub t a v res;
               set_reg t d res;
               k t ))
  | Sbci (d, v) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               let res = a - v - if get_flag t Flag.c then 1 else 0 in
               flags_sub ~keep_z:true t a v res;
               set_reg t d res;
               k t ))
  | Andi (d, v) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = reg t d land v in
               flags_logic t res;
               set_reg t d res;
               k t ))
  | Ori (d, v) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = reg t d lor v in
               flags_logic t res;
               set_reg t d res;
               k t ))
  | Cpi (d, v) ->
      Some (FPure (1, fun k t -> flags_sub t (reg t d) v (reg t d - v); k t))
  | Com d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = 0xFF - reg t d in
               update_flags t ~mask:mask_cvzns ((1 lsl Flag.c) lor zns_bits res ~v:false);
               set_reg t d res;
               k t ))
  | Neg d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               let res = (0x100 - a) land 0xFF in
               let v = res = 0x80 in
               update_flags t ~mask:mask_hcvzns
                 (fbit Flag.c (res <> 0) lor fbit Flag.v v
                 lor fbit Flag.h ((res lor a) land 0x08 <> 0)
                 lor zns_bits res ~v);
               set_reg t d res;
               k t ))
  | Inc d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = (reg t d + 1) land 0xFF in
               let v = res = 0x80 in
               update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
               set_reg t d res;
               k t ))
  | Dec d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let res = (reg t d - 1) land 0xFF in
               let v = res = 0x7F in
               update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
               set_reg t d res;
               k t ))
  | Lsr d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               let res = a lsr 1 in
               let c = a land 1 <> 0 in
               update_flags t ~mask:mask_cvzns
                 (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.v c lor fbit Flag.s c);
               set_reg t d res;
               k t ))
  | Ror d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               let res = (a lsr 1) lor (if get_flag t Flag.c then 0x80 else 0) in
               let c = a land 1 <> 0 in
               let n = res land 0x80 <> 0 in
               let v = n <> c in
               update_flags t ~mask:mask_cvzns
                 (fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.n n lor fbit Flag.v v
                 lor fbit Flag.s (n <> v));
               set_reg t d res;
               k t ))
  | Asr d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               let res = (a lsr 1) lor (a land 0x80) in
               let s0 = sreg t in
               let c = a land 1 <> 0 in
               let n = res land 0x80 <> 0 in
               let v_old = (s0 lsr Flag.v) land 1 = 1 in
               set_sreg t
                 (s0 land lnot mask_cvzns
                 lor fbit Flag.c c lor fbit Flag.z (res = 0) lor fbit Flag.n n
                 lor fbit Flag.v (n <> c) lor fbit Flag.s (n <> v_old));
               set_reg t d res;
               k t ))
  | Swap d ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let a = reg t d in
               set_reg t d (((a lsl 4) lor (a lsr 4)) land 0xFF);
               k t ))
  | Adiw (d, v) ->
      Some
        (FPure
           ( 2,
             fun k t ->
               let w = word_reg t d in
               let res = (w + v) land 0xFFFF in
               update_flags t ~mask:mask_cvzn
                 (fbit Flag.c (w + v > 0xFFFF)
                 lor fbit Flag.z (res = 0)
                 lor fbit Flag.n (res land 0x8000 <> 0)
                 lor fbit Flag.v (res land 0x8000 <> 0 && w land 0x8000 = 0));
               set_word_reg t d res;
               k t ))
  | Sbiw (d, v) ->
      Some
        (FPure
           ( 2,
             fun k t ->
               let w = word_reg t d in
               let res = (w - v) land 0xFFFF in
               update_flags t ~mask:mask_cvzn
                 (fbit Flag.c (w < v)
                 lor fbit Flag.z (res = 0)
                 lor fbit Flag.n (res land 0x8000 <> 0)
                 lor fbit Flag.v (res land 0x8000 = 0 && w land 0x8000 <> 0));
               set_word_reg t d res;
               k t ))
  | Lpm0 ->
      Some
        (FPure
           ( 3,
             fun k t ->
               set_reg t 0 (Memory.flash_byte t.mem (word_reg t z_reg));
               k t ))
  | Lpm (d, inc) ->
      Some
        (FPure
           ( 3,
             fun k t ->
               let z = word_reg t z_reg in
               set_reg t d (Memory.flash_byte t.mem z);
               if inc then set_word_reg t z_reg ((z + 1) land 0xFFFF);
               k t ))
  | Elpm0 ->
      Some
        (FPure
           ( 3,
             fun k t ->
               let rampz = Memory.data_get t.mem (io_addr t 0x3B) in
               set_reg t 0 (Memory.flash_byte t.mem ((rampz lsl 16) lor word_reg t z_reg));
               k t ))
  | Elpm (d, inc) ->
      Some
        (FPure
           ( 3,
             fun k t ->
               let rampz = Memory.data_get t.mem (io_addr t 0x3B) in
               let z = word_reg t z_reg in
               set_reg t d (Memory.flash_byte t.mem ((rampz lsl 16) lor z));
               if inc then begin
                 let full = ((rampz lsl 16) lor z) + 1 in
                 set_word_reg t z_reg (full land 0xFFFF);
                 Memory.data_set t.mem (io_addr t 0x3B) ((full lsr 16) land 0xFF)
               end;
               k t ))
  | Bld (d, b) ->
      Some
        (FPure
           ( 1,
             fun k t ->
               let v = reg t d in
               set_reg t d
                 (if get_flag t Flag.t then v lor (1 lsl b) else v land lnot (1 lsl b));
               k t ))
  | Bst (d, b) ->
      Some (FPure (1, fun k t -> set_flag t Flag.t (reg t d land (1 lsl b) <> 0); k t))
  | Bset b when b <> Flag.i -> Some (FPure (1, fun k t -> set_flag t b true; k t))
  | Bclr b ->
      (* cli (b = I) stays fusible: clearing I can only *prevent* a
         dispatch, and the block was entered under a no-fire-within-
         this-block guarantee anyway. *)
      Some (FPure (1, fun k t -> set_flag t b false; k t))
  | Wdr -> Some (FPure (1, fun k t -> k t))
  (* Data-space and I/O accesses: clock observers (and, for writes,
     possible [block_stop] raisers). *)
  | In (d, a) ->
      Some
        (FLoad
           ( 1,
             fun fl k t ->
               t.cycles <- t.cycles + fl;
               set_reg t d (io_read t a);
               k t ))
  | Lds (d, a) ->
      Some
        (FLoad
           ( 2,
             fun fl k t ->
               t.cycles <- t.cycles + fl;
               set_reg t d (data_read t a);
               k t ))
  | Ldd (d, b, q) ->
      let base = if b = Y then y_reg else z_reg in
      Some
        (FLoad
           ( 2,
             fun fl k t ->
               t.cycles <- t.cycles + fl;
               set_reg t d (data_read t (word_reg t base + q));
               k t ))
  | Ld (d, p) ->
      Some
        (FLoad
           ( 2,
             fun fl k t ->
               t.cycles <- t.cycles + fl;
               set_reg t d (data_read t (ptr_access t p ~write:false));
               k t ))
  | Pop r ->
      Some
        (FLoad
           ( 2,
             fun fl k t ->
               t.cycles <- t.cycles + fl;
               set_reg t r (pop_byte t);
               k t ))
  | Out (a, r) ->
      Some
        (FStore
           ( 1,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               io_write t a (reg t r);
               if t.block_stop then stop t else k t ))
  | Sts (a, r) ->
      Some
        (FStore
           ( 2,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               data_write t a (reg t r);
               if t.block_stop then stop t else k t ))
  | Std (b, q, r) ->
      let base = if b = Y then y_reg else z_reg in
      Some
        (FStore
           ( 2,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               data_write t (word_reg t base + q) (reg t r);
               if t.block_stop then stop t else k t ))
  | St (p, r) ->
      Some
        (FStore
           ( 2,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               data_write t (ptr_access t p ~write:true) (reg t r);
               if t.block_stop then stop t else k t ))
  | Push r ->
      Some
        (FStore
           ( 2,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               push_byte t (reg t r);
               if t.block_stop then stop t else k t ))
  | Sbi (a, b) ->
      Some
        (FStore
           ( 2,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               io_write t a (io_read t a lor (1 lsl b));
               if t.block_stop then stop t else k t ))
  | Cbi (a, b) ->
      Some
        (FStore
           ( 2,
             fun fl stop k t ->
               t.cycles <- t.cycles + fl;
               io_write t a (io_read t a land lnot (1 lsl b));
               if t.block_stop then stop t else k t ))
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

(* Flag-free bodies for the pure ALU ops.  [NfElide] marks compares:   *)
(* with dead flags they have no effect at all and compile to nothing.  *)
type nf =
  | NfNone
  | NfElide
  | NfMk of ((t -> unit) -> t -> unit)

let compile_flagless (insn : Isa.t) : nf =
  match insn with
  | Cp _ | Cpc _ | Cpi _ -> NfElide
  | Add (d, r) -> NfMk (fun k t -> set_reg t d (reg t d + reg t r); k t)
  | Adc (d, r) ->
      NfMk (fun k t -> set_reg t d (reg t d + reg t r + (t.sreg_v land 1)); k t)
  | Sub (d, r) -> NfMk (fun k t -> set_reg t d (reg t d - reg t r); k t)
  | Sbc (d, r) ->
      NfMk (fun k t -> set_reg t d (reg t d - reg t r - (t.sreg_v land 1)); k t)
  | Subi (d, v) -> NfMk (fun k t -> set_reg t d (reg t d - v); k t)
  | Sbci (d, v) ->
      NfMk (fun k t -> set_reg t d (reg t d - v - (t.sreg_v land 1)); k t)
  | And (d, r) -> NfMk (fun k t -> set_reg t d (reg t d land reg t r); k t)
  | Andi (d, v) -> NfMk (fun k t -> set_reg t d (reg t d land v); k t)
  | Or (d, r) -> NfMk (fun k t -> set_reg t d (reg t d lor reg t r); k t)
  | Ori (d, v) -> NfMk (fun k t -> set_reg t d (reg t d lor v); k t)
  | Eor (d, r) -> NfMk (fun k t -> set_reg t d (reg t d lxor reg t r); k t)
  | Inc d -> NfMk (fun k t -> set_reg t d (reg t d + 1); k t)
  | Dec d -> NfMk (fun k t -> set_reg t d (reg t d - 1); k t)
  | Com d -> NfMk (fun k t -> set_reg t d (0xFF - reg t d); k t)
  | Neg d -> NfMk (fun k t -> set_reg t d (0x100 - reg t d); k t)
  | Lsr d -> NfMk (fun k t -> set_reg t d (reg t d lsr 1); k t)
  | Asr d ->
      NfMk
        (fun k t ->
          let a = reg t d in
          set_reg t d ((a lsr 1) lor (a land 0x80));
          k t)
  | Ror d ->
      NfMk
        (fun k t ->
          let a = reg t d in
          set_reg t d ((a lsr 1) lor ((t.sreg_v land 1) lsl 7));
          k t)
  | Mul (d, r) ->
      NfMk
        (fun k t ->
          let p = reg t d * reg t r in
          set_reg t 0 p;
          set_reg t 1 (p lsr 8);
          k t)
  | Adiw (d, v) -> NfMk (fun k t -> set_word_reg t d (word_reg t d + v); k t)
  | Sbiw (d, v) -> NfMk (fun k t -> set_word_reg t d (word_reg t d - v); k t)
  | _ -> NfNone

(* ALU + flag-branch superinstruction: when a pure ALU op is followed  *)
(* by a branch on a flag it writes, and the rest of its flags are dead *)
(* along the predicted path, the pair compiles to one closure that     *)
(* tests the would-be flag straight from the arithmetic.  The full     *)
(* SREG update is materialised only on the mispredicted side exit,     *)
(* immediately before control leaves the trace, so the architectural   *)
(* flag state at every observation point is bit-identical to stepping. *)
let pair_fuse (insn : Isa.t) ~flag ~sense ~(kc : t -> unit) ~(kx : t -> unit) :
    (t -> unit) option =
  let zf = Flag.z and cf = Flag.c and nf = Flag.n in
  let zmask = 1 lsl Flag.z in
  let sub2 geta getb dest ~keep =
    if flag = zf || flag = nf || flag = cf then
      Some
        (fun t ->
          let a = geta t and b = getb t in
          let res = a - b - (if keep then t.sreg_v land 1 else 0) in
          let zkeep = (not keep) || t.sreg_v land zmask <> 0 in
          (match dest with Some d -> set_reg t d res | None -> ());
          let fv =
            if flag = cf then res < 0
            else if flag = nf then res land 0x80 <> 0
            else res land 0xFF = 0 && zkeep
          in
          if fv = sense then kc t
          else begin
            flags_sub ~keep_z:keep t a b res;
            kx t
          end)
    else None
  in
  let add2 d getb ~carry =
    if flag = zf || flag = nf || flag = cf then
      Some
        (fun t ->
          let a = reg t d and b = getb t in
          let res = a + b + (if carry then t.sreg_v land 1 else 0) in
          set_reg t d res;
          let fv =
            if flag = cf then res > 0xFF
            else if flag = nf then res land 0x80 <> 0
            else res land 0xFF = 0
          in
          if fv = sense then kc t
          else begin
            flags_add t a b res;
            kx t
          end)
    else None
  in
  let logic2 d mkres =
    if flag = zf || flag = nf then
      Some
        (fun t ->
          let res = mkres t in
          set_reg t d res;
          let fv = if flag = nf then res land 0x80 <> 0 else res = 0 in
          if fv = sense then kc t
          else begin
            flags_logic t res;
            kx t
          end)
    else None
  in
  let step1 d delta vmagic =
    if flag = zf || flag = nf then
      Some
        (fun t ->
          let res = (reg t d + delta) land 0xFF in
          set_reg t d res;
          let fv = if flag = nf then res land 0x80 <> 0 else res = 0 in
          if fv = sense then kc t
          else begin
            let v = res = vmagic in
            update_flags t ~mask:mask_vzns (fbit Flag.v v lor zns_bits res ~v);
            kx t
          end)
    else None
  in
  let rd r t = reg t r
  and ct v _ = v in
  match insn with
  | Dec d -> step1 d (-1) 0x7F
  | Inc d -> step1 d 1 0x80
  | Subi (d, v) -> sub2 (rd d) (ct v) (Some d) ~keep:false
  | Cpi (d, v) -> sub2 (rd d) (ct v) None ~keep:false
  | Sub (d, r) -> sub2 (rd d) (rd r) (Some d) ~keep:false
  | Cp (d, r) -> sub2 (rd d) (rd r) None ~keep:false
  | Sbci (d, v) -> sub2 (rd d) (ct v) (Some d) ~keep:true
  | Sbc (d, r) -> sub2 (rd d) (rd r) (Some d) ~keep:true
  | Cpc (d, r) -> sub2 (rd d) (rd r) None ~keep:true
  | Add (d, r) -> add2 d (rd r) ~carry:false
  | Adc (d, r) -> add2 d (rd r) ~carry:true
  | And (d, r) -> logic2 d (fun t -> reg t d land reg t r)
  | Andi (d, v) -> logic2 d (fun t -> reg t d land v)
  | Or (d, r) -> logic2 d (fun t -> reg t d lor reg t r)
  | Ori (d, v) -> logic2 d (fun t -> reg t d lor v)
  | Eor (d, r) -> logic2 d (fun t -> reg t d lxor reg t r)
  | _ -> None

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

type skind =
  | KBody of fuse
  | KGoto of int (* cost; continue at the jump target *)
  | KCall of int * int * int (* return word addr, cost, callee word pc *)
  | KCond of ctest * int * int * int
      (* test, continue cost, exit word pc, exit cost *)

type slot = { s_insn : Isa.t; s_next : int; s_kind : skind }

let compile_block t entry_pc =
  let prog_ok pc = pc >= 0 && pc * 2 < t.program_bytes in
  let slots = ref [] in
  let count = ref 0 in
  (* Worst-case cycles and static calls of every slot, and the last
     slot's share of each. *)
  let span = ref 0 and calls = ref 0 in
  let last_cost = ref 0 and last_call = ref 0 in
  let rc = if t.dev.Device.pc_bytes = 3 then 5 else 4 in
  let ic = if t.dev.Device.pc_bytes = 3 then 4 else 3 in
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
    let room = !count < max_block_insns - 1 in
    let push kind cost =
      slots := { s_insn = insn; s_next = next; s_kind = kind } :: !slots;
      incr count;
      span := !span + cost;
      last_cost := cost;
      last_call := (match kind with KCall _ -> 1 | _ -> 0);
      calls := !calls + !last_call
    in
    let emit kind cost cont = push kind cost; go cont in
    let finish () = final := Some (insn, pc, next) in
    let cond c ~cont_cost ~cont_pc ~exit_pc ~exit_cost ~worst =
      if room && prog_ok cont_pc then
        emit (KCond (c, cont_cost, exit_pc, exit_cost)) worst cont_pc
      else finish ()
    in
    match insn with
    | Rjmp k when room && prog_ok (next + k) -> emit (KGoto 2) 2 (next + k)
    | Jmp a when room && prog_ok a -> emit (KGoto 3) 3 a
    | Rcall k when room && prog_ok (next + k) -> emit (KCall (next, ic, next + k)) ic (next + k)
    | Call a when room && prog_ok a -> emit (KCall (next, rc, a)) rc a
    | Brbs (b, k) ->
        let target = next + k in
        if target <= pc then
          cond (CFlag (b, true)) ~cont_cost:2 ~cont_pc:target
            ~exit_pc:next ~exit_cost:1 ~worst:2
        else
          cond (CFlag (b, false)) ~cont_cost:1 ~cont_pc:next
            ~exit_pc:target ~exit_cost:2 ~worst:2
    | Brbc (b, k) ->
        let target = next + k in
        if target <= pc then
          cond (CFlag (b, false)) ~cont_cost:2 ~cont_pc:target
            ~exit_pc:next ~exit_cost:1 ~worst:2
        else
          cond (CFlag (b, true)) ~cont_cost:1 ~cont_pc:next
            ~exit_pc:target ~exit_cost:2 ~worst:2
    | Cpse (d, r) ->
        let _, sw = fetch t next in
        cond (CRegNe (d, r)) ~cont_cost:1 ~cont_pc:next
          ~exit_pc:(next + sw) ~exit_cost:(1 + sw) ~worst:(1 + sw)
    | Sbrc (r, b) ->
        let _, sw = fetch t next in
        cond (CRegBit (r, b, true)) ~cont_cost:1 ~cont_pc:next
          ~exit_pc:(next + sw) ~exit_cost:(1 + sw) ~worst:(1 + sw)
    | Sbrs (r, b) ->
        let _, sw = fetch t next in
        cond (CRegBit (r, b, false)) ~cont_cost:1 ~cont_pc:next
          ~exit_pc:(next + sw) ~exit_cost:(1 + sw) ~worst:(1 + sw)
    | Sbic (a, b) ->
        let _, sw = fetch t next in
        cond (CIoBit (a, b, true)) ~cont_cost:1 ~cont_pc:next
          ~exit_pc:(next + sw) ~exit_cost:(1 + sw) ~worst:(1 + sw)
    | Sbis (a, b) ->
        let _, sw = fetch t next in
        cond (CIoBit (a, b, false)) ~cont_cost:1 ~cont_pc:next
          ~exit_pc:(next + sw) ~exit_cost:(1 + sw) ~worst:(1 + sw)
    | _ -> (
        match compile_body insn with
        | None -> finish ()
        | Some f ->
            let cost = match f with FPure (c, _) | FLoad (c, _) | FStore (c, _) -> c in
            if room && prog_ok next then emit (KBody f) cost next
            else begin
              push (KBody f) cost;
              link := next
            end)
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
    pend.(i + 1) <-
      (match arr.(i).s_kind with
      | KBody (FPure (c, _)) -> pend.(i) + c
      | KBody (FLoad (c, _)) | KBody (FStore (c, _)) -> c
      | KGoto c -> pend.(i) + c
      | KCall (_, c, _) -> c
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
      | KBody (FPure _) ->
          let wr, rd = flag_masks arr.(i).s_insn in
          (live.(i + 1) land lnot wr) lor rd
      | KBody (FLoad _ | FStore _) | KCall _ | KCond _ -> allf
      | KGoto _ -> live.(i + 1))
  done;
  (* Every way out of the trace lands here: flush the captured cycle
     debt, fix up the PC, credit the retired count once, and record the
     executed prefix length for the block tap. *)
  let mk_exit cyc pc cnt t =
    t.cycles <- t.cycles + cyc;
    t.pc <- pc;
    t.retired <- t.retired + cnt;
    t.block_insns <- cnt
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
          fun t ->
            t.cycles <- t.cycles + fl;
            t.retired <- t.retired + n_total;
            t.block_insns <- n_total;
            t.pc <- fin_next;
            exec_insn t fin_pc fin_insn);
    for i = nslots - 1 downto 0 do
      let s = arr.(i) in
      let cnt = i + 1 in
      let knext = ks.(i + 1) in
      ks.(i) <-
        (match s.s_kind with
        | KBody (FPure (_, mk)) -> (
            let wr, _ = flag_masks s.s_insn in
            (* ALU + flag-branch pair: the branch must test a flag this
               op writes, and the op's remaining flags must be dead
               along the continue path (the pair's own side exit
               materialises them). *)
            let fused =
              if wr = 0 || i + 1 >= nslots then None
              else
                match arr.(i + 1).s_kind with
                | KCond (CFlag (b, sense), _, exit_pc, exit_cost)
                  when wr land (1 lsl b) <> 0 && wr land live.(i + 2) = 0 ->
                    let kx = mk_exit (pend.(i + 1) + exit_cost) exit_pc (i + 2) in
                    pair_fuse s.s_insn ~flag:b ~sense ~kc:ks.(i + 2) ~kx
                | _ -> None
            in
            match fused with
            | Some f -> f
            | None ->
                if wr <> 0 && wr land live.(i + 1) = 0 then
                  match compile_flagless s.s_insn with
                  | NfElide -> knext
                  | NfMk mknf -> mknf knext
                  | NfNone -> mk knext
                else mk knext)
        | KBody (FLoad (_, mk)) -> mk pend.(i) knext
        | KBody (FStore (c, mk)) -> mk pend.(i) (mk_exit c s.s_next cnt) knext
        | KGoto _ -> knext
        | KCall (ret, cost, target) ->
            (* A mid-call [block_stop] resumes at the callee: the call
               itself has fully executed. *)
            let stop = mk_exit cost target cnt in
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
  (* The entry margin covers every instruction but the last: a timer
     compare or the run budget can only stop a stepping engine at an
     instruction boundary, and the last one a trace crosses is its exit,
     where [block_step] checks again.  A terminator is never a slot; a
     linked or cut trace's last instruction is its last slot. *)
  let lead, lead_calls =
    match fin with
    | Some _ -> (!span, !calls)
    | None -> (!span - !last_cost, !calls - !last_call)
  in
  {
    b_info = { bi_key = key; bi_pc = entry_pc; bi_insns = insns };
    b_entry = entry;
    b_lead = lead;
    b_lead_calls = lead_calls;
  }

(* Execute one compiled trace.  All per-instruction work lives inside
   the continuation-threaded closures; the wrapper only clears the
   [block_stop] latch and fires the block tap with the executed prefix
   length every exit path recorded in [t.block_insns]. *)
let exec_block t b =
  t.block_stop <- false;
  b.b_entry t;
  if t.tap_on then t.tap_block b.b_info t.block_insns

(* Compile policy.  Every lifetime starts with no blocks, and most
   code of a large image runs only a few times per lifetime, so a trace
   is compiled only at a word address the engine has entered
   [hot_entries] times, and only when that entry is at least
   [compile_window] cycles clear of the next compare match and the run
   budget — closer in, the new block could not be entered anyway. *)
let hot_entries = 16
let compile_window = 2 * max_block_insns

(* Whether an instruction boundary up to [lead] cycles ahead could be
   where stepping takes an interrupt or ends the run. *)
let near_stop t stop lead =
  (t.cycles + lead >= t.timer_next_fire && get_flag t Flag.i) || t.cycles + lead >= stop

(* The correctness carve-out: with a compare match armed and interrupts
   enabled, a block with an internal instruction boundary at or past
   the fire cycle is not entered — the engine single-steps through
   [exec_one] (which takes the interrupt at the exact cycle stepping
   would) until the window passes.  The same carve-out applies to the
   run budget [stop], so a batched run ends at exactly the instruction
   boundary pure stepping would end at — the property that makes
   campaign documents byte-identical with superblocks on or off.
   [exec_one] fires the block tap's [on_step] for each instruction it
   steps. *)
let enter_block t b stop =
  if near_stop t stop (b.b_lead + (b.b_lead_calls * t.shadow_overhead)) then exec_one t
  else exec_block t b

(* One batched-loop iteration through the superblock engine: run the
   block at [t.pc], or step one instruction and count the entry. *)
let block_step t stop =
  if t.cycles >= t.timer_next_fire && get_flag t Flag.i then take_timer_interrupt t
  else if t.pc < 0 || t.pc * 2 >= t.program_bytes then set_halt t (Wild_pc (t.pc * 2))
  else begin
    let pc = t.pc in
    let b = Array.unsafe_get t.blocks pc in
    if b != dummy_block then enter_block t b stop
    else begin
      let hits = Char.code (Bytes.unsafe_get t.block_hits pc) + 1 in
      if hits < hot_entries then begin
        Bytes.unsafe_set t.block_hits pc (Char.unsafe_chr hits);
        exec_one t
      end
      else if near_stop t stop compile_window then exec_one t
      else begin
        let b = compile_block t pc in
        Array.unsafe_set t.blocks pc b;
        enter_block t b stop
      end
    end
  end

let sync_caches t =
  sync_icache t;
  sync_blocks t

(* ---- Batched execution ---------------------------------------------- *)

(* Budget clamp: the former [t.cycles + max_cycles] overflowed to a
   negative stop for budgets near [max_int] (an "unbounded" run), making
   the loop exit before a single instruction — saturate instead.  The
   overshoot contract for all batched entry points: at most one
   instruction plus one interrupt dispatch past the budget, identical
   under both engines (a superblock is only entered when every
   instruction boundary inside it comes before the budget; see
   [enter_block]). *)
let stop_cycle t max_cycles =
  if max_cycles >= max_int - t.cycles then max_int else t.cycles + max_cycles

(* The engine switch is re-read every iteration, not latched at entry,
   so [set_superblocks] from inside a tap callback takes effect at the
   next block boundary. *)
let run t ~max_cycles =
  sync_caches t;
  let stop = stop_cycle t max_cycles in
  let rec go () =
    match t.halt with
    | Some h -> `Halted h
    | None ->
        if t.cycles >= stop then `Budget_exhausted
        else begin
          if t.use_superblocks then block_step t stop else exec_one t;
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
  sync_icache t;
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

let disable_shadow_stack t =
  t.shadow <- None;
  t.shadow_overhead <- 0

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
  else Memory.data_get t.mem (io_addr t a)

let io_poke t a v =
  if a = Device.Io.sreg then begin
    if v land 0x80 <> 0 && t.sreg_v land 0x80 = 0 then t.i_up_cycle <- t.cycles;
    t.sreg_v <- v land 0xFF
  end
  else if a = Device.Io.spl then set_sp t (t.sp_v land 0xFF00 lor (v land 0xFF))
  else if a = Device.Io.sph then set_sp t ((v land 0xFF) lsl 8 lor (t.sp_v land 0xFF))
  else Memory.data_set t.mem (io_addr t a) v

let program_size t = t.program_bytes
let eeprom_peek t a = Memory.eeprom_get t.mem a
let eeprom_poke t a v = Memory.eeprom_set t.mem a v

let is_sp_or_sreg t a =
  let r = a - t.dev.Device.io_base in
  r = Device.Io.sreg || r = Device.Io.spl || r = Device.Io.sph

let data_peek t a =
  if is_sp_or_sreg t a then io_peek t (a - t.dev.Device.io_base) else Memory.data_get t.mem a

let data_poke t a v =
  if is_sp_or_sreg t a then io_poke t (a - t.dev.Device.io_base) v else Memory.data_set t.mem a v
let stack_slice t ~pos ~len = Memory.data_slice t.mem ~pos ~len
