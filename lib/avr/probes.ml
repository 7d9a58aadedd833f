module Metrics = Mavr_telemetry.Metrics
module Recorder = Mavr_telemetry.Recorder

(* ---- instruction classification ------------------------------------- *)

(* Coarse mix classes: a bounded set of counters rather than one per
   mnemonic, which is what the overhead accounting needs (how much of the
   stream is ALU vs memory vs control) without 70 registry entries. *)
let class_names =
  [| "alu"; "transfer"; "load"; "store"; "io"; "branch"; "call"; "ret"; "jump"; "skip";
     "system"; "illegal" |]

let n_classes = Array.length class_names

(* The index into [class_names] of each {!Isa.mnemonics} entry. *)
let mnemonic_class =
  Array.map
    (function
      | "add" | "adc" | "sub" | "sbc" | "and" | "or" | "eor" | "cp" | "cpc" | "mul" | "subi"
      | "sbci" | "andi" | "ori" | "cpi" | "com" | "neg" | "inc" | "dec" | "lsr" | "ror" | "asr"
      | "swap" | "adiw" | "sbiw" ->
          0 (* alu *)
      | "movw" | "ldi" | "mov" | "bld" | "bst" | "bset" | "bclr" -> 1 (* transfer *)
      | "lds" | "ldd" | "ld" | "pop" | "lpm" | "elpm" -> 2 (* load *)
      | "sts" | "std" | "st" | "push" -> 3 (* store *)
      | "in" | "out" | "sbi" | "cbi" -> 4 (* io *)
      | "brbs" | "brbc" -> 5 (* branch *)
      | "call" | "rcall" | "icall" -> 6 (* call *)
      | "ret" | "reti" -> 7 (* ret *)
      | "jmp" | "rjmp" | "ijmp" -> 8 (* jump *)
      | "cpse" | "sbic" | "sbis" | "sbrc" | "sbrs" -> 9 (* skip *)
      | "nop" | "wdr" | "sleep" | "break" -> 10 (* system *)
      | "(data)" -> 11 (* illegal *)
      | m -> invalid_arg ("Probes: unclassified mnemonic " ^ m))
    Isa.mnemonics

let class_of (i : Isa.t) = mnemonic_class.(Isa.mnemonic_index i)

(* Registry key fragment for a halt reason ("wild_pc", ...). *)
let halt_key = function
  | Cpu.Illegal_instruction _ -> "illegal"
  | Cpu.Wild_pc _ -> "wild_pc"
  | Cpu.Break_hit -> "break"
  | Cpu.Sleep_mode -> "sleep"
  | Cpu.Rop_detected _ -> "rop_detected"

let halt_keys = [ "illegal"; "wild_pc"; "break"; "sleep"; "rop_detected" ]

(* ---- the probe bundle ----------------------------------------------- *)

(* What a halt leaves for its dump, rendered only when asked for: the
   flight-recorder window and the CPU state at the instant of death,
   before any recovery path reflashes and keeps going. *)
type halt_snapshot = {
  h_halt : Cpu.halt;
  h_pc : int; (* byte address *)
  h_sp : int;
  h_cycles : int;
  h_retired : int;
  h_window : Recorder.t;
}

type t = {
  cpu : Cpu.t;
  recorder : Recorder.t;
  mutable last_halt : halt_snapshot option;
  mutable faults : int;
}

let recorder t = t.recorder
let flight_record t = Recorder.events t.recorder
let faults_seen t = t.faults

let last_fault_dump t =
  Option.map
    (fun h ->
      Format.asprintf
        "flight recorder — CPU halted: %a@.  PC=0x%05x SP=0x%04x cycles=%d retired=%d@.%a"
        Cpu.pp_halt h.h_halt h.h_pc h.h_sp h.h_cycles h.h_retired Recorder.pp_dump h.h_window)
    t.last_halt

let min_sp t =
  let w = Cpu.sp_watermark t.cpu in
  if w = max_int then None else Some w

let attach ?(prefix = "avr") ?(recorder_capacity = 64) ~registry cpu =
  let name s = prefix ^ "." ^ s in
  let p =
    {
      cpu;
      recorder = Recorder.create ~capacity:recorder_capacity;
      last_halt = None;
      faults = 0;
    }
  in
  let irq_count = Metrics.counter registry (name "irq.taken") in
  let irq_latency = Metrics.histogram registry (name "irq.latency_cycles") in
  let irq_masked = Metrics.histogram registry (name "irq.masked_cycles") in
  let halt_counters =
    List.map (fun k -> (k, Metrics.counter registry (name ("halt." ^ k)))) halt_keys
  in
  Metrics.sampled registry (name "cycles") (fun () -> Cpu.cycles cpu);
  Metrics.sampled registry (name "insn.retired") (fun () -> Cpu.instructions_retired cpu);
  (* SP high-water comes from the engine's own watermark (updated on
     every SP write path), not from sampling SP at tap time: it is exact
     under both block-grained and single-step execution, which the
     superblocks-on/off campaign byte-diff depends on. *)
  Metrics.sampled registry (name "stack.min_sp") (fun () ->
      let w = Cpu.sp_watermark cpu in
      if w = max_int then 0 else w);
  Metrics.sampled registry (name "stack.high_water_bytes") (fun () ->
      let w = Cpu.sp_watermark cpu in
      if w = max_int then 0 else Device.data_end (Cpu.device cpu) - 1 - w);
  (* The engine keeps the accounting (Cpu.start_accounting): per-block
     execution counts by retired-prefix length, stepped instructions by
     mnemonic, and a ring of recent events.  Tracking blocks per prefix
     length matters because side exits are the common case on
     trace-shaped blocks (a loop trace exits mid-block on its final
     iteration).  The mix counters are materialized on demand as
     [sampled_counter]s, which snapshot and merge exactly like plain
     counters. *)
  Cpu.start_accounting cpu ~window:recorder_capacity;
  (* Aggregation, amortized across the 13 mix cells: one cumulative
     prefix walk over every block ever compiled, cached until the engine
     accounts another event.  agg.(n_classes) is the grand total. *)
  let agg = Array.make (n_classes + 1) 0 in
  let agg_gen = ref (-1) in
  let aggregate () =
    if !agg_gen <> Cpu.events_noted cpu then begin
      agg_gen := Cpu.events_noted cpu;
      Array.fill agg 0 (n_classes + 1) 0;
      Array.iteri
        (fun m n ->
          let c = mnemonic_class.(m) in
          agg.(c) <- agg.(c) + n;
          agg.(n_classes) <- agg.(n_classes) + n)
        (Cpu.stepped_counts cpu);
      let counts = Array.make n_classes 0 in
      Array.iter
        (fun (info : Cpu.block_info) ->
          let insns = info.Cpu.bi_insns and execs = info.Cpu.bi_execs in
          Array.fill counts 0 n_classes 0;
          for pfx = 1 to Array.length insns do
            let c = class_of insns.(pfx - 1) in
            counts.(c) <- counts.(c) + 1;
            let n = execs.(pfx) in
            if n > 0 then begin
              for c = 0 to n_classes - 1 do
                agg.(c) <- agg.(c) + (n * counts.(c))
              done;
              agg.(n_classes) <- agg.(n_classes) + (n * pfx)
            end
          done)
        (Cpu.blocks_compiled cpu)
    end
  in
  Metrics.sampled_counter registry (name "insn.total") (fun () ->
      aggregate ();
      agg.(n_classes));
  Array.iteri
    (fun c cname ->
      Metrics.sampled_counter registry (name ("insn." ^ cname)) (fun () ->
          aggregate ();
          agg.(c)))
    class_names;
  (* The flight recorder's sync hook: before anyone reads or writes the
     ring, hand over the engine's events since the last sync.  Only the
     newest [capacity] can survive in the window; the rest are counted
     as overwritten. *)
  let r = p.recorder in
  Recorder.set_sync r (fun () ->
      Recorder.drop r
        (Cpu.take_events cpu ~last:(Recorder.capacity r) (fun ~cycle -> function
           | Cpu.Block info ->
               Recorder.record r ~cycle ~value:(info.Cpu.bi_pc * 2)
                 Isa.mnemonics.(Isa.mnemonic_index info.Cpu.bi_insns.(0))
           | Cpu.Step { pc; mnemonic } ->
               Recorder.record r ~cycle ~value:(pc * 2) Isa.mnemonics.(mnemonic)
           | Cpu.Irq { latency } -> Recorder.record r ~cycle ~value:latency "irq.timer")));
  Cpu.set_irq_tap cpu
    (Some
       (fun ~latency ~masked ->
         Metrics.incr irq_count;
         Metrics.observe irq_latency latency;
         Metrics.observe irq_masked masked));
  Cpu.set_halt_tap cpu
    (Some
       (fun h ->
         p.faults <- p.faults + 1;
         (match List.assoc_opt (halt_key h) halt_counters with
         | Some c -> Metrics.incr c
         | None -> ());
         Recorder.record r ~cycle:(Cpu.cycles cpu) ~value:(Cpu.pc_byte_addr cpu)
           ("halt." ^ halt_key h);
         p.last_halt <-
           Some
             {
               h_halt = h;
               h_pc = Cpu.pc_byte_addr cpu;
               h_sp = Cpu.sp cpu;
               h_cycles = Cpu.cycles cpu;
               h_retired = Cpu.instructions_retired cpu;
               h_window = Recorder.copy r;
             }));
  p

(* ---- hotness export -------------------------------------------------- *)

type block_stat = {
  bs_addr : int;
  bs_insns : int;
  bs_execs : int;
  bs_retired : int;
}

(* Aggregated by entry byte address rather than [bi_key]: keys are
   unique per compiled block, so a reflash recompiling the same
   code would otherwise split one hot location across rows. *)
let block_stats t =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (info : Cpu.block_info) ->
      let execs = ref 0 and retired = ref 0 in
      for pfx = 1 to Array.length info.Cpu.bi_insns do
        let n = info.Cpu.bi_execs.(pfx) in
        execs := !execs + n;
        retired := !retired + (n * pfx)
      done;
      if !execs > 0 then begin
        let addr = info.Cpu.bi_pc * 2 in
        let len = Array.length info.Cpu.bi_insns in
        match Hashtbl.find_opt tbl addr with
        | None -> Hashtbl.add tbl addr (len, !execs, !retired)
        | Some (l, e, r) -> Hashtbl.replace tbl addr (max l len, e + !execs, r + !retired)
      end)
    (Cpu.blocks_compiled t.cpu);
  Hashtbl.fold
    (fun addr (len, e, r) acc ->
      { bs_addr = addr; bs_insns = len; bs_execs = e; bs_retired = r } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.bs_addr b.bs_addr)

let stepped_insns t = Array.fold_left ( + ) 0 (Cpu.stepped_counts t.cpu)

let dump_to_json t =
  let module J = Mavr_telemetry.Json in
  J.Obj
    [
      ("faults", J.Int t.faults);
      ( "halt",
        match Cpu.halted t.cpu with
        | None -> J.Null
        | Some h -> J.String (Format.asprintf "%a" Cpu.pp_halt h) );
      ("pc", J.Int (Cpu.pc_byte_addr t.cpu));
      ("sp", J.Int (Cpu.sp t.cpu));
      ("cycles", J.Int (Cpu.cycles t.cpu));
      ("flight_record", Recorder.to_json t.recorder);
    ]
