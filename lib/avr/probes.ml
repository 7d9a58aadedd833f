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

(* The index into [class_names]. *)
let class_of (i : Isa.t) =
  match i with
  | Isa.Add _ | Isa.Adc _ | Isa.Sub _ | Isa.Sbc _ | Isa.And _ | Isa.Or _ | Isa.Eor _
  | Isa.Cp _ | Isa.Cpc _ | Isa.Mul _ | Isa.Subi _ | Isa.Sbci _ | Isa.Andi _ | Isa.Ori _
  | Isa.Cpi _ | Isa.Com _ | Isa.Neg _ | Isa.Inc _ | Isa.Dec _ | Isa.Lsr _ | Isa.Ror _
  | Isa.Asr _ | Isa.Swap _ | Isa.Adiw _ | Isa.Sbiw _ ->
      0 (* alu *)
  | Isa.Movw _ | Isa.Ldi _ | Isa.Mov _ | Isa.Bld _ | Isa.Bst _ | Isa.Bset _ | Isa.Bclr _ ->
      1 (* transfer *)
  | Isa.Lds _ | Isa.Ldd _ | Isa.Ld _ | Isa.Pop _ | Isa.Lpm0 | Isa.Lpm _ | Isa.Elpm0
  | Isa.Elpm _ ->
      2 (* load *)
  | Isa.Sts _ | Isa.Std _ | Isa.St _ | Isa.Push _ -> 3 (* store *)
  | Isa.In _ | Isa.Out _ | Isa.Sbi _ | Isa.Cbi _ -> 4 (* io *)
  | Isa.Brbs _ | Isa.Brbc _ -> 5 (* branch *)
  | Isa.Call _ | Isa.Rcall _ | Isa.Icall -> 6 (* call *)
  | Isa.Ret | Isa.Reti -> 7 (* ret *)
  | Isa.Jmp _ | Isa.Rjmp _ | Isa.Ijmp -> 8 (* jump *)
  | Isa.Cpse _ | Isa.Sbic _ | Isa.Sbis _ | Isa.Sbrc _ | Isa.Sbrs _ -> 9 (* skip *)
  | Isa.Nop | Isa.Wdr | Isa.Sleep | Isa.Break -> 10 (* system *)
  | Isa.Data _ -> 11 (* illegal *)

(* Static mnemonic heads for flight-recorder events: no allocation on the
   enabled path (Isa.to_string would build operand strings per event). *)
let mnemonic (i : Isa.t) =
  match i with
  | Isa.Nop -> "nop" | Isa.Movw _ -> "movw" | Isa.Ldi _ -> "ldi" | Isa.Mov _ -> "mov"
  | Isa.Add _ -> "add" | Isa.Adc _ -> "adc" | Isa.Sub _ -> "sub" | Isa.Sbc _ -> "sbc"
  | Isa.And _ -> "and" | Isa.Or _ -> "or" | Isa.Eor _ -> "eor" | Isa.Cp _ -> "cp"
  | Isa.Cpc _ -> "cpc" | Isa.Cpse _ -> "cpse" | Isa.Mul _ -> "mul" | Isa.Subi _ -> "subi"
  | Isa.Sbci _ -> "sbci" | Isa.Andi _ -> "andi" | Isa.Ori _ -> "ori" | Isa.Cpi _ -> "cpi"
  | Isa.Com _ -> "com" | Isa.Neg _ -> "neg" | Isa.Inc _ -> "inc" | Isa.Dec _ -> "dec"
  | Isa.Lsr _ -> "lsr" | Isa.Ror _ -> "ror" | Isa.Asr _ -> "asr" | Isa.Swap _ -> "swap"
  | Isa.Push _ -> "push" | Isa.Pop _ -> "pop" | Isa.Ret -> "ret" | Isa.Reti -> "reti"
  | Isa.Icall -> "icall" | Isa.Ijmp -> "ijmp" | Isa.Call _ -> "call" | Isa.Jmp _ -> "jmp"
  | Isa.Rcall _ -> "rcall" | Isa.Rjmp _ -> "rjmp" | Isa.Brbs _ -> "brbs"
  | Isa.Brbc _ -> "brbc" | Isa.In _ -> "in" | Isa.Out _ -> "out" | Isa.Lds _ -> "lds"
  | Isa.Sts _ -> "sts" | Isa.Ldd _ -> "ldd" | Isa.Std _ -> "std" | Isa.Ld _ -> "ld"
  | Isa.St _ -> "st" | Isa.Adiw _ -> "adiw" | Isa.Sbiw _ -> "sbiw" | Isa.Lpm0 -> "lpm"
  | Isa.Lpm _ -> "lpm" | Isa.Sbi _ -> "sbi" | Isa.Cbi _ -> "cbi" | Isa.Sbic _ -> "sbic"
  | Isa.Sbis _ -> "sbis" | Isa.Bld _ -> "bld" | Isa.Bst _ -> "bst" | Isa.Sbrc _ -> "sbrc"
  | Isa.Sbrs _ -> "sbrs" | Isa.Elpm0 -> "elpm" | Isa.Elpm _ -> "elpm" | Isa.Bset _ -> "bset"
  | Isa.Bclr _ -> "bclr" | Isa.Wdr -> "wdr" | Isa.Sleep -> "sleep" | Isa.Break -> "break"
  | Isa.Data _ -> "(data)"

(* Registry key fragment for a halt reason ("wild_pc", ...). *)
let halt_key = function
  | Cpu.Illegal_instruction _ -> "illegal"
  | Cpu.Wild_pc _ -> "wild_pc"
  | Cpu.Break_hit -> "break"
  | Cpu.Sleep_mode -> "sleep"
  | Cpu.Rop_detected _ -> "rop_detected"

let halt_keys = [ "illegal"; "wild_pc"; "break"; "sleep"; "rop_detected" ]

(* ---- the probe bundle ----------------------------------------------- *)

type t = {
  cpu : Cpu.t;
  registry : Metrics.registry;
  recorder : Recorder.t;
  mutable last_dump : string option;
  mutable faults : int;
  (* Per-(block, executed-prefix-length) execution counts, flat array
     keyed [bi_key * stride + count]; [infos] memoizes each tallied
     block's identity.  Fields of [t] (not closure state) so the
     hotness profiler ({!block_stats}) can read them after a flight. *)
  mutable execs : int array;
  mutable infos : Cpu.block_info option array;
  stepped : int array;  (* per-class single-stepped instruction counts *)
  mutable stepped_total : int;
  mutable blocks_tallied : int;
}

let registry t = t.registry
let recorder t = t.recorder
let flight_record t = Recorder.events t.recorder
let last_fault_dump t = t.last_dump
let faults_seen t = t.faults

let min_sp t =
  let w = Cpu.sp_watermark t.cpu in
  if w = max_int then None else Some w

let render_dump p h =
  let cpu = p.cpu in
  Format.asprintf "flight recorder — CPU halted: %a@.  PC=0x%05x SP=0x%04x cycles=%d retired=%d@.%a"
    Cpu.pp_halt h (Cpu.pc_byte_addr cpu) (Cpu.sp cpu) (Cpu.cycles cpu)
    (Cpu.instructions_retired cpu) Recorder.pp_dump p.recorder

let attach ?(prefix = "avr") ?(recorder_capacity = 64) ~registry cpu =
  let name s = prefix ^ "." ^ s in
  let p =
    {
      cpu;
      registry;
      recorder = Recorder.create ~capacity:recorder_capacity;
      last_dump = None;
      faults = 0;
      execs = Array.make (256 * (Cpu.max_block_insns + 1)) 0;
      infos = Array.make 256 None;
      stepped = Array.make n_classes 0;
      stepped_total = 0;
      blocks_tallied = 0;
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
  (* Block-grained instruction mix, pull-based.  The block tap fires once
     per executed block on the engine's hot path, so it must do almost
     nothing: it records *which* (block, executed-prefix-length) pair ran
     — a single increment in a flat growable array keyed
     [bi_key * stride + count] — and the per-class counters are
     materialized on demand as [sampled_counter]s, which snapshot and
     merge exactly like plain counters.  Tracking per prefix length
     matters because side exits are the *common* case on trace-shaped
     blocks (a loop trace exits mid-block on its final iteration; ~2/3 of
     block executions retire a strict prefix), and both earlier designs —
     a per-instruction classification walk, then an eager per-prefix
     delta replay — put a dependent multi-line memory chain plus a run of
     counter adds on every block boundary.  [bi_key] is dense, unique per
     compiled block and never reused after a flash write, so execution
     counts attributed to dropped blocks stay valid history. *)
  let stride = Cpu.max_block_insns + 1 in
  (* Single-stepped instructions (interrupt windows, superblocks off)
     are classified eagerly — that path is already per-instruction. *)
  let stepped = p.stepped in
  (* The tables keyed by block grow by doubling, at least to [i + 1]. *)
  let grow a i fill =
    let n = Array.make (max (i + 1) (2 * Array.length a)) fill in
    Array.blit a 0 n 0 (Array.length a);
    n
  in
  let ensure_exec idx =
    if idx >= Array.length p.execs then p.execs <- grow p.execs idx 0;
    p.execs
  in
  let ensure_info key =
    if key >= Array.length p.infos then p.infos <- grow p.infos key None;
    p.infos
  in
  (* Aggregation, amortized across the 13 mix cells: one cumulative
     prefix walk over every block ever executed, cached until more
     blocks run.  agg.(n_classes) is the grand total. *)
  let agg = Array.make (n_classes + 1) 0 in
  let agg_gen = ref (-1) in
  let aggregate () =
    if !agg_gen <> p.blocks_tallied then begin
      agg_gen := p.blocks_tallied;
      Array.fill agg 0 (n_classes + 1) 0;
      let e = p.execs in
      let counts = Array.make n_classes 0 in
      Array.iteri
        (fun key info ->
          match info with
          | None -> ()
          | Some (info : Cpu.block_info) ->
              let insns = info.Cpu.bi_insns in
              let base = key * stride in
              Array.fill counts 0 n_classes 0;
              for pfx = 1 to Array.length insns do
                let c = class_of insns.(pfx - 1) in
                counts.(c) <- counts.(c) + 1;
                let n = if base + pfx < Array.length e then e.(base + pfx) else 0 in
                if n > 0 then begin
                  for c = 0 to n_classes - 1 do
                    agg.(c) <- agg.(c) + (n * counts.(c))
                  done;
                  agg.(n_classes) <- agg.(n_classes) + (n * pfx)
                end
              done)
        p.infos
    end
  in
  Metrics.sampled_counter registry (name "insn.total") (fun () ->
      aggregate ();
      p.stepped_total + agg.(n_classes));
  Array.iteri
    (fun c cname ->
      Metrics.sampled_counter registry (name ("insn." ^ cname)) (fun () ->
          aggregate ();
          stepped.(c) + agg.(c)))
    class_names;
  (* The per-block flight-recorder event names the block's leading
     mnemonic; memoized per block so the hot path never re-matches. *)
  let no_head = String.make 0 'x' in
  let heads = ref (Array.make 256 no_head) in
  let head (info : Cpu.block_info) =
    let key = info.Cpu.bi_key in
    if key >= Array.length !heads then heads := grow !heads key no_head;
    let h = !heads in
    let s = Array.unsafe_get h key in
    if s != no_head then s
    else begin
      let s = mnemonic info.Cpu.bi_insns.(0) in
      h.(key) <- s;
      s
    end
  in
  let on_block (info : Cpu.block_info) count =
    let key = info.Cpu.bi_key in
    let idx = (key * stride) + count in
    let e = ensure_exec idx in
    let v = Array.unsafe_get e idx in
    if v = 0 then (ensure_info key).(key) <- Some info;
    Array.unsafe_set e idx (v + 1);
    p.blocks_tallied <- p.blocks_tallied + 1;
    Recorder.point p.recorder ~cycle:(Cpu.cycles cpu) ~value:(info.Cpu.bi_pc * 2) (head info)
  in
  let on_step pc insn =
    p.stepped_total <- p.stepped_total + 1;
    let c = class_of insn in
    stepped.(c) <- stepped.(c) + 1;
    Recorder.point p.recorder ~cycle:(Cpu.cycles cpu) ~value:(pc * 2) (mnemonic insn)
  in
  Cpu.set_block_tap cpu ~on_block ~on_step;
  Cpu.set_irq_tap cpu
    (Some
       (fun ~latency ~masked ->
         Metrics.incr irq_count;
         Metrics.observe irq_latency latency;
         Metrics.observe irq_masked masked;
         Recorder.record p.recorder ~cycle:(Cpu.cycles cpu) ~value:latency "irq.timer"));
  Cpu.set_halt_tap cpu
    (Some
       (fun h ->
         p.faults <- p.faults + 1;
         (match List.assoc_opt (halt_key h) halt_counters with
         | Some c -> Metrics.incr c
         | None -> ());
         Recorder.record p.recorder ~cycle:(Cpu.cycles cpu) ~value:(Cpu.pc_byte_addr cpu)
           ("halt." ^ halt_key h);
         (* The automatic dump: capture the window at the instant of
            death, before any recovery path reflashes and keeps going. *)
         p.last_dump <- Some (render_dump p h)));
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
  let stride = Cpu.max_block_insns + 1 in
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun key info ->
      match info with
      | None -> ()
      | Some (info : Cpu.block_info) ->
          let base = key * stride in
          let execs = ref 0 and retired = ref 0 in
          for pfx = 1 to Array.length info.Cpu.bi_insns do
            let n = if base + pfx < Array.length t.execs then t.execs.(base + pfx) else 0 in
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
    t.infos;
  Hashtbl.fold
    (fun addr (len, e, r) acc ->
      { bs_addr = addr; bs_insns = len; bs_execs = e; bs_retired = r } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.bs_addr b.bs_addr)

let stepped_insns t = t.stepped_total

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
