(** Standard CPU telemetry bundle.

    Turns on the engine's own accounting ({!Cpu.start_accounting}) and
    registers the full instrumentation set over it, so it composes with
    the batched run loops, the superblocks and the predecode cache:

    - instruction-mix counters ([<prefix>.insn.total], [.insn.alu],
      [.insn.call], ... — see {!class_names});
    - interrupt count, dispatch-latency and software-masked-time
      histograms ([.irq.taken], [.irq.latency_cycles],
      [.irq.masked_cycles]);
    - stack high-water mark ([.stack.min_sp], [.stack.high_water_bytes]),
      read from the engine's exact SP watermark;
    - halt-reason counters ([.halt.wild_pc], [.halt.illegal], ...);
    - sampled [.cycles] / [.insn.retired] gauges;
    - a cycle-stamped {e flight recorder}: a bounded ring of recent
      execution events (plus interrupt and halt events), captured
      automatically the instant the CPU halts or faults — the
      post-mortem artifact for a failed ROP probe (§V-D).

    Under the superblock engine the mix counters come from the engine's
    per-block, per-retired-prefix execution counts and each block's
    instructions, and the flight recorder logs one event per block
    (leading mnemonic, entry byte address); whenever the engine
    single-steps — interrupt windows, superblocks disabled — it counts
    and logs per instruction, so every counter total is identical in
    both modes.  The engine buffers the events and the recorder takes
    them over before any read or other write, so the window is the
    same as if each had been recorded as it happened.

    The overhead contract: with no probes attached the CPU hot path pays
    one flag test per block and per stepped instruction; attaching adds
    two increments and two stores there, with no call and no closure.  The
    mix counters are folded and the recorder's events named only when
    read; the interrupt and halt hooks are closures, off the block and
    step paths. *)

type t

(** [attach ?prefix ?recorder_capacity ~registry cpu] registers the
    metric set under [<prefix>.] (default ["avr"]), starts the engine's
    accounting from zero (blocks that ran before the attach do not
    count) and installs the interrupt and halt taps.
    [recorder_capacity] bounds the flight-recorder ring (default 64
    events).  Replaces any interrupt and halt taps already installed on
    [cpu]; a bundle attached earlier to the same CPU shares its engine
    counts and must not be read after this. *)
val attach : ?prefix:string -> ?recorder_capacity:int -> registry:Mavr_telemetry.Metrics.registry -> Cpu.t -> t

val recorder : t -> Mavr_telemetry.Recorder.t

(** The retained flight-recorder window, oldest first. *)
val flight_record : t -> Mavr_telemetry.Recorder.event list

(** The dump of the most recent halt/fault: halt reason, CPU state, and
    the last N cycle-stamped events, all as they were at the halt
    (rendered on demand from a snapshot taken then).  [None] until the
    first fault. *)
val last_fault_dump : t -> string option

(** Lowest stack pointer observed (deepest stack; the engine's exact
    watermark), [None] before any SP write. *)
val min_sp : t -> int option

(** Machine-readable fault dump: halt reason, CPU state and the flight
    record as JSON. *)
val dump_to_json : t -> Mavr_telemetry.Json.t

(** {2 Hotness export}

    The raw material for {!Mavr_analysis.Hotspot}: per-block execution
    totals folded out of the engine's per-(block, retired-prefix)
    counts. *)

type block_stat = {
  bs_addr : int;  (** block entry, {e byte} address *)
  bs_insns : int;  (** compiled block length (longest, if recompiled) *)
  bs_execs : int;  (** block executions (any prefix length) *)
  bs_retired : int;  (** instructions retired inside the block *)
}

(** Every block executed since attach, aggregated by entry address
    (reflashes recompile; counts accumulate), sorted by address.
    Blocks never executed are absent. *)
val block_stats : t -> block_stat list

(** Instructions retired single-stepped (interrupt windows, superblocks
    disabled) — execution the block rows don't cover. *)
val stepped_insns : t -> int

(** {2 Test hooks}

    Used only by the tests, to check the instruction-mix counters and the
    fault count against a known run. *)

(** Coarse instruction-mix classes, in counter-index order. *)
val class_names : string array

(** Halts observed since attach (recoveries may reset the CPU and keep
    running; the count survives). *)
val faults_seen : t -> int
