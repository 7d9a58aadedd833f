(** Monte Carlo attack/defense campaign over closed-loop scenarios.

    The paper's effectiveness argument (§VII-A) is a grid: each of the
    three §IV ROP attacks, fired at each defense posture, across many
    randomized trials.  This module runs that grid on the campaign
    engine — one {!Scenario} flight per (defense × attack × trial) task,
    takeover/detection/time-to-detect statistics aggregated per cell —
    with output bit-identical for any job count.

    A fault-intensity axis rides on top: given a {!Mavr_fault.Profile},
    the whole grid runs once per intensity level, and each level also
    flies {e control} flights — same posture, same faults, no attack —
    so the campaign reports false-alarm rates (GCS alarms and spurious
    master recoveries on attack-free flights) next to the detection
    rates they calibrate.

    Defense postures:
    - [Undefended] — bare APM running the unprotected binary;
    - [Software_only] — §VIII-A: the binary is diversified once (a
      per-trial random layout) but no master watches;
    - [Mavr_defense] — the full master: randomize at boot, watchdog
      detection, re-randomize + reflash on failure.

    Each trial owns a private telemetry registry — no locks anywhere
    near the emulator.  When the trial ends its sampled cells are
    materialized ({!Mavr_telemetry.Metrics.merge} into a fresh
    registry), so a finished trial keeps only numbers: its rig (app CPU,
    flashes, compiled blocks, master) is garbage as soon as the trial
    returns, and a campaign's peak memory does not grow with its trial
    count beyond those numbers.  The owned registries are merged
    (commutatively) into {!type-t}'s [metrics] at the join. *)

type defense = Undefended | Software_only | Mavr_defense
type attack = V1 | V2 | V3

val defense_name : defense -> string
val attack_name : attack -> string

type cell = {
  defense : defense;
  attack : attack;
  trials : int;  (** trials actually run (< configured if stopped early) *)
  skipped : int;  (** trials not run because the cell stopped early *)
  takeovers : int;  (** trials where the gyro-calibration write landed *)
  detections : int;  (** trials where master or ground station flagged *)
  halts : int;  (** trials where the app CPU ended halted *)
  detect_n : int;  (** trials with a timestamped first detection *)
  detect_ms_sum : float;
  detect_ms_max : float;
}

(** Attack-free flights under the same faults: every flag raised here is
    a false alarm. *)
type control = {
  posture : defense;
  flights : int;  (** flights actually flown *)
  skipped : int;  (** flights not flown because the cell stopped early *)
  alarmed : int;  (** flights with at least one GCS alarm *)
  alarms_total : int;
  recoveries : int;  (** spurious master detections (each = a reflash) *)
  crashed : int;  (** flights whose app CPU ended halted *)
  first_alarm_n : int;
  first_alarm_ms_sum : float;
}

type level_result = {
  level : Mavr_fault.Profile.level;
  cells : cell array;  (** 9 cells, defense-major, fixed order *)
  controls : control array;  (** one per defense, same order *)
}

type t = {
  seed : int;
  trials : int;
  ms : int;  (** simulated flight length per trial *)
  profile : string;  (** fault profile name *)
  levels : level_result array;
      (** one per fault level, profile order; [levels.(0)] is the clean
          baseline (every profile's first level is "off") *)
  metrics : Mavr_telemetry.Metrics.registry;
      (** every trial's registry, merged *)
  early_stop : Mavr_campaign.Early_stop.t option;
      (** the policy the campaign ran under, if any *)
  trials_skipped : int;  (** total trials early stopping saved *)
}

(** [checkpoint_spec ... ~profile ~seed ~trials ()] — the
    {!Mavr_campaign.Checkpoint.spec} identifying one campaign
    configuration: the hash covers the firmware profile name, fault
    profile, flight length, trial budget, seed, early-stop policy and
    whether tracing is on ([traced], default false) — any difference
    makes a stale checkpoint unresumable rather than silently wrong.
    Also the single source of truth for the campaign's task count. *)
val checkpoint_spec :
  ?ms:int ->
  ?faults:Mavr_fault.Profile.t ->
  ?early_stop:Mavr_campaign.Early_stop.t ->
  ?traced:bool ->
  profile:string ->
  seed:int ->
  trials:int ->
  unit ->
  Mavr_campaign.Checkpoint.spec

(** [run ?pool ?jobs ?ms ?faults ~seed ~trials build] — per fault level,
    the [3 x 3 x trials] attack grid plus [3 x trials] control flights,
    each a scenario of [ms] simulated milliseconds (default 900; attacks
    are injected after a [ms/3] warm-up).  [faults] defaults to
    {!Mavr_fault.Profile.none} — a single clean level, the pre-fault
    campaign.  The attacker's analysis of the unprotected [build] runs
    once; trial randomness (fault seeds, layout seeds, master seeds) is
    split per task from [seed].

    Observability (defaults off; neither perturbs any trial's PRNG
    stream or result): with [?tracer], every trial gets two lanes
    sorted by task index — a host lane
    ["trial-NNNNN level/defense/attack"] holding a ["trial"] span over
    ["boot"]/["warmup"]/["flight"] phase spans plus ["inject"]/
    ["detected"] instants, and a [" sim"]-suffixed {e cycles} lane
    carrying the rig's cycle-stamped flight-recorder window (master
    flash-session phases, inject/alarm events), which is deterministic
    and survives timing-stripping.  With [?progress], the task total
    is registered up front, every trial completion ticks the stream,
    and each heartbeat line carries per-(defense × attack) running
    done/detected/takeover tallies plus control-flight counts.

    Resumable execution: with [?checkpoint] every completed trial is
    recorded as it lands (outcome, metrics registry, trace lanes when
    tracing) and the writer's recorded frontier is replayed into the
    result array before anything runs — pass a writer primed by
    {!Mavr_campaign.Checkpoint.resume} and only the uncompleted tasks
    execute, with the final document byte-identical to an
    uninterrupted run at any job count.
    @raise Mavr_campaign.Checkpoint.Corrupt if a primed entry's result
    payload does not decode (or lacks trace lanes while tracing is on).

    Adaptive stopping: with [?early_stop] each statistical cell (an
    attacked cell's detection rate, a control's false-alarm rate) runs
    in deterministic rounds and stops once its Wilson interval is
    narrow enough; trials not run are reported explicitly
    ([cell.skipped], [trials_skipped], checkpoint skip entries) and
    cells that never stop keep byte-identical output. *)
val run :
  ?pool:Mavr_campaign.Pool.t ->
  ?jobs:int ->
  ?ms:int ->
  ?faults:Mavr_fault.Profile.t ->
  ?tracer:Mavr_telemetry.Span.tracer ->
  ?progress:Mavr_campaign.Progress.t ->
  ?early_stop:Mavr_campaign.Early_stop.t ->
  ?checkpoint:Mavr_campaign.Checkpoint.t ->
  seed:int ->
  trials:int ->
  Mavr_firmware.Build.t ->
  t

(** [run_shard ~checkpoint ~lo ~hi ~seed ~trials build] — execute only
    the tasks with global indices in [\[lo, hi)], recording every
    completed trial (and every early-stop skip) in [checkpoint]; nothing
    else is returned.  The campaign's index space is a concatenation of
    [trials]-sized per-cell blocks in a fixed cell order, so [lo] and
    [hi] must be multiples of [trials] (cell-aligned) — then each cell's
    early-stop trajectory, and therefore every recorded entry, is
    byte-identical to what a single-host {!run} records for those
    indices.  A dispatcher reassembles the full campaign by priming a
    checkpoint with every shard's entries and calling {!run} over it
    (which executes zero trials).
    @raise Invalid_argument on bounds that are out of range or not
    cell-aligned. *)
val run_shard :
  ?pool:Mavr_campaign.Pool.t ->
  ?jobs:int ->
  ?ms:int ->
  ?faults:Mavr_fault.Profile.t ->
  ?tracer:Mavr_telemetry.Span.tracer ->
  ?progress:Mavr_campaign.Progress.t ->
  ?early_stop:Mavr_campaign.Early_stop.t ->
  checkpoint:Mavr_campaign.Checkpoint.t ->
  lo:int ->
  hi:int ->
  seed:int ->
  trials:int ->
  Mavr_firmware.Build.t ->
  unit

(** The clean baseline grid: [t.levels.(0).cells]. *)
val cells : t -> cell array

(** Marginals across one defense's row of cells — per level, and summed
    over every fault level (the CLI's exit-code criterion: zero MAVR
    takeovers at {e every} intensity). *)
val level_takeovers : level_result -> defense -> int

val level_detections : level_result -> defense -> int
val takeovers : t -> defense -> int

(** [alarmed / flights] on a control row. *)
val false_alarm_rate : control -> float

(** Deterministic JSON (levels and cells in fixed order, metrics sorted
    by name).  The top-level [grid] key carries the clean baseline cells
    for downstream tooling; the [levels] list holds every intensity's
    grid and control rows.  [with_metrics:false] drops the merged
    registry. *)
val to_json : ?with_metrics:bool -> t -> Mavr_telemetry.Json.t

val pp : Format.formatter -> t -> unit
