(** One trial's worth of fault machinery, built from a single seed.

    The injector owns a private Splitmix tree: the trial seed splits
    into independent streams for the downlink channel, the uplink
    channel, the SEU process and the reflash stream, so enabling one
    fault class never perturbs another's draws — and a campaign that
    hands each trial a split seed stays bit-identical for any job
    count. *)

type t

val create : seed:int -> Profile.level -> t

(** [None] when the corresponding params are clean/off — call sites can
    skip the fault path entirely on the baseline level. *)
val downlink : t -> Channel.t option

val uplink : t -> Channel.t option
val reflash : t -> Reflash.t option

(** [seu_tick t cpu] runs the SEU process for one tick (no-op when the
    level's SEU params are off). *)
val seu_tick : t -> Mavr_avr.Cpu.t -> unit

val seu_stats : t -> Seu.stats

(** Exports every enabled fault source's counters under
    [fault.downlink.*], [fault.uplink.*], [fault.seu.*],
    [fault.reflash.*] — all sampled counters, so per-trial registries
    sum at the campaign join. *)
val attach_metrics : t -> Mavr_telemetry.Metrics.registry -> unit
