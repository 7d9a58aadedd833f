(** Single-event-upset model: transient bit flips in the application
    processor's SRAM and flash between simulation ticks.

    {e Glitch in the Sky} demonstrates transient faults as a first-class
    UAV threat; this module reproduces that fault class on the emulated
    ATmega2560 so MAVR's detection pipeline can be measured against
    non-adversarial silicon faults.  SRAM flips go through
    [Cpu.data_poke] (register file and I/O space excluded — upsets hit
    the big arrays, not latched I/O); flash flips rewrite the affected
    page through [Cpu.flash_write_page], which drops the predecode cache
    and compiled superblocks exactly as a real reflash would. *)

type params = {
  sram_flip_ppm : int;  (** per tick: chance of one SRAM bit flip *)
  flash_flip_ppm : int;  (** per tick: chance of one flash bit flip *)
}

val off : params
val is_off : params -> bool

type stats = { sram_flips : int; flash_flips : int }
type t

val create : rng:Mavr_prng.Splitmix.t -> params -> t
val stats : t -> stats

(** [tick t cpu] possibly injects one SRAM and/or one flash upset.
    Flash flips are confined to the programmed image extent
    ([Cpu.program_size]); no-op on an empty image. *)
val tick : t -> Mavr_avr.Cpu.t -> unit

val attach_metrics : prefix:string -> t -> Mavr_telemetry.Metrics.registry -> unit
