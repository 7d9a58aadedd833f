(** The MAVR master processor (§V-A2, §VI-A).

    An ATmega1284P added to the APM board that (1) holds the preprocessed
    application HEX on the external flash chip — the only entry point for
    new code, (2) randomizes and programs the application processor at
    boot or on a configured schedule, and (3) then acts as a watchdog
    listener: when the application stops feeding it (the signature of a
    failed ROP attempt executing garbage), it resets, re-randomizes and
    reprograms the application processor, so the UAV recovers in flight
    and every attack faces a fresh layout. *)

(** The master programs the application processor over the prototype's
    115200-baud UART ({!Serial.prototype}). *)
type config = {
  randomize_every_boots : int;
      (** randomize on boots 1, 1+k, 1+2k, … ; 1 = every boot.  Larger
          values trade entropy refresh for flash endurance (§V-C). *)
  watchdog_window_cycles : int;
      (** application cycles without a feed before an attack is flagged *)
  seed : int;  (** the master's entropy source *)
}

val default_config : config

type event =
  | Booted of { boot : int; randomized : bool; overhead_ms : float }
  | Attack_detected of { at_cycles : int; reason : string }
  | Reflashed of { generation : int; overhead_ms : float }

val pp_event : Format.formatter -> event -> unit

type t

val create : ?config:config -> unit -> t

(** What provisioning puts on the external flash: the preprocessed HEX
    (symbol table prepended, §VI-B2), with the image the master decodes
    from it and that image's relocation plan ({!Stream_patch.plan}).
    Immutable, so one value made per campaign serves every master, on
    any domain. *)
type stored

(** [store image] encodes [image] to the preprocessed HEX, decodes it
    back and plans its relocation.
    @raise Invalid_argument when the master cannot decode the HEX (e.g.
    function-pointer locations past the code).
    @raise Stream_patch.Unpatchable when the decoded image cannot be
    relocated in any layout. *)
val store : Mavr_obj.Image.t -> stored

(** [provision_stored t s] is the host-side flashing step: the HEX of [s]
    is written verbatim to the external flash chip, and every later
    {!boot} and re-randomization lays out [s]'s decoded image from its
    plan, without decoding anything again. *)
val provision_stored : t -> stored -> unit

(** [provision t image] is [provision_stored t (store image)]; when
    {!store} raises, the external flash keeps its previous contents. *)
val provision : t -> Mavr_obj.Image.t -> unit

(** Raw HEX text currently on the external flash. *)
val stored_hex : t -> string

(** [boot t ~app] programs the application processor and starts it.  The
    binary is randomized, from the stored image's plan, when the boot
    counter hits the schedule.
    @raise Invalid_argument when not provisioned. *)
val boot : t -> app:Mavr_avr.Cpu.t -> unit

(** Number of reprogramming operations performed (flash wear; the part is
    rated for 10,000, §VI-A). *)
val reflashes : t -> int

(** Flash pages programmed in total and the streaming randomizer's peak
    working set (bytes) — the §VI-B3 memory discipline, which must stay
    under the ATmega1284P's 16 KB SRAM. *)
val pages_programmed : t -> int

val peak_working_set : t -> int

val last_overhead_ms : t -> float
val events : t -> event list
val attacks_detected : t -> int

(** {2 Reflash-stream faults}

    With a fault model armed ({!set_reflash_faults}), every programming
    session becomes stream → CRC-16 verify against the stored image →
    bounded re-streams on mismatch → page-by-page acknowledged fallback
    when the retry budget is exhausted.  The application always ends up
    running a verified image; the faults cost transfer time, never
    correctness. *)

val set_reflash_faults : t -> Mavr_fault.Reflash.t option -> unit

(** [check_and_recover t ~app] performs one watchdog evaluation: when the
    application has halted or has been silent past the configured window,
    the master re-randomizes and reprograms it.  Returns [true] when a
    failed attack was detected and handled. *)
val check_and_recover : t -> app:Mavr_avr.Cpu.t -> bool

(** [supervise t ~app ~cycles] runs the application for [cycles] cycles
    under watchdog supervision.  Every halt or feed-silence is handled by
    re-randomizing and restarting the application processor.  Returns the
    number of failed attacks detected during this window. *)
val supervise : t -> app:Mavr_avr.Cpu.t -> cycles:int -> int

(** [attach_telemetry t ~registry ~recorder] exports the master's
    counters as sampled gauges ([master.boots], [.reflashes],
    [.attacks_detected], [.pages_programmed], [.peak_working_set]) and
    instruments every flash session with the Table II phase
    decomposition: spans on [recorder] ([master.flash_session]
    begin/end framing [master.phase.patch] /
    [.serial] / [.page_writes] point events, values in modeled µs) and
    microsecond histograms ([master.flash.patch_us], [.serial_us],
    [.page_write_us], [.total_us]).  Reflash-fault bookkeeping rides
    along: an extra-transfers-per-session histogram
    ([master.flash.retries]) and a fallback tally
    ([master.flash.fallback_streams], a sampled counter). *)
val attach_telemetry :
  t ->
  registry:Mavr_telemetry.Metrics.registry ->
  recorder:Mavr_telemetry.Recorder.t ->
  unit

(** {2 Test hooks}

    Used only by the tests, to observe the master's knowledge and its
    flash-session history. *)

(** The image currently running on the application processor.  Note this
    is the master's knowledge; the attacker can never read it (readout
    protection fuse, §V-A3). *)
val current_image : t -> Mavr_obj.Image.t

val boots : t -> int

(** Extra transfers forced by the most recent programming session
    (verify retries, +1 when it fell back); 0 on a clean stream. *)
val last_flash_retries : t -> int

(** Sessions that exhausted the retry budget and fell back. *)
val fallback_streams : t -> int
