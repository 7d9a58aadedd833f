(** Lossy serial-link model for the GCS downlink and the attacker uplink.

    The paper's stealthiness (§IV) and detection (§V–§VII) arguments are
    evaluated in this repository over a perfect channel by default; this
    module supplies the imperfect one — per-byte bit flips, byte drops
    and duplications, burst errors, and delivery jitter — so false-alarm
    and missed-detection rates can be measured under realistic radio
    noise (cf. {e UAV Resilience Against Stealthy Attacks}).

    Every random choice is drawn from a private {!Mavr_prng.Splitmix}
    generator handed in at {!create}, so a channel's behaviour is a pure
    function of (seed, traffic) — campaigns that split one seed per trial
    stay bit-identical for any job count. *)

(** Error rates are integer parts-per-million, applied per byte (flip,
    drop, dup) or per chunk (burst, jitter), keeping the arithmetic
    exact and host-independent. *)
type params = {
  bit_flip_ppm : int;  (** per byte: flip one random bit *)
  drop_ppm : int;  (** per byte: byte lost on the wire *)
  dup_ppm : int;  (** per byte: byte delivered twice *)
  burst_ppm : int;  (** per chunk: a run of bytes replaced by noise *)
  burst_len_max : int;  (** maximum burst run length (bytes) *)
  jitter_max_ticks : int;  (** per chunk: delivery delayed 0..n ticks *)
}

(** All rates zero: the channel is a wire. *)
val clean : params

val is_clean : params -> bool

type stats = {
  chunks : int;  (** nonempty chunks offered to the channel *)
  bytes_in : int;
  bytes_out : int;
  bits_flipped : int;
  bytes_dropped : int;
  bytes_duplicated : int;
  bursts : int;
  chunks_delayed : int;  (** chunks assigned a nonzero jitter *)
}

type t

val create : rng:Mavr_prng.Splitmix.t -> params -> t
val params : t -> params
val stats : t -> stats

(** [push t ~now bytes] corrupts [bytes] and enqueues them for delivery
    at [now + jitter].  Due times are clamped monotonically so delivery
    order always equals send order. *)
val push : t -> now:int -> string -> unit

(** [due t ~now] drains and concatenates every chunk due at or before
    [now]. *)
val due : t -> now:int -> string

(** [transmit t ~now bytes] is [push] then [due] — the per-tick call
    sites use this.  With {!clean} params it is the identity. *)
val transmit : t -> now:int -> string -> string

(** [attach_metrics ~prefix t registry] exports the stats as sampled
    counters (additive under campaign merge). *)
val attach_metrics : prefix:string -> t -> Mavr_telemetry.Metrics.registry -> unit

(** {2 Test hooks}

    Used only by the tests, to drive the corruption model on a byte string
    and to see what is still in flight. *)

(** [corrupt t bytes] applies the byte-level error processes (burst,
    drop, flip, dup) and returns the bytes as received.  No jitter: the
    result is delivered now.  [""] passes through untouched without
    consuming randomness. *)
val corrupt : t -> string -> string

(** Bytes enqueued but not yet due (in-flight under jitter). *)
val in_flight : t -> int
