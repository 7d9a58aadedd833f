(** Named metrics registry: counters, gauges, histograms.

    The observability substrate for the whole stack — CPU instruction
    mix, MAVLink link quality, master flash-session timing, ground
    station alarms all land here under dotted names
    ([avr.insn.call], [mavlink.crc_errors], ...).

    Two kinds of cells exist: {e owned} metrics ({!counter},
    {!histogram}) that instrumented code pushes into, and {e sampled}
    gauges ({!sampled}) that pull a live value from their owner at
    snapshot time — the latter cost the instrumented hot path nothing,
    which is how the MAVLink parser's existing counters are exported
    without touching its byte loop.  An owned gauge exists only as the
    result of a {!merge} (or of {!of_json}): a sampled gauge is
    materialized there.

    Registration is idempotent per (name, kind): re-registering a name
    returns the same cell; re-registering under a different kind raises
    [Invalid_argument]. *)

type registry

val create : unit -> registry

(** {2 Owned metrics} *)

type counter

val counter : registry -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type histogram

val histogram : registry -> string -> histogram

(** [observe h v] records one sample. *)
val observe : histogram -> int -> unit

(** {2 Sampled gauges} *)

(** [sampled t name f] registers a pull-style gauge: [f ()] is read at
    snapshot time.  Snapshots report it as a gauge; {!reset} leaves it
    alone (it reflects state owned elsewhere). *)
val sampled : registry -> string -> (unit -> int) -> unit

(** [sampled_counter t name f] is {!sampled} with counter semantics:
    snapshots report it as a counter, and {!merge} materializes it into
    the destination as an owned counter that {e adds} across sources.
    Use it for monotone totals owned by live rigs (fault-injection byte
    counts, retry tallies) that must sum — not max — when per-trial
    registries join at a campaign barrier. *)
val sampled_counter : registry -> string -> (unit -> int) -> unit

(** {2 Snapshot and export} *)

type histogram_stats = { count : int; sum : int; min : int; max : int; mean : float }

type value_snapshot =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of histogram_stats

(** [snapshot t] is every metric's current value, sorted by name. *)
val snapshot : registry -> (string * value_snapshot) list

(** [reset t] zeroes owned metrics (sampled gauges are untouched). *)
val reset : registry -> unit

(** [merge ~into src] folds every metric of [src] into [into] — the join
    step of a parallel campaign, where each worker owned a private
    registry.  Semantics, chosen so merging is commutative and
    associative (join order never matters):

    - counters {e add};
    - gauges combine by {e max} (every gauge in this stack is a
      watermark; a metric needing a different fold should be a
      histogram);
    - histograms combine pointwise (count/sum add, min/max widen);
    - a {e sampled} gauge in [src] is read once, at merge time, and lands
      in [into] as a plain (max-combined) gauge — its sampler belongs to
      a finished rig, so the value is final and [into] must own it
      outright.  A campaign trial merges its registry into a fresh one
      when it ends, so no sampler (and no rig) outlives the trial;
    - a {e sampled counter} likewise materializes once, into an owned
      counter, and therefore adds across sources.

    Names absent from [into] are registered as fresh owned cells (never
    aliased with [src]'s).
    @raise Invalid_argument on a kind mismatch, or when [into] holds a
    sampled gauge under a merged name (a pull gauge cannot absorb a
    value). *)
val merge : into:registry -> registry -> unit

val to_json : registry -> Json.t

(** Rebuilds an owned registry from a {!to_json} document — the
    checkpoint-resume path.  Every cell comes back as an owned
    counter/gauge/histogram (sampled cells were already materialized by
    the snapshot behind {!to_json}), so
    [to_json (of_json (to_json t))] round-trips byte-identically and
    the result merges like the original.  An empty histogram restores
    the empty sentinel, keeping later pointwise merges exact. *)
val of_json : Json.t -> (registry, string) result

(** One compact JSON object per line
    ([{"name":...,"seq":...,"cycle":...,"type":...,...}]).  [seq] is
    monotonic per registry across calls and never resets, so a stream
    consumer can detect dropped or reordered lines; [cycle] (default 0)
    stamps every line of this emission with the emulated-CPU cycle the
    snapshot was taken at. *)
val to_jsonl : ?cycle:int -> registry -> string

(** Human-readable aligned table of the snapshot. *)
val pp_summary : Format.formatter -> registry -> unit

(** {2 Test hooks}

    Used only by the tests: [of_jsonl] parses {!to_jsonl} back,
    [pp_value] prints a value in a failure message. *)

(** Parses {!to_jsonl} output back; the round-trip equals {!snapshot}. *)
val of_jsonl : string -> ((string * value_snapshot) list, string) result

val pp_value : Format.formatter -> value_snapshot -> unit
