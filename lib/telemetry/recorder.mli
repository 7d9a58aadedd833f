(** Cycle-stamped flight recorder.

    A bounded ring buffer of probe events — the "black box" that answers
    "why did this run die".  Producers record points (one-shot events)
    and spans (begin/end pairs, e.g. the master's flash-session phases);
    once the ring is full each new event overwrites the oldest in O(1).
    On a CPU halt or fault the retained window — the last N events before
    death — is the dump (see {!Mavr_avr.Probes}).

    A producer that keeps its own buffer (the CPU's probe accounting)
    hands its events over through a {e sync hook}, which runs before
    every other write and every read, so the window is the same as if
    each event had been recorded as it happened. *)

type kind = Point | Span_begin | Span_end

type event = {
  cycle : int;  (** emulated-CPU cycle stamp (or modeled-time stamp) *)
  kind : kind;
  name : string;
  value : int;  (** event-specific payload, e.g. a byte address or µs *)
}

type t

(** [create ~capacity] — ring retaining the most recent [capacity]
    events.  Raises [Invalid_argument] on a non-positive capacity. *)
val create : capacity:int -> t

val capacity : t -> int

(** Events currently retained (≤ capacity). *)
val length : t -> int

(** [record t ~cycle ?value name] records a point event ([value]
    defaults to 0). *)
val record : t -> cycle:int -> ?value:int -> string -> unit
val span_begin : t -> cycle:int -> ?value:int -> string -> unit
val span_end : t -> cycle:int -> ?value:int -> string -> unit
val clear : t -> unit

(** Retained events, oldest first. *)
val events : t -> event list

val pp_event : Format.formatter -> event -> unit

(** Full dump: a header noting overwritten events, then one line per
    retained event. *)
val pp_dump : Format.formatter -> t -> unit

val to_json : t -> Json.t

(** {2 Buffered producers} *)

(** [set_sync t f] installs the sync hook: [f ()] runs before every
    other write to [t] and every read of it.  While it runs the hook is
    off, so [f] records its pending events with {!record}. *)
val set_sync : t -> (unit -> unit) -> unit

(** [drop t n] counts [n] events as recorded and already overwritten:
    for a sync hook that records only the newest {!capacity} events of a
    longer backlog. *)
val drop : t -> int -> unit

(** A frozen copy of the window and its total, without the sync hook
    (after running it). *)
val copy : t -> t

(** {2 Test hooks}

    Used only by the tests, to count overwritten events. *)

(** Events ever recorded, including overwritten ones. *)
val total_recorded : t -> int
