(** Hierarchical span tracer with deterministic export.

    The third leg of the observability stack, next to {!Metrics}
    (aggregates merged at join) and {!Recorder} (bounded cycle-stamped
    ring): spans capture {e where wall/cpu time went}, as a tree of
    named intervals per lane, exported as Chrome [trace_event] JSON
    (loadable in Perfetto / [chrome://tracing]).

    Determinism contract (the same isolation discipline as
    [Campaign.Clock]): every lane lives in one of two time domains.
    [Host] lanes are stamped from a caller-supplied wall/cpu clock and
    carry nondeterministic timing; [Cycles] lanes are stamped with
    emulated-CPU cycle counts and are fully deterministic.  Exports can
    strip the Host timing fields ({!to_trace_event} [~strip_timing]),
    after which the document depends only on span {e content} — names,
    hierarchy, counts, args, cycle stamps — which is identical for any
    [--jobs], because lanes are exported in a sorted order independent
    of domain scheduling.  Tracing must never perturb the traced
    computation: the tracer touches no global state and draws no
    randomness.

    Concurrency contract: {!lane} may be called from any domain (it
    locks); {e appending} to a lane is single-writer — each campaign
    task owns its own lane, so the hot path takes no lock. *)

type clock = { wall : unit -> float; cpu : unit -> float }
(** Time sources in seconds.  [Campaign.Clock.tracer] supplies its
    ratcheted monotonic wall clock; tests supply synthetic clocks. *)

type time_domain = Host | Cycles

type tracer
type lane

(** [create ?clock ()] — a fresh tracer; its epoch is [clock.wall] at
    creation, so Host stamps are microseconds-since-tracer-start.  The
    default clock uses [Sys.time] for both sources (portable but
    CPU-time-as-wall degraded — campaign code passes a real clock). *)
val create : ?clock:clock -> unit -> tracer

(** [lane t ?sort ?domain name] finds or creates the lane [name].
    Idempotent per name; re-requesting an existing lane with a
    different [domain] raises [Invalid_argument].  [sort] (default 0)
    orders lanes in exports before the name tiebreak — campaign code
    passes the task index so trace rows follow task order, not
    domain-completion order. *)
val lane : tracer -> ?sort:int -> ?domain:time_domain -> string -> lane

(** {2 Host-domain spans}  ([Invalid_argument] on a [Cycles] lane) *)

(** [span lane ?args name f] runs [f ()] inside a span; the span closes
    (and records wall + cpu duration) even if [f] raises. *)
val span : lane -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

val begin_span : lane -> ?args:(string * Json.t) list -> string -> unit

(** Closes the innermost open span.  [Invalid_argument] when none is
    open. *)
val end_span : lane -> unit

val instant : lane -> ?args:(string * Json.t) list -> string -> unit

(** {2 Cycles-domain spans}  ([Invalid_argument] on a [Host] lane) *)

(** [of_recorder lane events] folds a flight-recorder window (oldest
    first, as {!Recorder.events} returns it) into a [Cycles] lane:
    [Span_begin]/[Span_end] pairs matched by name become complete
    spans with cycle timestamps, [Point]s become instants carrying
    their payload as a ["value"] arg.  Unmatched ends and leftover
    begins degrade to instants ([name ^ ".end"] / [name ^ ".begin"])
    rather than being dropped. *)
val of_recorder : lane -> Recorder.event list -> unit

(** {2 Inspection} *)

type view = {
  v_lane : string;
  v_domain : time_domain;
  v_name : string;
  v_instant : bool;  (** instant vs complete span *)
  v_depth : int;  (** nesting depth at emission *)
  v_args : (string * Json.t) list;
}

(** {2 Lane persistence}

    Checkpoint round-trip for completed lanes.  {!lane_to_json} drops
    Host wall-clock timing (ts/dur/cpu) — the persisted form is exactly
    the timing-stripped form that the jobs-invariance byte-diff
    compares — while Cycles lanes keep their exact integer stamps.
    {!lane_of_json} re-creates the lane (name, sort, domain) in a
    tracer and replays its events, so a resumed run's stripped trace is
    byte-identical to the uninterrupted run's.  Open spans are not
    persisted. *)

val lane_to_json : lane -> Json.t
val lane_of_json : tracer -> Json.t -> (lane, string) result

(** {2 Export} *)

(** Chrome [trace_event] document: [{"traceEvents": [...]}] with
    process/thread metadata — Host lanes under pid 1 (process
    ["host"]), Cycles lanes under pid 2 (process ["cycles"]).

    Test hook: [~strip_timing:true] (default false) zeroes every
    Host-lane [ts]/[dur]/cpu field, making the bytes jobs-invariant;
    Cycles stamps are deterministic and always kept.  Tests use it to
    byte-compare whole exports, lane metadata included, across job
    counts; the CLI's traces are stripped by [trace_check --strip]
    instead. *)
val to_trace_event : ?strip_timing:bool -> tracer -> Json.t

(** {2 Test hooks}

    Used only by the tests, to emit a cycles-domain event directly and to
    inspect what a tracer recorded. *)

val cycle_instant : lane -> cycle:int -> args:(string * Json.t) list -> string -> unit

(** Timing-free event views in deterministic export order: lanes sorted
    by (domain, sort, name), events in per-lane emission order.  This
    is the content the jobs-invariance tests compare. *)
val views : tracer -> view list

(** Total events recorded (all lanes). *)
val event_count : tracer -> int

val lane_count : tracer -> int
