(** Live campaign progress as a heartbeat JSONL stream.

    A campaign is otherwise a black box between launch and one terminal
    JSON document; this sink makes a multi-hour grid watchable: every
    emitted line is a self-contained JSON object carrying a monotonic
    ["seq"], tasks done/total, the overall completion rate and ETA, plus
    whatever detail providers the instrumented layers registered
    (per-cell running detection rates from [Montecarlo], per-domain
    pool utilization from the CLI).

    Emission discipline: {!task_done} is called from worker domains on
    every task completion; it bumps an atomic counter and emits a line
    only when the heartbeat interval has elapsed {e and} the sink lock
    is free ([try_lock] — a busy sink never blocks a worker).  The one
    exception is the frontier completion (done reaches total): that
    emission blocks for the lock and is guaranteed.  A run whose phases
    each call {!add_total} crosses the frontier once per phase, so the
    frontier line is a heartbeat too; the caller ends the stream with
    one [emit ~reason:"final"], its only final line.  The
    stream is advisory by design: line {e content} sampled mid-run
    depends on scheduling and carries wall-clock times, so it lives
    outside the deterministic-output contract (unlike [--trace]'s
    stripped form).  Consumers detect drops/reorders via ["seq"]. *)

type t

(** [create ~sink ()] — heartbeat stream writing each line (without the
    trailing newline) to [sink], at least 0.5 s of wall clock apart.

    Test hook: [interval_s] overrides that spacing; [0.] emits on every
    completion.  Tests use [0.] for a line per task and an interval no
    run can outlast for the gate, so their line counts do not depend on
    timing. *)
val create : ?interval_s:float -> sink:(string -> unit) -> unit -> t

(** [add_total t n] grows the expected task count (called by each
    instrumented phase as it learns its fan-out). *)
val add_total : t -> int -> unit

(** [on_heartbeat t f] registers a detail provider: [f ()] is appended
    to every subsequent line's fields.  Providers run under the sink
    lock, possibly from any worker domain — they must be cheap and
    thread-safe (read atomics, not locks).  Registration itself takes
    the sink lock, so mid-run registration is safe: the provider joins
    every line emitted after the call returns. *)
val on_heartbeat : t -> (unit -> (string * Mavr_telemetry.Json.t) list) -> unit

(** [task_done t] — one task finished; may emit a heartbeat line.  The
    completion that brings done up to total always emits one (blocking
    for the sink lock if necessary). *)
val task_done : t -> unit

(** [emit t ~reason] — force one line out (start / final summary),
    bypassing the interval gate but not the lock. *)
val emit : t -> reason:string -> unit

val total : t -> int

(** {2 Test hooks}

    Used only by the tests, to check the stream's counters against the
    lines it wrote. *)

(** Lines emitted so far (the last line's ["seq"]). *)
val lines_emitted : t -> int

val tasks_done : t -> int
