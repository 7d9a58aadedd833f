(** Wall-clock vs CPU-clock, kept honest.

    Every throughput/latency figure in this repository used to be derived
    from [Sys.time ()], which is process {e CPU} time.  That already
    conflates CPU with wall time on one domain, and becomes outright
    wrong with parallelism: CPU time {e sums} across domains, so a
    perfectly scaling campaign would report its throughput {e dropping}
    as domains are added.  Rates must divide by {!wall}; process CPU
    time ([Sys.time], summed across domains) appears only as explicitly
    labeled [cpu_s] bookkeeping (utilization = cpu_s / wall_s approaches
    the domain count when scaling is good). *)

(** [wall ()] — wall-clock seconds from an arbitrary origin, guaranteed
    monotonically non-decreasing across all domains (system clock steps
    backwards are ratcheted away). *)
val wall : unit -> float

type span = { wall_s : float; cpu_s : float }

(** [time f] runs [f ()] and measures it: [(result, span)]. *)
val time : (unit -> 'a) -> 'a * span

val span_to_json_fields : span -> (string * Mavr_telemetry.Json.t) list

(** [tracer ()] — a {!Mavr_telemetry.Span} tracer driven by this
    module's ratcheted {!wall} clock and [Sys.time] (the telemetry library
    itself has no [unix] dependency, so the clock is injected here). *)
val tracer : unit -> Mavr_telemetry.Span.tracer
