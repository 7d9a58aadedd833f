(** Fixed-size domain pool: a parallel-for over task indices.

    [jobs - 1] worker domains are spawned once at {!with_pool} and parked on
    a condition variable; each {!run} publishes one job (a body over
    indices [0 .. tasks-1]) that the workers {e and the calling domain}
    drain from a chunked atomic queue.  Scheduling is dynamic (chunks go
    to whichever domain is free), so callers must not depend on which
    domain runs which index — determinism comes from writing results into
    index-addressed slots, as {!Engine.iter_indices}' callers do.

    Task exceptions are never swallowed: every scheduled task still runs,
    then {!run} raises {!Task_failed} for the {e lowest} failing index —
    deterministic for any [jobs], including 1. *)

type t

exception Task_failed of { index : int; exn : exn; backtrace : string }

val jobs : t -> int

type domain_stats = {
  tasks_run : int;  (** tasks executed on this slot, across all runs *)
  busy_s : float;  (** wall seconds this slot spent inside task bodies *)
}

(** [stats t] — per-domain utilization, index 0 the calling domain,
    1.. the spawned workers.  Counters accumulate across every {!run}
    on this pool and are updated at chunk granularity by each slot's
    own domain; reading them while a job is in flight (the progress
    heartbeat does) is safe but may lag by one chunk.  Idle time is
    the caller's to derive: [jobs * elapsed_wall - Σ busy_s]. *)
val stats : t -> domain_stats array

(** [run t ~tasks body] executes [body i] for every [i] in
    [0 .. tasks-1], in parallel across the pool.  Returns when all tasks
    have completed.
    @raise Task_failed when any task raised (lowest index reported). *)
val run : t -> tasks:int -> (int -> unit) -> unit

(** [with_pool ?jobs f] spawns a pool, applies [f] to it and always shuts
    it down.  [jobs] defaults to [Domain.recommended_domain_count ()]
    capped at {!max_jobs}; [jobs = 1] spawns no domains and makes {!run}
    purely sequential.
    @raise Invalid_argument when [jobs < 1]. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a

(** {2 Test hooks}

    Used only by the tests, to check that {!with_pool} caps the job count. *)

(** Upper cap applied to [jobs] (oversubscribing domains degrades an
    OCaml 5 runtime rapidly). *)
val max_jobs : int
