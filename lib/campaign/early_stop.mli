(** Adaptive early stopping for Monte-Carlo cells.

    A campaign cell (one defense × attack × fault-level combination)
    estimates a binomial rate — detection for attacked cells, false
    alarm for controls.  This policy stops a cell once the Wilson score
    interval around its running estimate is narrower than a target
    halfwidth, instead of burning the full fixed trial budget.

    Determinism: the policy itself is pure arithmetic.  The campaign
    driver applies it in deterministic {e rounds} — every open cell
    runs the same batch of trials (fixed per-trial seeds), then stop
    decisions are taken sequentially from the completed per-cell
    prefixes.  Decisions are therefore a function of trial results
    only, never of scheduling, so early-stopped output is
    jobs-invariant and resume replays the identical trajectory. *)

type t

(** [create ?z ?min_trials ?batch ~target ()] — stop a cell when its
    Wilson interval halfwidth at confidence [z] (default 1.96 ≈ 95%)
    drops to [target] or below, but never before [min_trials] (default
    8) trials.  Open cells grow by [batch] (default 4) trials per
    round.
    @raise Invalid_argument unless [0 < target < 1], [z > 0],
    [min_trials >= 1] and [batch >= 1]. *)
val create : ?z:float -> ?min_trials:int -> ?batch:int -> target:float -> unit -> t

val target : t -> float
val z : t -> float
val min_trials : t -> int
val batch : t -> int

(** [should_stop t ~n ~k] — [n >= min_trials] and the halfwidth met the
    target. *)
val should_stop : t -> n:int -> k:int -> bool

(** Policy parameters as JSON fields (for the campaign document's
    ["early_stop"] section). *)
val to_json_fields : t -> (string * Mavr_telemetry.Json.t) list

(** {2 Test hooks}

    Used only by the tests, to check the interval arithmetic behind the
    stopping rule. *)

(** [wilson ~z ~n ~k] — Wilson score interval [(lo, hi)] for [k]
    successes in [n] trials; [(0, 1)] when [n = 0]. *)
val wilson : z:float -> n:int -> k:int -> float * float

(** Half the Wilson interval width. *)
val halfwidth : z:float -> n:int -> k:int -> float
