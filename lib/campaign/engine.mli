(** Deterministic parallel runs of seeded Monte Carlo tasks.

    The paper's evaluation is Monte Carlo at heart — survival across K
    randomized layouts (§VII-A), expected brute-force probes over layout
    permutations (§V-D), detection rates across attack/defense grids.
    This engine scales the trial count across OCaml 5 domains while
    keeping every output {e bit-identical for any [jobs] value,
    including 1}:

    - per-task PRNG seeds are derived up front from a single root seed by
      {!Mavr_prng.Splitmix} splitting ({!task_seeds}), so no task's
      randomness depends on scheduling;
    - each task writes its result into slot [index] of the caller's
      array, so no task's position depends on completion order.

    Tasks must not share mutable state; give each worker its own
    {!Mavr_telemetry.Metrics} registry and combine with
    [Metrics.merge] (commutative) at the join. *)

(** [task_seeds ~seed ~tasks] — the per-task seed schedule: [tasks]
    independent 63-bit seeds split off the root [seed].  Exposed so
    callers that need the raw seeds (e.g. [Randomize.randomize ~seed])
    use exactly the schedule {!iter_indices} runs. *)
val task_seeds : seed:int -> tasks:int -> int array

(** [iter_indices ?pool ?jobs ?progress ~seeds ~indices body] runs
    [body ~index ~rng] for each global index in [indices], the engine's
    one primitive.  [seeds] is the {e full} schedule
    from {!task_seeds}; [indices] selects the subset that runs this
    round (a resumed campaign passes its uncompleted frontier, an
    early-stopping driver one batch per open cell).  [rng] is always
    seeded from [seeds.(index)], so a task's result is independent of
    which round, process or domain ran it.  With [?progress],
    [Array.length indices] is added to the total up front.
    @raise Invalid_argument if an index falls outside the schedule.
    @raise Pool.Task_failed when a task raises (lowest index). *)
val iter_indices :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?progress:Progress.t ->
  seeds:int array ->
  indices:int array ->
  (index:int -> rng:Mavr_prng.Splitmix.t -> unit) ->
  unit
