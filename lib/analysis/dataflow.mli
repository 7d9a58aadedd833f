(** Worklist fixpoint data-flow engine over {!Cfg} recoveries.

    The solver is deliberately small and direction-agnostic: a node is
    an instruction (byte) address, a {e transfer} maps a node's in-state
    to per-edge out-states, and the engine iterates a FIFO worklist
    until the in-states stop changing under the client's lattice join.
    Forward analyses pass the CFG successor edges; backward analyses
    pass the reversed edges and read "in-state"
    as the state {e after} the instruction.

    Per-edge out-states (rather than one out-state fanned to every
    successor) let clients refine facts along branch outcomes — the
    taint client narrows a compared register on the bounded arm of a
    [cpi]/[brlo] clamp, which is exactly what separates the checked
    MAVLink handler from the §IV vulnerable one.

    Interprocedural clients condense recursion with {!sccs} (Tarjan,
    emitted callees-first) and build their supergraph edges from
    {!Callgraph}: direct/indirect call sites, cross-function tail
    jumps, and the ret-delivery map closed over tail jumps. *)

(** A join-semilattice of abstract states. *)
module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Solver (D : DOMAIN) : sig
  type result = {
    in_states : (int, D.t) Hashtbl.t;  (** fixpoint in-state per reached node *)
    iterations : int;  (** worklist pops until quiescence *)
  }

  (** [solve ~nodes ~seeds ~transfer ()] runs to fixpoint.  [nodes] is
      the universe — edges leaving it are dropped.  [seeds] initialize
      (and enqueue) entry nodes.  [transfer n s] returns the successor
      edges of [n] with the out-state carried along each.

      Termination: guaranteed for finite-height lattices.  For infinite
      chains (e.g. integer depth counters) pass [widen]: after a node's
      in-state has strictly grown [max_joins] times (default 256),
      every further join at that node is widened through it — map to
      your lattice's top there. *)
  val solve :
    ?max_joins:int ->
    ?widen:(D.t -> D.t) ->
    nodes:int list ->
    seeds:(int * D.t) list ->
    transfer:(int -> D.t -> (int * D.t) list) ->
    unit ->
    result
end

(** [sccs ~nodes ~succs] — strongly connected components (iterative
    Tarjan), in reverse topological order of the condensation: each
    component precedes every component with an edge {e into} it, so
    with call edges as [succs] callees come out before callers.
    Singleton components may still carry a self-loop — check. *)
val sccs : nodes:int list -> succs:(int -> int list) -> int list list

(** The interprocedural skeleton: reachable code partitioned into
    functions (symbol spans; low-region 4-byte jmp slots — vectors and
    icall trampolines — are their own nodes), with call sites, tail
    jumps and the return-delivery relation. *)
module Callgraph : sig
  type t

  val build : Cfg.t -> t

  (** [owner t addr] is the partition key of the code at [addr]. *)
  val owner : t -> int -> int

  (** {!Cfg.icall_targets}: the conservative target set of every
      [icall]/[ijmp]. *)
  val icall_targets : t -> int list

  (** [ret_targets t key] — return addresses the [ret]s executing in
      partition [key] deliver to: continuations of every call site
      targeting it, closed transitively over tail jumps (a ret reached
      through [g] tail-jumping into [f] also returns to [g]'s
      callers). *)
  val ret_targets : t -> int -> int list
end
