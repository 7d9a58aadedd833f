(** Uplink taint analysis (a {!Dataflow} client).

    Tracks bytes read from the UART receive register ([in Rd, UDR] —
    the §IV attacker's only entry point) forward through the whole
    reachable program: a context-insensitive interprocedural supergraph
    whose call edges enter the callee, whose [ret] edges deliver to the
    continuation of every call site of the returning function (closed
    over tail jumps via {!Dataflow.Callgraph}), and whose [icall]s fan
    out to every stored function pointer.

    The lattice per register/cell is [NotTainted < Bounded < Tainted];
    [Bounded] means uplink-derived but proved below a compile-time
    constant by a [cpi]/branch clamp or an [andi] mask, which is the
    per-edge refinement that distinguishes the patched PARAM_SET
    handler from the vulnerable one.  Memory is split field-insensitive
    style: direct [lds]/[sts] addresses are separate cells, all
    pointer-addressed memory shares one summary cell (aliasing between
    the two classes is ignored — the named scalar cells of this
    firmware are only written directly).  The hardware stack is an
    abstract push/pop list so register saves round-trip their taint.
    Interrupt handlers are not taint-seeded: the analysis follows the
    reset path, and the uplink enters through polling.

    A {e finding} is an intra-procedural loop (nontrivial SCC) that
    both stores through a pointer ([st]/[std]) and exits on a branch
    whose flags derive from a [Tainted] register — the unchecked
    attacker-controlled copy length of §IV.  Loops whose exit register
    is merely [Bounded] (the checked firmware variant) stay silent. *)

type finding = {
  fn : string;  (** containing function *)
  branch_addr : int;  (** loop-exit branch whose flags are tainted *)
  store_addr : int;  (** pointer store inside the same loop *)
  src_reg : int option;  (** register the flags derive from, if known *)
  detail : string;
}

type report = {
  findings : finding list;  (** ascending branch address *)
  iterations : int;  (** supergraph worklist pops *)
  nodes : int;  (** reachable instructions analyzed *)
}

val analyze : Cfg.t -> report

val to_json : report -> Mavr_telemetry.Json.t
val pp_finding : Format.formatter -> finding -> unit
