(** Static worst-case stack bounds (a {!Dataflow} client).

    Per analysis entry (function starts, vector slots, funptr targets,
    and every cross-function control-edge target — the shared-epilogue
    mid-entries) a forward fixpoint tracks the {e depth}: bytes pushed
    below the SP value held at the entry.  [push]/[pop] move it by one,
    [call]/[rcall]/[icall] return addresses cost [pc_bytes] (3 on the
    ATmega2560) and are charged at the call site, and the avr-gcc frame
    idiom — [in r28,SPL; in r29,SPH; subi/sbci; out SPH; out SPL] — is
    recognized by tracking SP-relative register values through the
    16-bit adjust, so frame allocation and the Fig. 4 teardown both
    commit an exact new depth instead of poisoning the analysis.

    Interprocedurally, entry totals combine along the call/tail-jump
    dependency graph in SCC order: [total(e) = max(local_max,
    depth@call + pc_bytes + total(callee), depth@tail + total(target))];
    any recursive component is [Unbounded].  The image bound adds one
    hardware interrupt frame plus the worst ISR total on top of the
    reset path (handlers never re-enable interrupts in this firmware;
    nesting would need a multiplier).

    The per-site source classification of every [out SPL/SPH]
    ({!sp_classes}) replaces {!Lint}'s old ±3/±8-instruction window
    heuristics: a write is clean iff the written register provably
    holds an SP-relative or constant value on every path. *)

type sp_class =
  | Sp_relative  (** written value derived from SP via the frame idiom *)
  | Const_init  (** written value is an [ldi]-style constant (startup) *)
  | Unknown_source  (** anything else — the stack-pivot primitive *)

type bound = Finite of int | Unbounded of string

(** Depth lattice value: exact bytes below entry SP, or widened top. *)
type dval = D of int | DTop

type local = {
  l_entry : int;
  l_max : dval;  (** deepest in-state depth seen intra-procedurally *)
  l_calls : (int * dval * int list) list;  (** site, depth there, targets *)
  l_tails : (int * dval * int) list;  (** site, depth there, target *)
  l_iterations : int;
}

type report = {
  per_entry : (local * bound) list;  (** ascending entry address *)
  main_total : bound;  (** reset-vector path (vector 0) *)
  isr_extra : bound;  (** pc_bytes + worst ISR total (one nesting level) *)
  image_bound : bound;  (** main_total + isr_extra — compare against
                            [stack_top - Probes.min_sp] *)
  entries : int;
  iterations : int;  (** total worklist pops across all local solves *)
  sp_classes : (int, sp_class) Hashtbl.t;  (** per [out SPL/SPH] site *)
}

val analyze : Cfg.t -> report

(** Just the SP-write classification table (runs the full analysis). *)
val sp_write_classes : Cfg.t -> (int, sp_class) Hashtbl.t

val bound_to_json : bound -> Mavr_telemetry.Json.t

(** The image-wide totals; {!pp} lists the per-function bounds. *)
val to_json : report -> Mavr_telemetry.Json.t
val pp_bound : Format.formatter -> bound -> unit
val pp : Format.formatter -> Mavr_obj.Image.t -> report -> unit
