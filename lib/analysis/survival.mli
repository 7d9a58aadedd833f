(** Gadget-survival census and static payload feasibility (§VII).

    The paper's mitigation argument is statistical: after software
    diversification, the gadget {e addresses} an attacker harvested from
    the unprotected image no longer decode to the same instruction
    sequences, so a prebuilt ROP payload fails.  This module measures
    that claim without executing anything:

    - {!gadget_survives}: does a single harvested gadget still decode to
      the same sequence at the same address in a candidate layout?
    - {!census}: across [layouts] randomized layouts, what fraction of
      the base image's gadgets survive, and in how many layouts does the
      full §IV payload stay feasible?
    - {!payload_feasible}: the static analogue of running the attack in
      the emulator — all three paper-gadget addresses must decode to the
      reference sequences. *)

(** How the census draws its per-layout randomization seeds.

    [Root s] (the default, with [s = 0]) splits [layouts] independent
    63-bit seeds off the root via {!Mavr_campaign.Engine.task_seeds}:
    two censuses with different roots measure disjoint layout samples,
    and none of the seeds collide with the small hand-picked seeds
    (1, 2, 7, ...) used throughout the tests and examples. *)
type seeding = Root of int

type t = {
  layouts : int;  (** number of randomized layouts measured *)
  layout_seeds : int array;  (** the per-layout randomization seeds used *)
  base_gadgets : int;  (** gadget count on the base image *)
  survivors_per_layout : int array;  (** per-layout surviving-gadget count *)
  mean_survival_rate : float;  (** mean survivors / base_gadgets, in [0,1] *)
  max_survival_rate : float;
  feasible_layouts : int;  (** layouts where {!payload_feasible} holds *)
}

(** [census ?seed ?jobs ?pool ~layouts image] randomizes
    [layouts] layouts (seeds per [?seed], default [Root 0]) and measures
    which of the base image's gadgets survive at their harvested
    addresses in each layout.  [feasible_layouts] counts layouts where
    the full paper payload remains feasible (0 when the base image has no
    locatable paper gadgets).

    One campaign task per layout: pass [?pool] to reuse a running
    {!Mavr_campaign.Pool} (its job count applies), or [?jobs] to size a
    temporary one.  The result is bit-identical for any job count,
    including the sequential default.

    With [?tracer], each layout's randomize-and-measure body runs in a
    ["census.layout"] span on lane ["layout-NNNN"] (args: index, seed);
    with [?progress], [layouts] is added to the stream total and every
    layout completion ticks it.  Neither affects the result. *)
val census :
  ?seed:seeding ->
  ?jobs:int ->
  ?pool:Mavr_campaign.Pool.t ->
  ?tracer:Mavr_telemetry.Span.tracer ->
  ?progress:Mavr_campaign.Progress.t ->
  layouts:int ->
  Mavr_obj.Image.t ->
  t

val to_json : t -> Mavr_telemetry.Json.t
val pp : Format.formatter -> t -> unit

(** {2 Test hooks}

    Used only by the tests, to check the census's per-layout verdicts;
    a static oracle for flown attack outcomes is to build on them. *)

(** [chain_at img addr] — the forward decode chain a return landing at
    byte address [addr] would execute: instructions up to and including
    the first [ret], capped at 24.  Total at
    the image edge: a truncated two-word instruction decodes as [Data]
    per [Decode.decode_bytes]'s contract, and the chain stops at the last
    word without reading past the image. *)
val chain_at : Mavr_obj.Image.t -> int -> Mavr_avr.Isa.t list

(** [gadget_survives ~candidate g] — the decode chain at [g.byte_addr]
    in [candidate] still matches [g.insns] exactly. *)
val gadget_survives : candidate:Mavr_obj.Image.t -> Mavr_core.Gadget.t -> bool

(** [payload_feasible ~reference ~gadgets candidate] — static verdict on
    whether a §IV payload built against [reference] (with the harvested
    [gadgets] addresses) would still find its gadgets in [candidate].
    [Error] names the first gadget whose decode diverges. *)
val payload_feasible :
  reference:Mavr_obj.Image.t ->
  gadgets:Mavr_core.Gadget.paper_gadgets ->
  Mavr_obj.Image.t ->
  (unit, string) result
