module Isa = Mavr_avr.Isa
module Decode = Mavr_avr.Decode
module Image = Mavr_obj.Image
module Gadget = Mavr_core.Gadget
module Randomize = Mavr_core.Randomize
module Json = Mavr_telemetry.Json
module Engine = Mavr_campaign.Engine
module Pool = Mavr_campaign.Pool

(* Decode the forward chain starting at [addr] until a [ret] (inclusive)
   or until [cap] instructions.  This is exactly what the CPU executes
   when a return lands at [addr], so equality of chains is equality of
   attacker-visible behavior.

   Bounds: the guard admits [addr = len - 2] (the last word).  A 32-bit
   instruction starting there is covered by [Decode.decode_bytes]'s
   truncation contract — it decodes as [Data] with size 2, the walk
   advances to [len] and stops — so the chain terminates at the image
   edge without reading past it (regression-tested in test_analysis). *)
let chain ~cap (img : Image.t) addr =
  let len = String.length img.code in
  let rec go addr n acc =
    if n >= cap || addr < 0 || addr + 2 > len then List.rev acc
    else
      let insn, size = Decode.decode_bytes img.code addr in
      if insn = Isa.Ret then List.rev (insn :: acc)
      else go (addr + size) (n + 1) (insn :: acc)
  in
  go addr 0 []

let chain_at img addr = chain ~cap:24 img addr

let gadget_survives ~candidate (g : Gadget.t) =
  chain ~cap:(List.length g.insns) candidate g.byte_addr = g.insns

let payload_feasible ~reference ~(gadgets : Gadget.paper_gadgets) candidate =
  let check name addr =
    if chain_at reference addr = chain_at candidate addr then Ok ()
    else
      Error
        (Printf.sprintf "%s gadget at 0x%x no longer decodes to the harvested sequence" name addr)
  in
  let ( let* ) = Result.bind in
  let* () = check "stk_move" gadgets.stk_move in
  let* () = check "write_mem" gadgets.write_mem in
  check "write_mem_pops" gadgets.write_mem_pops

type seeding = Root of int

type t = {
  layouts : int;
  layout_seeds : int array;
  base_gadgets : int;
  survivors_per_layout : int array;
  mean_survival_rate : float;
  max_survival_rate : float;
  feasible_layouts : int;
}

let census ?seed:(Root root = Root 0) ?jobs ?pool ?tracer ?progress ~layouts image =
  let base = Gadget.scan image in
  let base_n = List.length base in
  let paper = Gadget.locate_paper_gadgets image in
  let seeds = Engine.task_seeds ~seed:root ~tasks:layouts in
  Option.iter (fun p -> Mavr_campaign.Progress.add_total p layouts) progress;
  (* One task per randomized layout.  [image] and [base] are immutable
     and shared read-only across domains; each slot of the two result
     arrays is written by exactly one task, so the output is identical
     for any [jobs] value. *)
  let survivors = Array.make layouts 0 in
  let feasible = Array.make layouts false in
  (* One relocation plan for every layout: each candidate is
     [Randomize.randomize] of its seed, without decoding the image again.
     No layouts, no plan (nor its refusal of a relaxed image). *)
  let plan = if layouts = 0 then None else Some (Randomize.plan image) in
  let measure i =
    let compute () =
      let rng = Mavr_prng.Splitmix.create ~seed:seeds.(i) in
      let candidate =
        Mavr_core.Stream_patch.layout (Option.get plan) (Mavr_core.Shuffle.draw ~rng image)
      in
      survivors.(i) <-
        List.fold_left (fun n g -> if gadget_survives ~candidate g then n + 1 else n) 0 base;
      feasible.(i) <-
        (match paper with
        | Some gadgets -> Result.is_ok (payload_feasible ~reference:image ~gadgets candidate)
        | None -> false)
    in
    (match tracer with
    | None -> compute ()
    | Some tr ->
        let module Span = Mavr_telemetry.Span in
        let lane = Span.lane tr ~sort:i (Printf.sprintf "layout-%04d" i) in
        Span.span lane
          ~args:[ ("index", Json.Int i); ("seed", Json.Int seeds.(i)) ]
          "census.layout" compute);
    Option.iter Mavr_campaign.Progress.task_done progress
  in
  (match pool with
  | Some p -> Pool.run p ~tasks:layouts measure
  | None -> Pool.with_pool ?jobs (fun p -> Pool.run p ~tasks:layouts measure));
  let feasible_n = Array.fold_left (fun n f -> if f then n + 1 else n) 0 feasible in
  let rate s = if base_n = 0 then 0.0 else float_of_int s /. float_of_int base_n in
  let mean =
    if layouts = 0 then 0.0
    else Array.fold_left (fun acc s -> acc +. rate s) 0.0 survivors /. float_of_int layouts
  in
  let max_rate = Array.fold_left (fun acc s -> Float.max acc (rate s)) 0.0 survivors in
  {
    layouts;
    layout_seeds = seeds;
    base_gadgets = base_n;
    survivors_per_layout = survivors;
    mean_survival_rate = mean;
    max_survival_rate = max_rate;
    feasible_layouts = feasible_n;
  }

let to_json t =
  Json.Obj
    [
      ("layouts", Json.Int t.layouts);
      ("base_gadgets", Json.Int t.base_gadgets);
      ( "survivors_per_layout",
        Json.List (Array.to_list (Array.map (fun s -> Json.Int s) t.survivors_per_layout)) );
      ("mean_survival_rate", Json.Float t.mean_survival_rate);
      ("max_survival_rate", Json.Float t.max_survival_rate);
      ("feasible_layouts", Json.Int t.feasible_layouts);
    ]

let pp fmt t =
  Format.fprintf fmt
    "census: %d base gadgets, %d layouts, mean survival %.2f%% (max %.2f%%), payload feasible in %d/%d layouts"
    t.base_gadgets t.layouts
    (100.0 *. t.mean_survival_rate)
    (100.0 *. t.max_survival_rate)
    t.feasible_layouts t.layouts
