module Isa = Mavr_avr.Isa
module Device = Mavr_avr.Device
module Image = Mavr_obj.Image
module Json = Mavr_telemetry.Json

type sp_class = Sp_relative | Const_init | Unknown_source

type bound = Finite of int | Unbounded of string

let bound_max a b =
  match (a, b) with
  | Finite x, Finite y -> Finite (max x y)
  | (Unbounded _ as u), _ | _, (Unbounded _ as u) -> u

let bound_add a k = match a with Finite x -> Finite (x + k) | Unbounded _ -> a
let bound_sum a b = match (a, b) with
  | Finite x, Finite y -> Finite (x + y)
  | (Unbounded _ as u), _ | _, (Unbounded _ as u) -> u

(* ---- abstract domain ------------------------------------------------- *)

(* Depth: bytes pushed below the SP value at this entry.  [DTop] is the
   widened/unknown top. *)
type dval = D of int | DTop

(* What a register holds, as far as SP tracking cares.  [Sp_lo o] is the
   low byte of (SP-at-entry - o); [Pend_lo (o, kl)] is [Sp_lo o] after a
   [subi kl] whose borrow the matching [sbci] has not consumed yet (the
   16-bit frame-adjust idiom). *)
type rv = RTop | RConst of int | Sp_lo of int | Sp_hi of int | Pend_lo of int * int

(* A half-written SP: which value the written half came from. *)
type hv = VSp of int | VConst
type half = Wrote_lo of hv | Wrote_hi of hv

type st = { depth : dval; regs : rv array; half : half option }

module Dom = struct
  type t = st

  let equal a b = a.depth = b.depth && a.half = b.half && a.regs = b.regs

  let join a b =
    if equal a b then a
    else
      let depth =
        match (a.depth, b.depth) with
        | D x, D y -> D (max x y)
        | DTop, _ | _, DTop -> DTop
      in
      let regs = Array.init 32 (fun i -> if a.regs.(i) = b.regs.(i) then a.regs.(i) else RTop) in
      (* Merging a path mid-way through a split SP write leaves the real
         SP torn on one side — give up on the depth there. *)
      if a.half = b.half then { depth; regs; half = a.half }
      else { depth = DTop; regs; half = None }
end

module S = Dataflow.Solver (Dom)

let entry_state () = { depth = D 0; regs = Array.make 32 RTop; half = None }

let signed16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

(* avr-gcc call-clobbered registers (r0, r18-r27, r30-r31); the
   callee-saved set (r2-r17, r28/r29) is assumed preserved across calls
   — the ABI every function in this firmware follows. *)
let call_clobbered r = r = 0 || (r >= 18 && r <= 27) || r = 30 || r = 31

let ptr_regs = function
  | Isa.X -> (26, false)
  | Isa.X_inc | Isa.X_dec -> (26, true)
  | Isa.Y_inc | Isa.Y_dec -> (28, true)
  | Isa.Z_inc | Isa.Z_dec -> (30, true)

(* Non-control effect of one instruction.  [record_sp] is called with
   the source classification of every [out SPL/SPH]. *)
let apply ~record_sp addr insn st =
  let regs = Array.copy st.regs in
  let st = { st with regs } in
  let set r v = regs.(r) <- v in
  let torn st = { st with depth = DTop; half = None } in
  let depth_add k =
    if st.half <> None then torn st
    else { st with depth = (match st.depth with D d -> D (d + k) | DTop -> DTop) }
  in
  let spl = Device.Io.spl and sph = Device.Io.sph in
  let classify r ~lo =
    match regs.(r) with
    | Sp_lo o when lo -> Some (VSp o)
    | Sp_hi o when not lo -> Some (VSp o)
    | RConst _ -> Some VConst
    | _ -> None
  in
  let sp_out ~lo r =
    match classify r ~lo with
    | None ->
        record_sp addr Unknown_source;
        torn st
    | Some v -> (
        record_sp addr (match v with VSp _ -> Sp_relative | VConst -> Const_init);
        let commit () =
          { st with depth = (match v with VSp o -> D o | VConst -> D 0); half = None }
        in
        match (st.half, lo) with
        | Some (Wrote_hi v'), true when v' = v -> commit ()
        | Some (Wrote_lo v'), false when v' = v -> commit ()
        | None, true -> { st with half = Some (Wrote_lo v) }
        | None, false -> { st with half = Some (Wrote_hi v) }
        (* Re-writing the same half just replaces the pending value;
           mismatched halves leave SP torn. *)
        | Some (Wrote_lo _), true -> { st with half = Some (Wrote_lo v) }
        | Some (Wrote_hi _), false -> { st with half = Some (Wrote_hi v) }
        | Some _, _ -> torn st)
  in
  match insn with
  | Isa.Push _ -> depth_add 1
  | Isa.Pop r ->
      set r RTop;
      depth_add (-1)
  | Isa.In (r, p) ->
      set r
        (if st.half <> None then RTop
         else
           match st.depth with
           | D d when p = spl -> Sp_lo d
           | D d when p = sph -> Sp_hi d
           | _ -> RTop);
      st
  | Isa.Out (p, r) when p = spl -> sp_out ~lo:true r
  | Isa.Out (p, r) when p = sph -> sp_out ~lo:false r
  | Isa.Out _ -> st
  | Isa.Ldi (r, k) ->
      set r (RConst k);
      st
  | Isa.Mov (d, s) ->
      set d regs.(s);
      st
  | Isa.Movw (d, s) ->
      set d regs.(s);
      set (d + 1) regs.(s + 1);
      st
  | Isa.Subi (r, k) ->
      set r
        (match regs.(r) with
        | Sp_lo o -> Pend_lo (o, k)
        | RConst c -> RConst ((c - k) land 0xFF)
        | _ -> RTop);
      st
  | Isa.Sbci (r, kh) ->
      (if r >= 1 then
         match (regs.(r), regs.(r - 1)) with
         | Sp_hi o, Pend_lo (o', kl) when o = o' ->
             let k = signed16 ((kh lsl 8) lor kl) in
             set (r - 1) (Sp_lo (o + k));
             set r (Sp_hi (o + k))
         | _ -> set r RTop
       else set r RTop);
      st
  | Isa.Adiw (d, k) | Isa.Sbiw (d, k) ->
      let sign = match insn with Isa.Adiw _ -> -1 | _ -> 1 in
      (match (regs.(d), regs.(d + 1)) with
      | Sp_lo o, Sp_hi o' when o = o' ->
          set d (Sp_lo (o + (sign * k)));
          set (d + 1) (Sp_hi (o + (sign * k)))
      | _ ->
          set d RTop;
          set (d + 1) RTop);
      st
  | Isa.Eor (d, s) when d = s ->
      set d (RConst 0);
      st
  | Isa.Add (d, _) | Isa.Adc (d, _) | Isa.Sub (d, _) | Isa.Sbc (d, _) | Isa.And (d, _)
  | Isa.Or (d, _) | Isa.Eor (d, _) | Isa.Andi (d, _) | Isa.Ori (d, _) | Isa.Com d
  | Isa.Neg d | Isa.Inc d | Isa.Dec d | Isa.Lsr d | Isa.Ror d | Isa.Asr d | Isa.Swap d
  | Isa.Bld (d, _) | Isa.Lds (d, _) | Isa.Ldd (d, _, _) ->
      set d RTop;
      st
  | Isa.Mul _ ->
      set 0 RTop;
      set 1 RTop;
      st
  | Isa.Ld (r, p) ->
      set r RTop;
      let base, moves = ptr_regs p in
      if moves then begin
        set base RTop;
        set (base + 1) RTop
      end;
      st
  | Isa.St (p, _) ->
      let base, moves = ptr_regs p in
      if moves then begin
        set base RTop;
        set (base + 1) RTop
      end;
      st
  | Isa.Lpm0 | Isa.Elpm0 ->
      set 0 RTop;
      st
  | Isa.Lpm (r, inc) | Isa.Elpm (r, inc) ->
      set r RTop;
      if inc then begin
        set 30 RTop;
        set 31 RTop
      end;
      st
  | _ -> st

let clobber_call st =
  let regs = Array.copy st.regs in
  for r = 0 to 31 do
    if call_clobbered r then regs.(r) <- RTop
  done;
  if st.half <> None then { depth = DTop; regs; half = None } else { st with regs }

(* ---- per-entry local analysis ---------------------------------------- *)

type local = {
  l_entry : int;
  l_max : dval;  (** deepest in-state depth seen intra-procedurally *)
  l_calls : (int * dval * int list) list;  (** site, depth there, targets *)
  l_tails : (int * dval * int) list;  (** site, depth there, target *)
  l_iterations : int;
}

type report = {
  per_entry : (local * bound) list;  (** ascending entry, with totals *)
  main_total : bound;
  isr_extra : bound;
  image_bound : bound;
  entries : int;
  iterations : int;
  sp_classes : (int, sp_class) Hashtbl.t;
}

let name_of img addr =
  match Image.function_containing img addr with
  | Some s ->
      if s.Image.addr = addr then s.Image.name
      else Printf.sprintf "%s+0x%x" s.Image.name (addr - s.Image.addr)
  | None ->
      if addr >= 0 && addr < 4 * Device.Vector.count then Printf.sprintf "vector_%d" (addr / 4)
      else Printf.sprintf "low:0x%x" addr

let owner_span img addr =
  match Image.function_containing img addr with
  | Some s -> (s.Image.addr, s.Image.addr + s.Image.size)
  | None ->
      let slot = addr land lnot 3 in
      (slot, slot + 4)

(* Entry addresses: CFG seeds, every direct call target, every stored
   function pointer, and every control edge crossing a function span
   (tail jumps into shared epilogues land mid-function). *)
let entry_set cfg =
  let img = Cfg.image cfg in
  let set = Hashtbl.create 256 in
  let add a = if Cfg.is_reachable cfg a then Hashtbl.replace set a () in
  List.iter (fun (a, _) -> add a) (Cfg.entries cfg);
  let code = img.Image.code in
  Cfg.iter_reachable cfg (fun addr insn size ->
      let here = fst (owner_span img addr) in
      match Isa.transfer insn with
      | Isa.Transfer.Call -> (
          match insn with
          | Isa.Call a -> add (2 * a)
          | Isa.Rcall off -> add (addr + size + (2 * off))
          | _ -> ())
      | Isa.Transfer.Jump | Isa.Transfer.Straight | Isa.Transfer.Branch | Isa.Transfer.Skip ->
          List.iter
            (fun t -> if fst (owner_span img t) <> here then add t)
            (Cfg.successors ~code addr insn size)
      | Isa.Transfer.Indirect_call | Isa.Transfer.Indirect_jump | Isa.Transfer.Return | Isa.Transfer.Stop -> ());
  List.iter
    (fun loc -> match Cfg.funptr_target img loc with Some t -> add t | None -> ())
    img.Image.funptr_locs;
  List.sort compare (Hashtbl.fold (fun a _ acc -> a :: acc) set [])

let dval_join a b =
  match (a, b) with D x, D y -> D (max x y) | DTop, _ | _, DTop -> DTop

let analyze_entry cfg ~icall_targets ~record_sp ~nodes entry =
  let img = Cfg.image cfg in
  let code = img.Image.code in
  let span_lo, span_hi = owner_span img entry in
  let in_span a = a >= span_lo && a < span_hi in
  let calls : (int, dval * int list) Hashtbl.t = Hashtbl.create 8 in
  let tails : (int, dval * int) Hashtbl.t = Hashtbl.create 8 in
  let record_call site d targets =
    let d =
      match Hashtbl.find_opt calls site with Some (d0, _) -> dval_join d0 d | None -> d
    in
    Hashtbl.replace calls site (d, targets)
  in
  let record_tail site d target =
    let d =
      match Hashtbl.find_opt tails site with Some (d0, _) -> dval_join d0 d | None -> d
    in
    Hashtbl.replace tails site (d, target)
  in
  let transfer addr st =
    match Cfg.insn_at cfg addr with
    | None -> []
    | Some (insn, size) -> (
        match Isa.transfer insn with
        | Isa.Transfer.Return | Isa.Transfer.Stop -> []
        | Isa.Transfer.Call ->
            let t =
              match insn with
              | Isa.Call a -> 2 * a
              | Isa.Rcall off -> addr + size + (2 * off)
              | _ -> assert false
            in
            record_call addr st.depth [ t ];
            [ (addr + size, clobber_call st) ]
        | Isa.Transfer.Indirect_call ->
            record_call addr st.depth icall_targets;
            [ (addr + size, clobber_call st) ]
        | Isa.Transfer.Indirect_jump ->
            List.iter (fun t -> if not (in_span t) then record_tail addr st.depth t) icall_targets;
            List.filter_map (fun t -> if in_span t then Some (t, st) else None) icall_targets
        | Isa.Transfer.Straight | Isa.Transfer.Branch | Isa.Transfer.Jump | Isa.Transfer.Skip ->
            let st' = apply ~record_sp addr insn st in
            List.filter_map
              (fun t ->
                if in_span t then Some (t, st')
                else begin
                  record_tail addr st'.depth t;
                  None
                end)
              (Cfg.successors ~code addr insn size))
  in
  let widen st = { st with depth = DTop } in
  let r = S.solve ~max_joins:64 ~widen ~nodes ~seeds:[ (entry, entry_state ()) ] ~transfer () in
  let l_max =
    Hashtbl.fold (fun _ (st : st) acc -> dval_join acc st.depth) r.S.in_states (D 0)
  in
  {
    l_entry = entry;
    l_max;
    l_calls = Hashtbl.fold (fun s (d, ts) acc -> (s, d, ts) :: acc) calls [];
    l_tails = Hashtbl.fold (fun s (d, t) acc -> (s, d, t) :: acc) tails [];
    l_iterations = r.S.iterations;
  }

(* ---- interprocedural totals ------------------------------------------ *)

let analyze ?(dev = Device.atmega2560) cfg =
  let img = Cfg.image cfg in
  let pc_bytes = dev.Device.pc_bytes in
  let sp_classes : (int, sp_class) Hashtbl.t = Hashtbl.create 16 in
  let record_sp addr c =
    let c' =
      match (Hashtbl.find_opt sp_classes addr, c) with
      | Some Unknown_source, _ | _, Unknown_source -> Unknown_source
      | Some prev, _ -> prev
      | None, c -> c
    in
    Hashtbl.replace sp_classes addr c'
  in
  let icall_targets = Cfg.icall_targets img in
  let reachable = Array.of_list (Cfg.reachable_addrs cfg) in
  let nodes_in lo hi =
    (* reachable addresses within [lo, hi) — binary search the sorted array *)
    let n = Array.length reachable in
    let rec lower l r = if l >= r then l else
      let m = (l + r) / 2 in
      if reachable.(m) < lo then lower (m + 1) r else lower l m
    in
    let start = lower 0 n in
    let acc = ref [] in
    let i = ref start in
    while !i < n && reachable.(!i) < hi do
      acc := reachable.(!i) :: !acc;
      incr i
    done;
    !acc
  in
  let entries = entry_set cfg in
  let locals = Hashtbl.create 64 in
  let iterations = ref 0 in
  List.iter
    (fun e ->
      let lo, hi = owner_span img e in
      let l = analyze_entry cfg ~icall_targets ~record_sp ~nodes:(nodes_in lo hi) e in
      iterations := !iterations + l.l_iterations;
      Hashtbl.replace locals e l)
    entries;
  (* Dependency graph over entries; recursion condenses to Unbounded. *)
  let deps e =
    match Hashtbl.find_opt locals e with
    | None -> []
    | Some l ->
        List.sort_uniq compare
          (List.concat_map (fun (_, _, ts) -> ts) l.l_calls
          @ List.map (fun (_, _, t) -> t) l.l_tails)
  in
  let comps = Dataflow.sccs ~nodes:entries ~succs:deps in
  let totals : (int, bound) Hashtbl.t = Hashtbl.create 64 in
  let total_of e =
    match Hashtbl.find_opt totals e with
    | Some b -> b
    | None -> Unbounded (Printf.sprintf "unanalyzed target 0x%x" e)
  in
  List.iter
    (fun comp ->
      let recursive =
        match comp with
        | [ e ] -> List.mem e (deps e)
        | _ -> true
      in
      List.iter
        (fun e ->
          let b =
            if recursive then Unbounded (Printf.sprintf "recursion through %s" (name_of img e))
            else
              match Hashtbl.find_opt locals e with
              | None -> Unbounded (Printf.sprintf "no local analysis for 0x%x" e)
              | Some l ->
                  let of_dval site = function
                    | D d -> Finite d
                    | DTop -> Unbounded (Printf.sprintf "unknown depth at 0x%x" site)
                  in
                  let b =
                    match l.l_max with
                    | D d -> Finite d
                    | DTop -> Unbounded (Printf.sprintf "depth diverges in %s" (name_of img e))
                  in
                  let b =
                    List.fold_left
                      (fun acc (site, d, ts) ->
                        List.fold_left
                          (fun acc t ->
                            bound_max acc
                              (bound_add (bound_sum (of_dval site d) (total_of t)) pc_bytes))
                          acc ts)
                      b l.l_calls
                  in
                  List.fold_left
                    (fun acc (site, d, t) ->
                      bound_max acc (bound_sum (of_dval site d) (total_of t)))
                    b l.l_tails
          in
          Hashtbl.replace totals e b)
        comp)
    comps;
  let per_entry =
    List.map (fun e -> (Hashtbl.find locals e, total_of e)) entries
  in
  let vec_entry n =
    let a = Device.Vector.byte_addr n in
    if Hashtbl.mem locals a then Some a else None
  in
  let main_total = match vec_entry 0 with Some a -> total_of a | None -> Finite 0 in
  let isr_totals =
    List.filter_map
      (fun n -> Option.map total_of (vec_entry n))
      (List.init (Device.Vector.count - 1) (fun i -> i + 1))
  in
  let isr_extra =
    match isr_totals with
    | [] -> Finite 0
    | l -> bound_add (List.fold_left bound_max (Finite 0) l) pc_bytes
  in
  {
    per_entry;
    main_total;
    isr_extra;
    image_bound = bound_sum main_total isr_extra;
    entries = List.length entries;
    iterations = !iterations;
    sp_classes;
  }

(* The classifications are a byproduct of the full analysis; the lint
   wants just the table. *)
let sp_write_classes cfg = (analyze cfg).sp_classes

(* ---- rendering ------------------------------------------------------- *)

let bound_to_json = function
  | Finite n -> Json.Int n
  | Unbounded why -> Json.Obj [ ("unbounded", Json.String why) ]

let pp_bound fmt = function
  | Finite n -> Format.fprintf fmt "%d" n
  | Unbounded why -> Format.fprintf fmt "unbounded (%s)" why

let to_json ?(per_function = true) img r =
  Json.Obj
    ([
       ("entries", Json.Int r.entries);
       ("iterations", Json.Int r.iterations);
       ("main_total", bound_to_json r.main_total);
       ("isr_extra", bound_to_json r.isr_extra);
       ("image_bound", bound_to_json r.image_bound);
     ]
    @
    if not per_function then []
    else
      [
        ( "functions",
          Json.List
            (List.map
               (fun (l, total) ->
                 Json.Obj
                   [
                     ("entry", Json.Int l.l_entry);
                     ("name", Json.String (name_of img l.l_entry));
                     ( "local_max",
                       match l.l_max with
                       | D d -> Json.Int d
                       | DTop -> Json.String "unbounded" );
                     ("total", bound_to_json total);
                   ])
               r.per_entry) );
      ])

let pp fmt img r =
  Format.fprintf fmt "@[<v>stack depth: image bound %a (main %a + isr %a), %d entries@,"
    pp_bound r.image_bound pp_bound r.main_total pp_bound r.isr_extra r.entries;
  List.iter
    (fun (l, total) ->
      Format.fprintf fmt "  %-28s local %s total %a@,"
        (name_of img l.l_entry)
        (match l.l_max with D d -> string_of_int d | DTop -> "?")
        pp_bound total)
    r.per_entry;
  Format.fprintf fmt "@]"
