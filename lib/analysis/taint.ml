module Isa = Mavr_avr.Isa
module Device = Mavr_avr.Device
module Image = Mavr_obj.Image
module Json = Mavr_telemetry.Json
module IntMap = Map.Make (Int)

(* Taint values, ordered: 0 = not tainted, 1 = bounded (uplink-derived
   but clamped below a compile-time constant), 2 = tainted. *)
let t_nt = 0
let t_bounded = 1
let t_tainted = 2

type refine =
  | RCpi of int * int  (** [cpi r, K] set the flags *)
  | RCp of int * int  (** [cp r, s] set the flags *)

type fact = { ft : int; refine : refine option }

let fact_bot = { ft = 0; refine = None }

(* Abstract machine state: register taints packed 2 bits each, the
   flag-derivation fact, direct-addressed memory cells (absent = not
   tainted), one summary cell for all pointer-addressed memory, and an
   abstract hardware stack (top first). *)
type st = { rlo : int; rhi : int; fact : fact; mem : int IntMap.t; memsum : int; stack : int list }

let bot = { rlo = 0; rhi = 0; fact = fact_bot; mem = IntMap.empty; memsum = 0; stack = [] }

let get st r = if r < 16 then (st.rlo lsr (2 * r)) land 3 else (st.rhi lsr (2 * (r - 16))) land 3

let set st r v =
  if r < 16 then { st with rlo = st.rlo land lnot (3 lsl (2 * r)) lor (v lsl (2 * r)) }
  else { st with rhi = st.rhi land lnot (3 lsl (2 * (r - 16))) lor (v lsl (2 * (r - 16))) }

let stack_cap = 64

let push_taint st v =
  let stack = v :: st.stack in
  let stack =
    if List.length stack > stack_cap then List.filteri (fun i _ -> i < stack_cap) stack
    else stack
  in
  { st with stack }

(* Popping past what we tracked is an imbalance we can't reason about:
   be conservative. *)
let pop_taint st =
  match st.stack with v :: tl -> (v, { st with stack = tl }) | [] -> (t_tainted, st)

let rec popn st n = if n = 0 then st else popn (snd (pop_taint st)) (n - 1)

module Dom = struct
  type t = st

  let equal a b =
    a.rlo = b.rlo && a.rhi = b.rhi && a.fact = b.fact && a.memsum = b.memsum
    && a.stack = b.stack && IntMap.equal ( = ) a.mem b.mem

  let join_regs x y =
    let out = ref 0 in
    for i = 0 to 15 do
      let v = max ((x lsr (2 * i)) land 3) ((y lsr (2 * i)) land 3) in
      out := !out lor (v lsl (2 * i))
    done;
    !out

  let rec join_stack a b =
    match (a, b) with
    | x :: xs, y :: ys -> max x y :: join_stack xs ys
    | _, [] | [], _ -> []

  let join a b =
    if equal a b then a
    else
      {
        rlo = join_regs a.rlo b.rlo;
        rhi = join_regs a.rhi b.rhi;
        fact =
          (if a.fact = b.fact then a.fact
           else
             {
               ft = max a.fact.ft b.fact.ft;
               refine = (if a.fact.refine = b.fact.refine then a.fact.refine else None);
             });
        mem =
          IntMap.union (fun _ x y -> Some (max x y)) a.mem b.mem;
        memsum = max a.memsum b.memsum;
        stack = join_stack a.stack b.stack;
      }
end

module S = Dataflow.Solver (Dom)

(* ---- per-instruction data effect ------------------------------------- *)

let mem_get st a = match IntMap.find_opt a st.mem with Some v -> v | None -> t_nt
let mem_set st a v =
  { st with mem = (if v = t_nt then IntMap.remove a st.mem else IntMap.add a v st.mem) }

let flags st ?refine ft = { st with fact = { ft; refine } }

(* The data effect of one instruction (control effects live in the edge
   builder).  [udr] is the taint source: the UART receive register. *)
let step insn st =
  let t r = get st r in
  match insn with
  | Isa.Nop | Isa.Wdr | Isa.Sleep | Isa.Break | Isa.Data _ -> st
  | Isa.Ldi (r, _) -> set st r t_nt
  | Isa.Mov (d, s) -> set st d (t s)
  | Isa.Movw (d, s) -> set (set st d (t s)) (d + 1) (t (s + 1))
  | Isa.Eor (d, s) when d = s -> flags (set st d t_nt) t_nt
  | Isa.Add (d, s) | Isa.Adc (d, s) | Isa.Sub (d, s) | Isa.Sbc (d, s) | Isa.And (d, s)
  | Isa.Or (d, s) | Isa.Eor (d, s) ->
      let v = max (t d) (t s) in
      flags (set st d v) v
  | Isa.Mul (d, s) ->
      let v = max (t d) (t s) in
      flags (set (set st 0 v) 1 v) v
  | Isa.Cp (d, s) -> flags st ~refine:(RCp (d, s)) (max (t d) (t s))
  | Isa.Cpc (d, s) -> flags st (max st.fact.ft (max (t d) (t s)))
  | Isa.Cpi (r, k) -> flags st ~refine:(RCpi (r, k)) (t r)
  | Isa.Cpse _ -> st
  | Isa.Subi (r, _) | Isa.Ori (r, _) -> flags st (t r)
  | Isa.Sbci (r, _) -> flags st (max st.fact.ft (t r))
  | Isa.Andi (r, k) ->
      (* Masking bounds the value below a compile-time constant. *)
      let v = if k <> 0xFF && t r = t_tainted then t_bounded else t r in
      flags (set st r v) v
  | Isa.Com r | Isa.Neg r | Isa.Inc r | Isa.Dec r | Isa.Lsr r | Isa.Ror r | Isa.Asr r ->
      flags st (t r)
  | Isa.Swap _ | Isa.Bld _ | Isa.Bst _ | Isa.Bset _ | Isa.Bclr _ -> st
  | Isa.Adiw (d, _) | Isa.Sbiw (d, _) -> flags st (max (t d) (t (d + 1)))
  | Isa.In (r, p) -> set st r (if p = Device.Io.udr then t_tainted else t_nt)
  | Isa.Out _ | Isa.Sbi _ | Isa.Cbi _ | Isa.Sbic _ | Isa.Sbis _ | Isa.Sbrc _ | Isa.Sbrs _ ->
      st
  | Isa.Lds (r, a) -> set st r (mem_get st a)
  | Isa.Sts (a, r) -> mem_set st a (t r)
  | Isa.Ld (r, _) | Isa.Ldd (r, _, _) -> set st r st.memsum
  | Isa.St (_, r) | Isa.Std (_, _, r) -> { st with memsum = max st.memsum (t r) }
  | Isa.Lpm0 | Isa.Elpm0 -> set st 0 t_nt
  | Isa.Lpm (r, _) | Isa.Elpm (r, _) -> set st r t_nt
  | Isa.Push r -> push_taint st (t r)
  | Isa.Pop r ->
      let v, st = pop_taint st in
      set st r v
  | Isa.Ret | Isa.Reti | Isa.Icall | Isa.Ijmp | Isa.Call _ | Isa.Jmp _ | Isa.Rcall _
  | Isa.Rjmp _ | Isa.Brbs _ | Isa.Brbc _ ->
      st

(* Branch-edge refinement: on the arm where [cpi r, K] proved [r < K]
   the register is Bounded; on an equality-with-constant (or with an
   untainted register) arm it inherits the compared value's taint. *)
let refine_edge st ~bit ~taken_of_brbs ~is_brbs =
  (* On which edge does "flag [bit] is set" hold?  The taken edge of
     [brbs], the fallthrough edge of [brbc]. *)
  let bit_set = taken_of_brbs = is_brbs in
  match st.fact.refine with
  | Some (RCpi (r, _)) when bit = Isa.Flag.c && bit_set ->
      (* carry set after [cpi r, K] means r < K: the clamped arm *)
      if get st r = t_tainted then set st r t_bounded else st
  | Some (RCpi (r, _)) when bit = Isa.Flag.z && bit_set ->
      (* equal to a compile-time constant *)
      set st r t_nt
  | Some (RCp (r, s)) when bit = Isa.Flag.z && bit_set ->
      (* equal to [s]: inherit its taint *)
      set st r (get st s)
  | _ -> st

(* ---- findings -------------------------------------------------------- *)

type finding = {
  fn : string;
  branch_addr : int;
  store_addr : int;
  src_reg : int option;
  detail : string;
}

type report = { findings : finding list; iterations : int; nodes : int }

let analyze cfg =
  let img = Cfg.image cfg in
  let cg = Dataflow.Callgraph.build cfg in
  let code = img.Image.code in
  let nodes = Cfg.reachable_addrs cfg in
  let icall_targets = Dataflow.Callgraph.icall_targets cg in
  let transfer addr st =
    match Cfg.insn_at cfg addr with
    | None -> []
    | Some (insn, size) -> (
        match Isa.transfer insn with
        | Isa.Transfer.Stop -> []
        | Isa.Transfer.Return -> (
            match insn with
            | Isa.Ret ->
                let st' = popn st Device.atmega2560.Device.pc_bytes in
                List.map
                  (fun t -> (t, st'))
                  (Dataflow.Callgraph.ret_targets cg (Dataflow.Callgraph.owner cg addr))
            | _ -> [] (* reti: interrupt handlers are not taint-seeded *))
        | Isa.Transfer.Call ->
            let t =
              match insn with
              | Isa.Call a -> 2 * a
              | Isa.Rcall off -> addr + size + (2 * off)
              | _ -> assert false
            in
            let st' = ref st in
            for _ = 1 to Device.atmega2560.Device.pc_bytes do
              st' := push_taint !st' t_nt
            done;
            [ (t, !st') ]
        | Isa.Transfer.Indirect_call ->
            let st' = ref st in
            for _ = 1 to Device.atmega2560.Device.pc_bytes do
              st' := push_taint !st' t_nt
            done;
            List.map (fun t -> (t, !st')) icall_targets
        | Isa.Transfer.Indirect_jump -> List.map (fun t -> (t, st)) icall_targets
        | Isa.Transfer.Branch ->
            let bit, off =
              match insn with
              | Isa.Brbs (b, o) | Isa.Brbc (b, o) -> (b, o)
              | _ -> assert false
            in
            let is_brbs = match insn with Isa.Brbs _ -> true | _ -> false in
            let taken = addr + size + (2 * off) and fall = addr + size in
            [
              (taken, refine_edge st ~bit ~taken_of_brbs:true ~is_brbs);
              (fall, refine_edge st ~bit ~taken_of_brbs:false ~is_brbs);
            ]
        | Isa.Transfer.Straight | Isa.Transfer.Jump | Isa.Transfer.Skip ->
            let st' = step insn st in
            List.map (fun t -> (t, st')) (Cfg.successors ~code addr insn size))
  in
  (* Seed: the reset vector with everything untainted. *)
  let r = S.solve ~nodes ~seeds:[ (Device.Vector.byte_addr 0, bot) ] ~transfer () in
  (* Intra-procedural loop structure: same-owner edges, calls reduced to
     their fallthrough. *)
  let intra addr =
    match Cfg.insn_at cfg addr with
    | None -> []
    | Some (insn, size) -> (
        let here = Dataflow.Callgraph.owner cg addr in
        match Isa.transfer insn with
        | Isa.Transfer.Return | Isa.Transfer.Stop | Isa.Transfer.Indirect_jump -> []
        | Isa.Transfer.Call | Isa.Transfer.Indirect_call -> [ addr + size ]
        | Isa.Transfer.Straight | Isa.Transfer.Branch | Isa.Transfer.Jump | Isa.Transfer.Skip ->
            List.filter
              (fun t -> Dataflow.Callgraph.owner cg t = here)
              (Cfg.successors ~code addr insn size))
  in
  let comps = Dataflow.sccs ~nodes ~succs:intra in
  let findings = ref [] in
  List.iter
    (fun comp ->
      let looping = match comp with [ a ] -> List.mem a (intra a) | _ -> true in
      if looping then begin
        let branches = ref [] and stores = ref [] in
        List.iter
          (fun a ->
            match Cfg.insn_at cfg a with
            | Some ((Isa.Brbs _ | Isa.Brbc _), _) -> (
                match Hashtbl.find_opt r.S.in_states a with
                | Some st when st.fact.ft = t_tainted ->
                    let reg =
                      match st.fact.refine with
                      | Some (RCpi (r, _)) | Some (RCp (r, _)) -> Some r
                      | None -> None
                    in
                    branches := (a, reg) :: !branches
                | _ -> ())
            | Some ((Isa.St _ | Isa.Std _), _) ->
                if Hashtbl.mem r.S.in_states a then stores := a :: !stores
            | _ -> ())
          comp;
        match (List.sort compare !branches, List.sort compare !stores) with
        | (branch_addr, src_reg) :: _, store_addr :: _ ->
            let fn =
              match Image.function_containing img branch_addr with
              | Some s -> s.Image.name
              | None -> Printf.sprintf "low:0x%x" branch_addr
            in
            findings :=
              {
                fn;
                branch_addr;
                store_addr;
                src_reg;
                detail =
                  Printf.sprintf
                    "loop in %s copies through the pointer store at 0x%x while its exit \
                     branch at 0x%x depends on %s — an unclamped uplink-controlled length"
                    fn store_addr branch_addr
                    (match src_reg with
                    | Some r -> Printf.sprintf "tainted r%d" r
                    | None -> "tainted flags");
              }
              :: !findings
        | _ -> ()
      end)
    comps;
  {
    findings = List.sort (fun a b -> compare a.branch_addr b.branch_addr) !findings;
    iterations = r.S.iterations;
    nodes = List.length nodes;
  }

let to_json report =
  Json.Obj
    [
      ("iterations", Json.Int report.iterations);
      ("nodes", Json.Int report.nodes);
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 ([
                    ("fn", Json.String f.fn);
                    ("branch_addr", Json.Int f.branch_addr);
                    ("store_addr", Json.Int f.store_addr);
                  ]
                 @ (match f.src_reg with Some r -> [ ("src_reg", Json.Int r) ] | None -> [])
                 @ [ ("detail", Json.String f.detail) ]))
             report.findings) );
    ]

let pp_finding fmt f =
  Format.fprintf fmt "[unbounded_uplink_copy] %s: branch 0x%x store 0x%x%s@,  %s" f.fn
    f.branch_addr f.store_addr
    (match f.src_reg with Some r -> Printf.sprintf " (r%d)" r | None -> "")
    f.detail
