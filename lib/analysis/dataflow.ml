module Isa = Mavr_avr.Isa
module Image = Mavr_obj.Image

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Solver (D : DOMAIN) = struct
  type result = { in_states : (int, D.t) Hashtbl.t; iterations : int }

  let solve ?(max_joins = 256) ?widen ~nodes ~seeds ~transfer () =
    let node_set = Hashtbl.create (max 16 (2 * List.length nodes)) in
    List.iter (fun n -> Hashtbl.replace node_set n ()) nodes;
    let states = Hashtbl.create 1024 in
    let joins = Hashtbl.create 64 in
    let work = Queue.create () in
    let queued = Hashtbl.create 1024 in
    let enqueue n =
      if not (Hashtbl.mem queued n) then begin
        Hashtbl.replace queued n ();
        Queue.add n work
      end
    in
    let update n s =
      if Hashtbl.mem node_set n then
        match Hashtbl.find_opt states n with
        | None ->
            Hashtbl.replace states n s;
            enqueue n
        | Some old ->
            let j = D.join old s in
            if not (D.equal j old) then begin
              let c = (match Hashtbl.find_opt joins n with Some c -> c | None -> 0) + 1 in
              Hashtbl.replace joins n c;
              let j =
                if c > max_joins then match widen with Some w -> w j | None -> j else j
              in
              Hashtbl.replace states n j;
              enqueue n
            end
    in
    List.iter (fun (n, s) -> update n s) seeds;
    let iterations = ref 0 in
    while not (Queue.is_empty work) do
      let n = Queue.pop work in
      Hashtbl.remove queued n;
      incr iterations;
      match Hashtbl.find_opt states n with
      | None -> ()
      | Some s -> List.iter (fun (m, s') -> update m s') (transfer n s)
    done;
    { in_states = states; iterations = !iterations }
end

(* Iterative Tarjan, so deep call chains cannot overflow the OCaml
   stack.  Components come out in reverse topological order of the
   condensation: every edge from an emitted component targets an
   already-emitted one (successors first). *)
let sccs ~nodes ~succs =
  let node_set = Hashtbl.create (max 16 (2 * List.length nodes)) in
  List.iter (fun n -> Hashtbl.replace node_set n ()) nodes;
  let index = Hashtbl.create 256 in
  let lowlink = Hashtbl.create 256 in
  let on_stack = Hashtbl.create 256 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let visit v0 =
    if not (Hashtbl.mem index v0) then begin
      let frames = Stack.create () in
      let open_node v =
        Hashtbl.replace index v !counter;
        Hashtbl.replace lowlink v !counter;
        incr counter;
        stack := v :: !stack;
        Hashtbl.replace on_stack v ();
        Stack.push (v, ref (List.filter (Hashtbl.mem node_set) (succs v))) frames
      in
      open_node v0;
      while not (Stack.is_empty frames) do
        let u, rest = Stack.top frames in
        match !rest with
        | w :: tl ->
            rest := tl;
            if not (Hashtbl.mem index w) then open_node w
            else if Hashtbl.mem on_stack w then
              Hashtbl.replace lowlink u (min (Hashtbl.find lowlink u) (Hashtbl.find index w))
        | [] ->
            ignore (Stack.pop frames);
            if Hashtbl.find lowlink u = Hashtbl.find index u then begin
              let scc = ref [] in
              let break = ref false in
              while not !break do
                match !stack with
                | [] -> break := true
                | w :: tl ->
                    stack := tl;
                    Hashtbl.remove on_stack w;
                    scc := w :: !scc;
                    if w = u then break := true
              done;
              out := !scc :: !out
            end;
            (match Stack.top_opt frames with
            | Some (p, _) ->
                Hashtbl.replace lowlink p (min (Hashtbl.find lowlink p) (Hashtbl.find lowlink u))
            | None -> ())
      done
    end
  in
  List.iter visit nodes;
  List.rev !out

(* ---- call graph ------------------------------------------------------ *)

module Callgraph = struct
  (* A transfer site: its continuation (the next instruction) and its
     callee/jump byte addresses; indirect sites fan out to every stored
     function pointer. *)
  type site = { site_ret : int; targets : int list }

  (* One partition: [call]/[rcall]/[icall] sites inside it, and
     cross-partition [jmp]/[rjmp]/[ijmp]s. *)
  type node = { mutable calls : site list; mutable tails : site list }

  type t = {
    owner_of : int -> int;
    icall_targets : int list;
    ret_delivery : (int, int list) Hashtbl.t;
  }

  let owner t addr = t.owner_of addr
  let icall_targets t = t.icall_targets

  let ret_targets t key =
    match Hashtbl.find_opt t.ret_delivery key with Some l -> l | None -> []

  let build cfg =
    let img = Cfg.image cfg in
    let owner_of addr =
      match Image.function_containing img addr with
      | Some s -> s.Image.addr
      (* Low-region code is 4-byte jmp slots (vectors, icall
         trampolines); each slot is its own node. *)
      | None -> addr land lnot 3
    in
    let nodes = Hashtbl.create 256 in
    let get key =
      match Hashtbl.find_opt nodes key with
      | Some n -> n
      | None ->
          let n = { calls = []; tails = [] } in
          Hashtbl.replace nodes key n;
          n
    in
    let icall_targets = Cfg.icall_targets img in
    Cfg.iter_reachable cfg (fun addr insn size ->
        let key = owner_of addr in
        let n = get key in
        match Isa.transfer insn with
        | Isa.Transfer.Call ->
            let t =
              match insn with
              | Isa.Call a -> 2 * a
              | Isa.Rcall off -> addr + size + (2 * off)
              | _ -> assert false
            in
            n.calls <- { site_ret = addr + size; targets = [ t ] } :: n.calls
        | Isa.Transfer.Indirect_call ->
            n.calls <-
              { site_ret = addr + size; targets = icall_targets } :: n.calls
        | Isa.Transfer.Jump ->
            let t =
              match insn with
              | Isa.Jmp a -> 2 * a
              | Isa.Rjmp off -> addr + size + (2 * off)
              | _ -> assert false
            in
            if owner_of t <> key then
              n.tails <- { site_ret = addr + size; targets = [ t ] } :: n.tails
        | Isa.Transfer.Indirect_jump ->
            let ts = List.filter (fun t -> owner_of t <> key) icall_targets in
            if ts <> [] then
              n.tails <- { site_ret = addr + size; targets = ts } :: n.tails
        | Isa.Transfer.Straight | Isa.Transfer.Branch | Isa.Transfer.Skip | Isa.Transfer.Return | Isa.Transfer.Stop -> ());
    (* Where the [ret]s executing inside a node's region deliver: the
       continuation of every call site targeting it, closed over tail
       jumps — a ret reached through [g] tail-jumping into [f] also
       returns to g's callers. *)
    let delivery = Hashtbl.create 256 in
    let add key addr =
      let cur = match Hashtbl.find_opt delivery key with Some l -> l | None -> [] in
      if List.mem addr cur then false
      else begin
        Hashtbl.replace delivery key (addr :: cur);
        true
      end
    in
    Hashtbl.iter
      (fun _ g ->
        List.iter
          (fun s -> List.iter (fun t -> ignore (add (owner_of t) s.site_ret)) s.targets)
          g.calls)
      nodes;
    let changed = ref true in
    while !changed do
      changed := false;
      Hashtbl.iter
        (fun gkey g ->
          let gdel = match Hashtbl.find_opt delivery gkey with Some l -> l | None -> [] in
          if gdel <> [] then
            List.iter
              (fun s ->
                List.iter
                  (fun t ->
                    let fkey = owner_of t in
                    if fkey <> gkey then
                      List.iter (fun a -> if add fkey a then changed := true) gdel)
                  s.targets)
              g.tails)
        nodes
    done;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) delivery [] in
    List.iter
      (fun k -> Hashtbl.replace delivery k (List.sort compare (Hashtbl.find delivery k)))
      keys;
    { owner_of; icall_targets; ret_delivery = delivery }
end
