(* Property: randomization preserves behaviour on arbitrary programs.

   The firmware-level equivalence tests exercise one (large) program; here
   we generate many small random programs — random call DAGs, stores,
   function-pointer dispatch — randomize each with several permutations,
   run original and randomized to completion, and require identical final
   machine state.  This is the strongest correctness statement about
   Shuffle+Stream_patch. *)

module Asm = Mavr_asm.Assembler
module Isa = Mavr_avr.Isa
module Cpu = Mavr_avr.Cpu
module Image = Mavr_obj.Image
module Rng = Mavr_prng.Splitmix

let i x = Asm.Insn x

(* Generate one random function.  Functions may only call higher-indexed
   functions (a DAG, no recursion); the last function is a leaf.  Bodies
   work exclusively on r16..r23: the upper registers legitimately carry
   addresses (Z and the loaded pointer bytes), which are layout-dependent
   by design and must not leak into the compared state. *)
let gen_function rng ~idx ~count =
  let name = Printf.sprintf "r%03d" idx in
  let body = ref [] in
  let emit it = body := it :: !body in
  let reg () = 16 + Rng.int rng 8 in
  let n_units = 2 + Rng.int rng 6 in
  for _ = 1 to n_units do
    match Rng.int rng 6 with
    | 0 -> emit (i (Isa.Ldi (reg (), Rng.int rng 256)))
    | 1 -> emit (i (Isa.Subi (reg (), Rng.int rng 256)))
    | 2 -> emit (i (Isa.Sts (0x600 + Rng.int rng 64, reg ())))
    | 3 -> emit (i (Isa.Add (reg (), reg ())))
    | 4 when idx + 1 < count ->
        emit (Asm.Call_sym (Printf.sprintf "r%03d" (idx + 1 + Rng.int rng (count - idx - 1))))
    | _ -> emit (i (Isa.Eor (reg (), reg ())))
  done;
  { Asm.name; items = List.rev (i Isa.Ret :: !body) }

let gen_program seed ~count =
  let rng = Rng.create ~seed in
  let funcs = List.init count (fun idx -> gen_function rng ~idx ~count) in
  let main =
    {
      Asm.name = "main";
      items =
        [
          (* init SP *)
          i (Isa.Ldi (28, 0xFF));
          i (Isa.Ldi (29, 0x21));
          i (Isa.Out (0x3D, 28));
          i (Isa.Out (0x3E, 29));
        ]
        @ List.concat_map
            (fun k -> [ Asm.Call_sym (Printf.sprintf "r%03d" k) ])
            (List.init (min 4 count) (fun j -> j * count / max 1 (min 4 count)))
        @ [
            (* Indirect call through the data-section function pointer
               (LDI-encoded code addresses are exactly what the compiler
               never emits and the randomizer never patches, §VI-B2 —
               so load the pointer from flash like a vtable dispatch). *)
            Asm.Ldi_sym (30, Asm.Lo8, "__data_load_start");
            Asm.Ldi_sym (31, Asm.Hi8, "__data_load_start");
            i (Isa.Lpm (24, true));
            i (Isa.Lpm (25, false));
            i (Isa.Movw (30, 24));
            i Isa.Icall;
            (* r24/r25 held the pointer bytes (address-valued): clear them
               so the final-state comparison sees only layout-independent
               data. *)
            i (Isa.Ldi (24, 0));
            i (Isa.Ldi (25, 0));
            i Isa.Break;
          ];
    }
  in
  let program =
    {
      Asm.vectors = [ Asm.Jmp_sym "main" ];
      funcs = main :: funcs;
      data = [ Asm.Word_sym (Printf.sprintf "r%03d" (count / 2)) ];
      defines = [];
    }
  in
  Image.of_assembly (Asm.assemble ~relax:false program)

(* Run to halt and fingerprint the observable state.  Z (r30/r31) is
   excluded: it legitimately holds a function's word address (loaded for
   the icall), which is exactly what randomization changes. *)
let run_state image =
  let cpu = Cpu.create () in
  Cpu.load_program cpu image.Image.code;
  let r = Cpu.run cpu ~max_cycles:200_000 in
  (* Compare r0..r23: the pointer registers (r24/r25 and Z) hold layout-
     dependent addresses by design. *)
  let regs = List.init 24 (Cpu.reg cpu) in
  let mem = Cpu.stack_slice cpu ~pos:0x600 ~len:64 in
  let tag = match r with `Halted Cpu.Break_hit -> "break" | _ -> "other" in
  (tag, regs, mem, Cpu.sp cpu, Cpu.cycles cpu)

let fst5 (a, _, _, _, _) = a

let prop_random_programs =
  QCheck.Test.make ~name:"randomize preserves behaviour on random programs" ~count:40
    QCheck.(pair (int_range 1 1_000_000) (int_range 3 25))
    (fun (seed, count) ->
      let count = max 3 count (* guard against out-of-range shrink candidates *) in
      let img = gen_program seed ~count in
      let reference = run_state img in
      let ok = ref (fst5 reference = "break") in
      for rseed = 1 to 3 do
        let r = Mavr_core.Randomize.randomize ~seed:(seed + rseed) img in
        if run_state r <> reference then ok := false
      done;
      !ok)

let prop_structure =
  QCheck.Test.make ~name:"structure verified on random programs" ~count:30
    QCheck.(pair (int_range 1 1_000_000) (int_range 3 20))
    (fun (seed, count) ->
      let count = max 3 count in
      let img = gen_program seed ~count in
      let r = Mavr_core.Randomize.randomize ~seed:(seed * 7) img in
      match Mavr_core.Randomize.verify_structure ~original:img ~randomized:r with
      | Ok () -> true
      | Error _ -> false)

let prop_identity_is_noop =
  QCheck.Test.make ~name:"identity permutation is byte-identical" ~count:20
    QCheck.(pair (int_range 1 1_000_000) (int_range 3 15))
    (fun (seed, count) ->
      let count = max 3 count in
      let img = gen_program seed ~count in
      let id = Mavr_core.Shuffle.identity img in
      (Mavr_core.Randomize.with_order img id.order).Image.code = img.Image.code)

(* Unlike the firmware profiles, whose vtables point at vector-block
   stubs, these programs store a data-section pointer into the text
   section, so this holds the plan's call and pointer rewrites, and its
   ledger at two page sizes, to the oracle over many programs. *)
let prop_plan_matches_oracle =
  QCheck.Test.make ~name:"plan + layout equal the streaming oracle on random programs" ~count:60
    QCheck.(triple (int_range 1 1_000_000) (int_range 3 25) bool)
    (fun (seed, count, small_pages) ->
      let count = max 3 count in
      let img = gen_program seed ~count in
      let shuffle = Mavr_core.Shuffle.draw ~rng:(Rng.create ~seed:(seed + 1)) img in
      Stream_oracle.agrees img shuffle ~page_bytes:(if small_pages then 16 else 256))

let () =
  Alcotest.run "patch-property"
    [
      ( "properties",
        List.map Helpers.qtest
          [ prop_random_programs; prop_structure; prop_identity_is_noop; prop_plan_matches_oracle ] );
    ]
