(* The campaign engine: pool scheduling, deterministic seed derivation,
   wall-clock helper, telemetry merge semantics, and the two ported
   evaluation loops (survival census, Monte Carlo grid) — all asserted
   bit-identical across job counts. *)

module Pool = Mavr_campaign.Pool
module Engine = Mavr_campaign.Engine
module Clock = Mavr_campaign.Clock
module Metrics = Mavr_telemetry.Metrics
module Survival = Mavr_analysis.Survival
module Montecarlo = Mavr_sim.Montecarlo
module Rng = Mavr_prng.Splitmix
module Randomize = Mavr_core.Randomize
module Gadget = Mavr_core.Gadget
module Isa = Mavr_avr.Isa
module Opcode = Mavr_avr.Opcode
module Image = Mavr_obj.Image

(* ---- pool ----------------------------------------------------------- *)

let test_pool_covers_all_indices () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let tasks = 1000 in
      let hits = Array.make tasks 0 in
      (* Each slot is written by exactly one task, so no data race. *)
      Pool.run pool ~tasks (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index ran exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_more_tasks_than_domains () =
  (* 8 requested jobs on however few cores: far more tasks than domains,
     uneven chunks. *)
  Pool.with_pool ~jobs:8 (fun pool ->
      let tasks = 97 in
      let out = Array.make tasks 0 in
      Pool.run pool ~tasks (fun i -> out.(i) <- (i * i) + 1);
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) ((i * i) + 1) v)
        out)

let test_pool_reuse_across_runs () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let a = Array.make 10 0 and b = Array.make 200 0 in
      Pool.run pool ~tasks:10 (fun i -> a.(i) <- i);
      Pool.run pool ~tasks:200 (fun i -> b.(i) <- 2 * i);
      Alcotest.(check int) "first run landed" 9 a.(9);
      Alcotest.(check int) "second run landed" 398 b.(199))

let test_pool_exceptions_surfaced () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let ran = Array.make 50 false in
          let failing = [ 13; 7; 31 ] in
          match
            Pool.run pool ~tasks:50 (fun i ->
                ran.(i) <- true;
                if List.mem i failing then failwith (Printf.sprintf "task %d" i))
          with
          | () -> Alcotest.fail "expected Task_failed"
          | exception Pool.Task_failed { index; exn; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "lowest failing index surfaces (jobs=%d)" jobs)
                7 index;
              (match exn with
              | Failure m -> Alcotest.(check string) "original exception kept" "task 7" m
              | _ -> Alcotest.fail "unexpected exception payload");
              Alcotest.(check bool) "failures do not cancel other tasks" true
                (Array.for_all Fun.id ran)))
    [ 1; 4 ]

let test_pool_zero_tasks_and_caps () =
  Pool.with_pool ~jobs:2 (fun pool -> Pool.run pool ~tasks:0 (fun _ -> Alcotest.fail "ran"));
  Alcotest.check_raises "jobs < 1 refused" (Invalid_argument "Campaign.Pool.create: jobs must be >= 1")
    (fun () -> Pool.with_pool ~jobs:0 ignore);
  Pool.with_pool ~jobs:1000 (fun pool ->
      Alcotest.(check bool) "job count capped" true (Pool.jobs pool <= Pool.max_jobs))

(* ---- engine determinism -------------------------------------------- *)

(* Every task of the schedule through [Engine.iter_indices], each result
   placed in its index's slot. *)
let engine_results ~jobs ~seed ~tasks f =
  let out = Array.make tasks None in
  Engine.iter_indices ~jobs ~seeds:(Engine.task_seeds ~seed ~tasks)
    ~indices:(Array.init tasks Fun.id) (fun ~index ~rng -> out.(index) <- Some (f ~index ~rng));
  out

let test_engine_jobs_invariant () =
  let run jobs =
    engine_results ~jobs ~seed:99 ~tasks:64 (fun ~index ~rng ->
        (* Consume task-local randomness so scheduling bugs would show. *)
        let a = Rng.int rng 1_000_000 in
        let b = Rng.int rng 1_000_000 in
        (index, a, b))
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool) "jobs=1 and jobs=4 bit-identical" true (r1 = r4)

let test_engine_seed_sensitivity () =
  let run seed = engine_results ~jobs:2 ~seed ~tasks:16 (fun ~index:_ ~rng -> Rng.next rng) in
  Alcotest.(check bool) "different roots, different streams" true (run 1 <> run 2);
  Alcotest.(check bool) "same root, same stream" true (run 5 = run 5)

let test_task_seeds_disjoint_from_legacy () =
  let seeds = Engine.task_seeds ~seed:0 ~tasks:64 in
  let distinct = List.sort_uniq compare (Array.to_list seeds) in
  Alcotest.(check int) "seeds pairwise distinct" 64 (List.length distinct);
  (* The old census hardcoded seeds 1..K, the same hand-picked range the
     tests/examples use; the derived schedule must stay clear of it. *)
  Alcotest.(check bool) "no seed in the hand-picked 0..1000 range" true
    (Array.for_all (fun s -> s > 1000) seeds)

(* ---- clock ---------------------------------------------------------- *)

let test_clock_monotonic () =
  let a = Clock.wall () in
  let b = Clock.wall () in
  Alcotest.(check bool) "wall never steps back" true (b >= a);
  let (), span = Clock.time (fun () -> Sys.opaque_identity (ignore (Array.init 1000 Fun.id))) in
  Alcotest.(check bool) "span nonnegative" true (span.Clock.wall_s >= 0.0 && span.Clock.cpu_s >= 0.0)

(* ---- Metrics.merge -------------------------------------------------- *)

(* A registry with pseudo-random contents drawn from [rng]: a few fixed
   names per kind so merges overlap, values random. *)
let random_registry rng =
  let r = Metrics.create () in
  for i = 0 to 2 do
    let c = Metrics.counter r (Printf.sprintf "c%d" i) in
    Metrics.add c (Rng.int rng 1000);
    let g = Rng.int rng 1000 in
    Metrics.sampled r (Printf.sprintf "g%d" i) (fun () -> g);
    let h = Metrics.histogram r (Printf.sprintf "h%d" i) in
    for _ = 1 to Rng.int rng 5 do
      Metrics.observe h (Rng.int rng 1000)
    done
  done;
  r

let merged rs =
  let acc = Metrics.create () in
  List.iter (fun r -> Metrics.merge ~into:acc r) rs;
  Metrics.snapshot acc

let test_merge_commutative_associative () =
  let rng = Rng.create ~seed:0xFEED in
  for _ = 1 to 50 do
    let a = random_registry rng and b = random_registry rng and c = random_registry rng in
    Alcotest.(check bool) "A+B = B+A" true (merged [ a; b ] = merged [ b; a ]);
    (* (A+B)+C vs A+(B+C): materialize B+C into a registry first. *)
    let bc = Metrics.create () in
    Metrics.merge ~into:bc b;
    Metrics.merge ~into:bc c;
    Alcotest.(check bool) "(A+B)+C = A+(B+C)" true (merged [ a; b; c ] = merged [ a; bc ])
  done

let test_merge_semantics () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "n") 3;
  Metrics.add (Metrics.counter b "n") 4;
  Metrics.sampled a "w" (fun () -> 10);
  Metrics.sampled b "w" (fun () -> 7);
  Metrics.observe (Metrics.histogram a "h") 5;
  Metrics.observe (Metrics.histogram b "h") 9;
  let acc = Metrics.create () in
  Metrics.merge ~into:acc a;
  Metrics.merge ~into:acc b;
  let find name = List.assoc name (Metrics.snapshot acc) in
  Alcotest.(check bool) "counters add" true (find "n" = Metrics.Counter_value 7);
  Alcotest.(check bool) "gauges max" true (find "w" = Metrics.Gauge_value 10);
  (match find "h" with
  | Metrics.Histogram_value s ->
      Alcotest.(check int) "histogram count" 2 s.count;
      Alcotest.(check int) "histogram sum" 14 s.sum;
      Alcotest.(check int) "histogram min" 5 s.min;
      Alcotest.(check int) "histogram max" 9 s.max
  | _ -> Alcotest.fail "h not a histogram")

let test_merge_sampled_materialized () =
  let live = ref 42 in
  let src = Metrics.create () in
  Metrics.sampled src "s" (fun () -> !live);
  let acc = Metrics.create () in
  Metrics.merge ~into:acc src;
  live := 0;
  (* The merged value was read at merge time; later sampler movement in
     the source must not affect the destination. *)
  Alcotest.(check bool) "sampled materialized as gauge" true
    (List.assoc "s" (Metrics.snapshot acc) = Metrics.Gauge_value 42);
  let src2 = Metrics.create () in
  Metrics.sampled src2 "s" (fun () -> 50);
  Metrics.merge ~into:acc src2;
  Alcotest.(check bool) "materialized gauges combine by max" true
    (List.assoc "s" (Metrics.snapshot acc) = Metrics.Gauge_value 50)

let test_merge_mismatch_refused () =
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.counter a "x");
  Metrics.sampled b "x" (fun () -> 0);
  (match Metrics.merge ~into:a b with
  | () -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  let dst = Metrics.create () in
  Metrics.sampled dst "s" (fun () -> 1);
  let src = Metrics.create () in
  Metrics.sampled src "s" (fun () -> 5);
  match Metrics.merge ~into:dst src with
  | () -> Alcotest.fail "merge into sampled accepted"
  | exception Invalid_argument _ -> ()

(* ---- survival census on the engine ---------------------------------- *)

let mavr_image () = (Helpers.build_mavr ()).image

let test_census_jobs_invariant () =
  let img = mavr_image () in
  let c1 = Survival.census ~seed:(Root 7) ~jobs:1 ~layouts:6 img in
  let c4 = Survival.census ~seed:(Root 7) ~jobs:4 ~layouts:6 img in
  Alcotest.(check bool) "census bit-identical across job counts" true (c1 = c4)

let test_census_root_seeds () =
  let img = mavr_image () in
  let c = Survival.census ~seed:(Root 3) ~jobs:2 ~layouts:4 img in
  Alcotest.(check bool) "schedule is the root's task seeds" true
    (c.layout_seeds = Engine.task_seeds ~seed:3 ~tasks:4);
  (* The parallel census must match the sequential reference
     computation: layout i randomized with its seed and counted alone. *)
  let base = Gadget.scan img in
  let expected =
    Array.init 4 (fun i ->
        let candidate = Randomize.randomize ~seed:c.layout_seeds.(i) img in
        List.fold_left
          (fun n g -> if Survival.gadget_survives ~candidate g then n + 1 else n)
          0 base)
  in
  Alcotest.(check bool) "survivors match sequential reference" true
    (c.survivors_per_layout = expected)

let test_census_roots_sample_disjoint_layouts () =
  let img = mavr_image () in
  let a = Survival.census ~seed:(Root 0) ~layouts:3 img in
  let b = Survival.census ~seed:(Root 1) ~layouts:3 img in
  Alcotest.(check bool) "different roots draw different layout seeds" true
    (a.layout_seeds <> b.layout_seeds);
  Alcotest.(check bool) "derived seeds avoid the legacy 1..K range" true
    (Array.for_all (fun s -> s > 1000) a.layout_seeds)

(* ---- chain_at at the image edge ------------------------------------- *)

let test_chain_at_image_edge () =
  let img = mavr_image () in
  (* An image whose very last word is the first word of a 32-bit call:
     the decoder's truncation contract turns it into [Data], and the
     chain walk must stop at the edge instead of reading past it. *)
  let call_bytes = Opcode.encode_bytes (Isa.Call 0x100) in
  let truncated = String.sub call_bytes 0 2 in
  let code = String.concat "" [ Opcode.encode_bytes Isa.Nop; truncated ] in
  let edge = { img with Image.code } in
  let at = String.length code - 2 in
  (match Survival.chain_at edge at with
  | [ Isa.Data _ ] -> ()
  | chain ->
      Alcotest.failf "expected a single truncated Data, got %d instructions"
        (List.length chain));
  Alcotest.(check bool) "walk from the nop terminates at the edge" true
    (List.length (Survival.chain_at edge 0) = 2);
  Alcotest.(check bool) "offset past the end yields the empty chain" true
    (Survival.chain_at edge (String.length code) = [])

(* ---- Monte Carlo grid ----------------------------------------------- *)

let grid = lazy (Montecarlo.run ~jobs:1 ~ms:600 ~seed:11 ~trials:1 (Helpers.build_mavr ()))

let test_grid_jobs_invariant () =
  let g1 = Lazy.force grid in
  let g2 = Montecarlo.run ~jobs:4 ~ms:600 ~seed:11 ~trials:1 (Helpers.build_mavr ()) in
  Alcotest.(check bool) "cells bit-identical across job counts" true
    (g1.levels = g2.levels);
  Alcotest.(check bool) "merged metrics snapshots identical" true
    (Metrics.snapshot g1.metrics = Metrics.snapshot g2.metrics);
  Alcotest.(check string) "deterministic JSON identical"
    (Mavr_telemetry.Json.to_string (Montecarlo.to_json g1))
    (Mavr_telemetry.Json.to_string (Montecarlo.to_json g2))

let test_grid_effectiveness_semantics () =
  let g = Lazy.force grid in
  let cell d a =
    Array.to_list (Montecarlo.cells g)
    |> List.find (fun (c : Montecarlo.cell) -> c.defense = d && c.attack = a)
  in
  (* The paper's headline row: the stealthy V2 takes over the unprotected
     board and never the MAVR-defended one. *)
  let v2_open = cell Montecarlo.Undefended Montecarlo.V2 in
  Alcotest.(check int) "V2 owns the undefended board" v2_open.trials v2_open.takeovers;
  Alcotest.(check int) "no takeover under MAVR (any attack)" 0
    (Montecarlo.takeovers g Montecarlo.Mavr_defense);
  Alcotest.(check int) "no takeover under software-only diversification" 0
    (Montecarlo.takeovers g Montecarlo.Software_only)

(* ---- campaign spec codec -------------------------------------------- *)

module Spec = Mavr_sim.Campaign_spec
module J = Mavr_telemetry.Json
module Profile = Mavr_firmware.Profile
module Faults = Mavr_fault.Profile

let decode s =
  match J.of_string s with Ok j -> Spec.of_json j | Error e -> Alcotest.failf "bad JSON %s: %s" s e

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_spec_defaults () =
  (* An empty request is the `campaign` command with no flags. *)
  match Spec.of_json (J.Obj []) with
  | Error m -> Alcotest.fail m
  | Ok s ->
      Alcotest.(check bool) "= Spec.default" true (s = Spec.default);
      Alcotest.(check string) "profile" "tiny-100" s.profile.Profile.name;
      Alcotest.(check int) "profile seed" 2024 s.profile.Profile.seed;
      Alcotest.(check (list int)) "trials, ms, layouts, seed" [ 5; 900; 10; 0 ]
        [ s.trials; s.ms; s.layouts; s.seed ];
      Alcotest.(check string) "faults" "none" s.faults.Faults.name;
      Alcotest.(check bool) "no early stop" true (s.early_stop = None)

let test_spec_accepts () =
  let ok req check =
    match decode req with Ok s -> check s | Error m -> Alcotest.failf "%s rejected: %s" req m
  in
  List.iter
    (fun (p : Profile.t) ->
      ok (Printf.sprintf {|{"profile":%S}|} p.name) (fun s ->
          Alcotest.(check bool) ("printed name " ^ p.name) true (s.profile = p));
      ok (Printf.sprintf {|{"profile":%S}|} (String.lowercase_ascii p.name)) (fun s ->
          Alcotest.(check bool) ("lower-case name " ^ p.name) true (s.profile = p)))
    Profile.all;
  List.iter
    (fun name ->
      ok (Printf.sprintf {|{"profile":%S}|} name) (fun s ->
          Alcotest.(check bool) name true (s.profile = Profile.tiny ~n:60 ~seed:2024)))
    [ "60"; "tiny-60" ];
  (* The largest count the cheap flash bound lets through; whether its
     image fits is the campaign's exact check on the build. *)
  ok {|{"profile":"21845"}|} (fun s ->
      Alcotest.(check int) "largest count the bound passes" 21845 s.profile.n_functions);
  (* A dispatch shard request is a spec plus [shard]; any other extra
     member is refused (see test_spec_rejects). *)
  ok {|{"trials":2,"layouts":0,"shard":{"lo":0,"hi":1}}|} (fun s ->
      Alcotest.(check (pair int int)) "shard member accepted" (2, 0) (s.trials, s.layouts));
  (match decode {|{"trials":2,"layouts":0,"bogus":[1],"shard":{"lo":0,"hi":1}}|} with
  | Ok _ -> Alcotest.fail "unknown member bogus accepted"
  | Error m -> Alcotest.(check bool) ("error names bogus: " ^ m) true (contains ~sub:"bogus" m));
  ok {|{"faults":"lossy","early_stop":{"target_halfwidth":0.3}}|} (fun s ->
      Alcotest.(check string) "faults" "lossy" s.faults.Faults.name;
      match s.early_stop with
      | None -> Alcotest.fail "early_stop dropped"
      | Some e ->
          let module E = Mavr_campaign.Early_stop in
          Alcotest.(check (list (float 0.))) "policy defaults" [ 0.3; 1.96; 8.; 4. ]
            [ E.target e; E.z e; float_of_int (E.min_trials e); float_of_int (E.batch e) ])

let test_spec_rejects () =
  (* Each malformed request is an error naming the offending member —
     never a silent default. *)
  List.iter
    (fun (req, field) ->
      match decode req with
      | Ok _ -> Alcotest.failf "%s accepted" req
      | Error m ->
          if not (contains ~sub:field m) then Alcotest.failf "%s: error %S does not name %s" req m field)
    [
      ({|{"trials":"2"}|}, "trials");
      ({|{"seed":1.5}|}, "seed");
      ({|{"ms":true}|}, "ms");
      ({|{"layouts":[2]}|}, "layouts");
      ({|{"profile":60}|}, "profile");
      ({|{"profile":"arduboat"}|}, "profile");
      ({|{"profile":"tiny-0"}|}, "profile");
      (* Too many functions to fit the flash: refused before any build. *)
      ({|{"profile":"100000000"}|}, "profile");
      ({|{"profile":"tiny-21846"}|}, "262144-byte flash");
      ({|{"faults":"hurricane"}|}, "faults");
      ({|{"faults":null}|}, "faults");
      ({|{"early_stop":0.3}|}, "early_stop");
      ({|{"early_stop":{}}|}, "target_halfwidth");
      ({|{"early_stop":{"z":2.0}}|}, "target_halfwidth");
      ({|{"early_stop":{"target_halfwidth":"0.3"}}|}, "target_halfwidth");
      ({|{"early_stop":{"target_halfwidth":0.3,"z":"wide"}}|}, "z");
      ({|{"early_stop":{"target_halfwidth":0.3,"batch":1.5}}|}, "batch");
      ({|{"trials":0}|}, "trials");
      ({|{"ms":0}|}, "ms");
      ({|{"ms":-5}|}, "ms");
      ({|{"layouts":-1}|}, "layouts");
      ({|{"early_stop":{"target_halfwidth":1.5}}|}, "target_halfwidth");
      ({|{"early_stop":{"target_halfwidth":0.3,"z":0}}|}, "z");
      ({|{"early_stop":{"target_halfwidth":0.3,"min_trials":0}}|}, "min_trials");
      ({|{"early_stop":{"target_halfwidth":0.3,"batch":0}}|}, "batch");
      ({|[1,2]|}, "spec");
      (* A misspelled member would otherwise run a default campaign, and
         a repeated one would silently pick one of its values. *)
      ({|{"fautls":"stress"}|}, "fautls");
      ({|{"seed":1,"trials":2,"seed":2}|}, "seed");
      ({|{"early_stop":{"target_halfwidth":0.3,"bacth":2}}|}, "bacth");
      ({|{"early_stop":{"target_halfwidth":0.3,"z":2.0,"z":3.0}}|}, "z");
    ]

let spec_arb =
  let open QCheck.Gen in
  let profile =
    oneof [ oneofl Profile.all; map (fun n -> Profile.tiny ~n ~seed:2024) (int_range 1 500) ]
  in
  let early_stop =
    opt
      (let+ target = float_range 0.01 0.99
       and+ z = float_range 0.5 4.0
       and+ min_trials = int_range 1 32
       and+ batch = int_range 1 16 in
       Mavr_campaign.Early_stop.create ~z ~min_trials ~batch ~target ())
  in
  let gen =
    let+ profile = profile
    and+ trials = int_range 1 64
    and+ ms = int_range 1 5000
    and+ layouts = int_range 0 20
    and+ seed = int
    and+ faults = oneofl Faults.all
    and+ early_stop = early_stop in
    { Spec.profile; trials; ms; layouts; seed; faults; early_stop }
  in
  QCheck.make ~print:(fun s -> J.to_string (Spec.to_json s)) gen

(* The codec round-trips through the wire's bytes, and the decoded spec
   binds the same checkpoint spec as the one it was encoded from — the
   equality that lets a worker's streamed header validate at the
   dispatcher. *)
let prop_spec_roundtrip =
  QCheck.Test.make ~name:"of_json (to_json s) = Ok s, same checkpoint spec" ~count:300 spec_arb
    (fun s ->
      match Result.bind (J.of_string (J.to_string (Spec.to_json s))) Spec.of_json with
      | Error m -> QCheck.Test.fail_report m
      | Ok s' -> s' = s && Spec.checkpoint_spec s' = Spec.checkpoint_spec s)

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "covers all indices" `Quick test_pool_covers_all_indices;
          Alcotest.test_case "more tasks than domains" `Quick test_pool_more_tasks_than_domains;
          Alcotest.test_case "reuse across runs" `Quick test_pool_reuse_across_runs;
          Alcotest.test_case "exceptions surfaced, lowest index" `Quick
            test_pool_exceptions_surfaced;
          Alcotest.test_case "zero tasks, job caps" `Quick test_pool_zero_tasks_and_caps;
        ] );
      ( "engine",
        [
          Alcotest.test_case "jobs-invariant map" `Quick test_engine_jobs_invariant;
          Alcotest.test_case "seed sensitivity" `Quick test_engine_seed_sensitivity;
          Alcotest.test_case "task seeds disjoint from legacy" `Quick
            test_task_seeds_disjoint_from_legacy;
        ] );
      ("clock", [ Alcotest.test_case "monotonic wall clock" `Quick test_clock_monotonic ]);
      ( "merge",
        [
          Alcotest.test_case "commutative + associative" `Quick
            test_merge_commutative_associative;
          Alcotest.test_case "per-kind semantics" `Quick test_merge_semantics;
          Alcotest.test_case "sampled materialized once" `Quick test_merge_sampled_materialized;
          Alcotest.test_case "kind mismatch refused" `Quick test_merge_mismatch_refused;
        ] );
      ( "census",
        [
          Alcotest.test_case "jobs-invariant" `Quick test_census_jobs_invariant;
          Alcotest.test_case "root seed schedule" `Quick test_census_root_seeds;
          Alcotest.test_case "root seeds sample fresh layouts" `Quick
            test_census_roots_sample_disjoint_layouts;
          Alcotest.test_case "chain_at stops at image edge" `Quick test_chain_at_image_edge;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "jobs-invariant grid" `Slow test_grid_jobs_invariant;
          Alcotest.test_case "effectiveness semantics" `Slow test_grid_effectiveness_semantics;
        ] );
      ( "spec",
        [
          Alcotest.test_case "empty request = CLI defaults" `Quick test_spec_defaults;
          Alcotest.test_case "accepted forms" `Quick test_spec_accepts;
          Alcotest.test_case "malformed members name the field" `Quick test_spec_rejects;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
    ]
