module Cpu = Mavr_avr.Cpu
module Image = Mavr_obj.Image
module F = Mavr_firmware
module Rop = Mavr_core.Rop
module Randomize = Mavr_core.Randomize
module Master = Mavr_core.Master
module Metrics = Mavr_telemetry.Metrics
module Json = Mavr_telemetry.Json
module Splitmix = Mavr_prng.Splitmix
module Engine = Mavr_campaign.Engine
module Progress = Mavr_campaign.Progress
module Checkpoint = Mavr_campaign.Checkpoint
module Early_stop = Mavr_campaign.Early_stop
module Span = Mavr_telemetry.Span
module Fault = Mavr_fault

type defense = Undefended | Software_only | Mavr_defense
type attack = V1 | V2 | V3

let defenses = [| Undefended; Software_only; Mavr_defense |]
let attacks = [| V1; V2; V3 |]
let defense_name = function Undefended -> "undefended" | Software_only -> "software_only" | Mavr_defense -> "mavr"
let attack_name = function V1 -> "v1" | V2 -> "v2" | V3 -> "v3"

(* The value every attack tries to plant in the gyro calibration — the
   paper's §IV-C "continuous effect" target. *)
let hijack_value = 0x4141

type outcome = {
  takeover : bool;
  detected : bool;
  halted : bool;
  detect_ms : float option;  (** ms from injection to first detection *)
  gcs_alarm_count : int;
  master_detections : int;
}

type cell = {
  defense : defense;
  attack : attack;
  trials : int;
  skipped : int;
  takeovers : int;
  detections : int;
  halts : int;
  detect_n : int;
  detect_ms_sum : float;
  detect_ms_max : float;
}

(* Control flights: same posture, same faults, no attack.  Anything the
   pipeline flags here is a false alarm, so these rows are the
   denominator of the §VII-A detection claims under noise. *)
type control = {
  posture : defense;
  flights : int;
  skipped : int;
  alarmed : int;
  alarms_total : int;
  recoveries : int;
  crashed : int;
  first_alarm_n : int;
  first_alarm_ms_sum : float;
}

type level_result = {
  level : Fault.Profile.level;
  cells : cell array;  (** 9 cells, defense-major then attack order *)
  controls : control array;  (** one per defense, same order *)
}

type t = {
  seed : int;
  trials : int;
  ms : int;
  profile : string;  (** fault profile name *)
  levels : level_result array;  (** one per profile level; [0] is clean *)
  metrics : Metrics.registry;  (** all per-trial worker registries, merged *)
  early_stop : Early_stop.t option;
  trials_skipped : int;  (** total trials not run across all cells *)
}

(* ---- one trial ----------------------------------------------------- *)

let gyro_cfg cpu =
  Cpu.data_peek cpu F.Layout.gyro_cfg lor (Cpu.data_peek cpu (F.Layout.gyro_cfg + 1) lsl 8)

let detected_now s =
  (match Scenario.master s with Some m -> Master.attacks_detected m > 0 | None -> false)
  || Groundstation.attack_suspected (Scenario.gcs s)

(* [firmware] is the campaign's seed image, its relocation plan (for
   software-only layouts) and the master's stored value, all made once
   per campaign and shared read-only by every trial. *)
type firmware = { image : Image.t; plan : Mavr_core.Stream_patch.plan; stored : Master.stored }

let trial ?lanes ~firmware ~inject ~defense ~level ~ms ~rng () =
  (* [lanes] = (host lane, cycles lane): the host lane gets the
     boot/warmup/flight phase spans, the cycles lane receives the rig's
     flight-recorder window at the end (flash-session phases, inject and
     alarm events, cycle-stamped and fully deterministic).  Tracing must
     not perturb the trial: no draw from [rng] depends on it. *)
  let sp name f = match lanes with None -> f () | Some (hl, _) -> Span.span hl name f in
  (* The fault seed is drawn first, unconditionally, so the remaining
     stream (layout seed, master seed) is the same whether or not this
     level actually arms the injector. *)
  let fault_seed = Splitmix.next rng in
  let faults =
    if Fault.Profile.level_is_off level then None
    else Some (Fault.Injector.create ~seed:fault_seed level)
  in
  let registry = Metrics.create () in
  let s, probes =
    sp "boot" (fun () ->
        let { image; plan; stored } = firmware in
        let image, kind =
          match defense with
          | Undefended -> (image, Scenario.No_defense)
          | Software_only ->
              (* §VIII-A: diversified once at flash time, no master watching. *)
              let rng = Splitmix.create ~seed:(Splitmix.next rng) in
              (Mavr_core.Stream_patch.layout plan (Mavr_core.Shuffle.draw ~rng image), Scenario.No_defense)
          | Mavr_defense ->
              ( image,
                Scenario.Mavr
                  {
                    Master.default_config with
                    watchdog_window_cycles = 20_000;
                    seed = Splitmix.next rng;
                  } )
        in
        let s = Scenario.create ?faults ~stored ~image kind in
        (s, Scenario.attach_telemetry s ~registry))
  in
  let warmup = max 1 (ms / 3) in
  sp "warmup" (fun () -> Scenario.run s ~ms:(float_of_int warmup));
  (match inject with
  | Some frames ->
      (match lanes with
      | Some (hl, _) ->
          Span.instant hl ~args:[ ("frames", Json.Int (List.length frames)) ] "inject"
      | None -> ());
      Scenario.inject s frames
  | None -> ());
  (* Advance in small slices so the first detection gets a timestamp
     (resolution = [step] simulated ms). *)
  let step = 5 in
  let detect_ms = ref None in
  sp "flight" (fun () ->
      let remaining = ref (max 1 (ms - warmup)) in
      while !remaining > 0 do
        let slice = min step !remaining in
        Scenario.run s ~ms:(float_of_int slice);
        remaining := !remaining - slice;
        if !detect_ms = None && detected_now s then
          detect_ms := Some (Scenario.now_ms s -. float_of_int warmup)
      done);
  (match (lanes, !detect_ms) with
  | Some (hl, _), Some dms -> Span.instant hl ~args:[ ("sim_ms", Json.Float dms) ] "detected"
  | _ -> ());
  (match lanes with
  | Some (_, cl) -> Span.of_recorder cl (Mavr_avr.Probes.flight_record probes)
  | None -> ());
  let outcome =
    {
      takeover = gyro_cfg (Scenario.app s) = hijack_value;
      detected = detected_now s;
      halted = Cpu.halted (Scenario.app s) <> None;
      detect_ms = !detect_ms;
      gcs_alarm_count = List.length (Groundstation.alarms (Scenario.gcs s));
      master_detections =
        (match Scenario.master s with Some m -> Master.attacks_detected m | None -> 0);
    }
  in
  (* Sampled cells close over the rig (CPU, both flashes, compiled
     blocks); materializing them now lets the rig die with this frame. *)
  let owned = Metrics.create () in
  Metrics.merge ~into:owned registry;
  (outcome, owned)

(* ---- checkpoint codec ------------------------------------------------ *)

(* A task's checkpoint payload is everything the join needs: the outcome,
   the trial's merged-in metrics registry, and — when tracing — the two
   per-trial lanes (host lane persisted in its timing-stripped form, the
   cycles lane exactly).  Floats round-trip exactly through the Json
   codec, so a resumed run's final document is byte-identical. *)

let outcome_to_json o =
  Json.Obj
    ([
       ("takeover", Json.Bool o.takeover);
       ("detected", Json.Bool o.detected);
       ("halted", Json.Bool o.halted);
     ]
    @ (match o.detect_ms with None -> [] | Some v -> [ ("detect_ms", Json.Float v) ])
    @ [
        ("gcs_alarm_count", Json.Int o.gcs_alarm_count);
        ("master_detections", Json.Int o.master_detections);
      ])

let outcome_of_json j =
  let bool k = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None in
  let int k = Option.bind (Json.member k j) Json.to_int in
  match
    ( bool "takeover",
      bool "detected",
      bool "halted",
      int "gcs_alarm_count",
      int "master_detections" )
  with
  | Some takeover, Some detected, Some halted, Some gcs_alarm_count, Some master_detections ->
      let detect_ms = Option.bind (Json.member "detect_ms" j) Json.to_float in
      Ok { takeover; detected; halted; detect_ms; gcs_alarm_count; master_detections }
  | _ -> Error "malformed outcome"

let task_result_to_json ?lanes (o, registry) =
  Json.Obj
    ([ ("outcome", outcome_to_json o); ("metrics", Metrics.to_json registry) ]
    @
    match lanes with
    | None -> []
    | Some (hl, cl) -> [ ("lanes", Json.List [ Span.lane_to_json hl; Span.lane_to_json cl ]) ])

let task_result_of_json ?tracer j =
  let ( let* ) = Result.bind in
  let* outcome =
    match Json.member "outcome" j with
    | Some oj -> outcome_of_json oj
    | None -> Error "missing outcome"
  in
  let* registry =
    match Json.member "metrics" j with
    | Some mj -> Metrics.of_json mj
    | None -> Error "missing metrics"
  in
  let* () =
    match (tracer, Json.member "lanes" j) with
    | None, _ -> Ok ()
    | Some tr, Some (Json.List lanes) ->
        List.fold_left
          (fun acc lj ->
            let* () = acc in
            let* (_ : Span.lane) = Span.lane_of_json tr lj in
            Ok ())
          (Ok ()) lanes
    | Some _, _ -> Error "tracing enabled but checkpoint entry has no lanes"
  in
  Ok (outcome, registry)

(* ---- task layout ----------------------------------------------------- *)

(* Fixed and index-addressed for jobs-invariance: the task space is a
   sequence of [trials]-sized cells, cell [c] owning tasks [c * trials]
   to [c * trials + trials - 1].  Per fault level come the nd*na attacked
   cells (defense-major), then the nd attack-free control cells. *)
let nd = Array.length defenses
let na = Array.length attacks
let cells_per_level = (nd * na) + nd
let cell_count ~faults = Array.length faults.Fault.Profile.levels * cells_per_level

(* Cell [c]'s fault level, defense and attack ([None] for a control). *)
let cell_coords c =
  let l = c / cells_per_level and r = c mod cells_per_level in
  if r < nd * na then (l, r / na, Some (r mod na)) else (l, r - (nd * na), None)

let checkpoint_spec ?(ms = 900) ?(faults = Fault.Profile.none) ?early_stop ?(traced = false)
    ~profile ~seed ~trials () =
  let tasks = cell_count ~faults * trials in
  let fields =
    [
      ("campaign", Json.String "montecarlo");
      ("profile", Json.String profile);
      ("fault_profile", Json.String faults.Fault.Profile.name);
      ("ms", Json.Int ms);
      ("trials", Json.Int trials);
      ("seed", Json.Int seed);
      ("traced", Json.Bool traced);
      ( "early_stop",
        match early_stop with
        | None -> Json.String "none"
        | Some es -> Json.Obj (Early_stop.to_json_fields es) );
    ]
  in
  { Checkpoint.spec_hash = Checkpoint.hash_fields fields; seed; tasks }

(* ---- the grid ------------------------------------------------------- *)

let attack_frames ti obs =
  let writes = [ Rop.write_u16 obs ~addr:F.Layout.gyro_cfg ~value:hijack_value ~neighbour:0 ] in
  function
  | V1 -> Rop.v1_basic ti obs ~writes
  | V2 -> Rop.v2_stealthy ti obs ~writes
  | V3 -> Rop.v3_execute ti obs ~chain_dest:F.Layout.free_region ~writes

(* Shared campaign driver: attacker analysis, checkpoint priming, the
   deterministic early-stop round loop and skip accounting — restricted
   to the cell range [cell_lo, cell_hi).  [run] drives every cell and
   folds the result document; [run_shard] drives one contiguous cell
   range and leaves its recorded entries in the checkpoint (a dispatcher
   merges shards by priming a fresh checkpoint with every shard's
   entries and re-running [run] over it, which executes zero trials).
   The global index space is the concatenation of [trials]-sized
   per-cell blocks in cell order (see [cell_coords]), and per-cell
   statistics ([key_stat]) read only that cell's own prefix, so a
   sharded run's per-cell early-stop trajectory is identical to the
   single-host one. *)
let drive ?pool ?jobs ~ms ~faults ?tracer ?progress ?early_stop ?checkpoint
    ~cell_range:(cell_lo, cell_hi) ~seed ~trials (build : F.Build.t) =
  if trials < 0 then invalid_arg "Montecarlo.run: negative trial count";
  let image = build.F.Build.image in
  let firmware = { image; plan = Randomize.plan image; stored = Master.store image } in
  (* The attacker's static + dynamic analysis of the unprotected binary
     happens once, in the coordinator; the resulting frames are immutable
     strings shared read-only by every trial. *)
  let ti = Rop.analyze build in
  let obs = Rop.observe ti in
  let frames = Array.map (attack_frames ti obs) attacks in
  let tasks = cell_count ~faults * trials in
  (* Running per-(defense, attack) tallies (summed across fault levels)
     for the progress heartbeat; atomics because worker domains bump
     them as trials land, in scheduling order. *)
  let tally = Array.init (nd * na) (fun _ -> (Atomic.make 0, Atomic.make 0, Atomic.make 0)) in
  let ctrl_flights = Atomic.make 0 and ctrl_alarmed = Atomic.make 0 in
  Option.iter
    (fun p ->
      Progress.on_heartbeat p (fun () ->
          let cells =
            Array.to_list
              (Array.mapi
                 (fun i (done_, det, tk) ->
                   let dn = Atomic.get done_ in
                   Json.Obj
                     [
                       ("defense", Json.String (defense_name defenses.(i / na)));
                       ("attack", Json.String (attack_name attacks.(i mod na)));
                       ("done", Json.Int dn);
                       ("detected", Json.Int (Atomic.get det));
                       ("takeovers", Json.Int (Atomic.get tk));
                       ( "detect_rate",
                         Json.Float
                           (if dn = 0 then 0.0
                            else float_of_int (Atomic.get det) /. float_of_int dn) );
                     ])
                 tally)
          in
          [
            ("cells", Json.List cells);
            ( "controls",
              Json.Obj
                [
                  ("flights", Json.Int (Atomic.get ctrl_flights));
                  ("alarmed", Json.Int (Atomic.get ctrl_alarmed));
                ] );
          ]))
    progress;
  let lanes_for tracer ~index ~cell_label =
    Option.map
      (fun tr ->
        let base = Printf.sprintf "trial-%05d %s" index cell_label in
        ( Span.lane tr ~sort:index base,
          Span.lane tr ~sort:index ~domain:Span.Cycles (base ^ " sim") ))
      tracer
  in
  (* Results land in a global index-addressed array; [None] slots are
     tasks not (yet) run — the uncompleted frontier of a resumed run, or
     trials an early-stopped cell never needed. *)
  let seeds = Engine.task_seeds ~seed ~tasks in
  let results : (outcome * Metrics.registry) option array = Array.make tasks None in
  let tally_outcome index o =
    match cell_coords (index / trials) with
    | _, d, Some ai ->
        let done_, det, tk = tally.((d * na) + ai) in
        Atomic.incr done_;
        if o.detected then Atomic.incr det;
        if o.takeover then Atomic.incr tk
    | _, _, None ->
        Atomic.incr ctrl_flights;
        if o.gcs_alarm_count > 0 then Atomic.incr ctrl_alarmed
  in
  (* Prime the frontier from the checkpoint: recorded results go back
     into their index slots (restoring their trace lanes when tracing),
     primed skips are ignored — the early-stop replay below re-derives
     every stop decision from the same deterministic results, so the
     trajectory is identical to the killed run's. *)
  (match checkpoint with
  | None -> ()
  | Some ck ->
      List.iter
        (fun (i, e) ->
          match e with
          | Checkpoint.Skip _ -> ()
          | Checkpoint.Result j -> (
              match task_result_of_json ?tracer j with
              | Ok ((o, _) as r) ->
                  results.(i) <- Some r;
                  tally_outcome i o
              | Error m -> raise (Checkpoint.Corrupt (Printf.sprintf "task %d: %s" i m))))
        (Checkpoint.entries ck));
  let body ~index ~rng =
    let l, d, attack = cell_coords (index / trials) in
    let level = faults.Fault.Profile.levels.(l) in
    let lname = level.Fault.Profile.name in
    let defense = defenses.(d) in
    let inject = Option.map (fun ai -> frames.(ai)) attack in
    let aname = match attack with Some ai -> attack_name attacks.(ai) | None -> "none" in
    let cell_label =
      Printf.sprintf "%s/%s/%s" lname (defense_name defense)
        (if attack = None then "control" else aname)
    in
    let span_args =
      [
        ("index", Json.Int index);
        ("level", Json.String lname);
        ("defense", Json.String (defense_name defense));
        ("attack", Json.String aname);
      ]
    in
    let lanes = lanes_for tracer ~index ~cell_label in
    let run_body () = trial ?lanes ~firmware ~inject ~defense ~level ~ms ~rng () in
    let ((o, _) as r) =
      match lanes with
      | None -> run_body ()
      | Some (hl, _) -> Span.span hl ~args:span_args "trial" run_body
    in
    results.(index) <- Some r;
    tally_outcome index o;
    match checkpoint with
    | None -> ()
    | Some ck -> Checkpoint.record ck ~index (task_result_to_json ?lanes r)
  in
  (* Ascending cell-major iteration yields ascending global indices. *)
  let ncells = cell_count ~faults in
  if cell_lo < 0 || cell_hi > ncells || cell_lo > cell_hi then
    invalid_arg
      (Printf.sprintf "Montecarlo: cell range [%d,%d) outside [0,%d)" cell_lo cell_hi ncells);
  let is_control c =
    let _, _, attack = cell_coords c in
    attack = None
  in
  (* Per-cell trial budget.  Without early stopping there is a single
     round at the full budget — exactly the old one-shot grid.  With it,
     every cell starts at min_trials and the driver runs deterministic
     rounds: run every open cell up to its target, then decide stops
     {e sequentially} from the completed per-cell prefixes and widen the
     survivors by one batch.  Decisions are a function of trial results
     only (never of scheduling), so early-stopped output is
     jobs-invariant and a resumed run replays the same trajectory. *)
  let target =
    Array.make ncells
      (match early_stop with
      | None -> trials
      | Some es -> min trials (Early_stop.min_trials es))
  in
  let stopped = Array.make ncells false in
  (* Successes among cell [c]'s first [n] trials: detections for
     attacked cells, alarmed flights (false alarms) for controls. *)
  let key_stat c n =
    let base = c * trials in
    let k = ref 0 in
    for j = 0 to n - 1 do
      match results.(base + j) with
      | Some (o, _) ->
          if is_control c then (if o.gcs_alarm_count > 0 then incr k)
          else if o.detected then incr k
      | None -> assert false
    done;
    !k
  in
  let continue_ = ref true in
  while !continue_ do
    let todo = ref [] in
    for c = cell_hi - 1 downto cell_lo do
      let base = c * trials in
      for j = target.(c) - 1 downto 0 do
        if results.(base + j) = None then todo := (base + j) :: !todo
      done
    done;
    let indices = Array.of_list !todo in
    if Array.length indices > 0 then Engine.iter_indices ?pool ?jobs ?progress ~seeds ~indices body;
    match early_stop with
    | None -> continue_ := false
    | Some es ->
        let expanded = ref false in
        for c = cell_lo to cell_hi - 1 do
          if (not stopped.(c)) && target.(c) < trials then begin
            let n = target.(c) in
            if Early_stop.should_stop es ~n ~k:(key_stat c n) then stopped.(c) <- true
            else begin
              target.(c) <- min trials (target.(c) + Early_stop.batch es);
              expanded := true
            end
          end
        done;
        continue_ := !expanded
  done;
  (* Explicit skipped-trial accounting: every index an early-stopped cell
     never ran is recorded (in the checkpoint too, as a skip entry, so
     the frontier stays gap-free for validators). *)
  let cell_skipped = Array.make ncells 0 in
  let trials_skipped = ref 0 in
  for c = cell_lo to cell_hi - 1 do
    let tgt = target.(c) in
    let sk = trials - tgt in
    if sk > 0 then begin
      cell_skipped.(c) <- sk;
      trials_skipped := !trials_skipped + sk;
      match checkpoint with
      | None -> ()
      | Some ck ->
          let base = c * trials in
          for j = tgt to trials - 1 do
            Checkpoint.skip ck ~index:(base + j) ~reason:"early_stop"
          done
    end
  done;
  (results, target, cell_skipped, !trials_skipped)

let run ?pool ?jobs ?(ms = 900) ?(faults = Fault.Profile.none) ?tracer ?progress ?early_stop
    ?checkpoint ~seed ~trials (build : F.Build.t) =
  let results, target, cell_skipped, trials_skipped =
    drive ?pool ?jobs ~ms ~faults ?tracer ?progress ?early_stop ?checkpoint
      ~cell_range:(0, cell_count ~faults) ~seed ~trials build
  in
  let metrics = Metrics.create () in
  Array.iter (function Some (_, r) -> Metrics.merge ~into:metrics r | None -> ()) results;
  let fold base n f init =
    let acc = ref init in
    for k = 0 to n - 1 do
      match results.(base + k) with
      | Some (o, _) -> acc := f !acc o
      | None -> assert false
    done;
    !acc
  in
  let cell l d a =
    let c = (l * cells_per_level) + (d * na) + a in
    let n = target.(c) in
    let fold f init = fold (c * trials) n f init in
    {
      defense = defenses.(d);
      attack = attacks.(a);
      trials = n;
      skipped = cell_skipped.(c);
      takeovers = fold (fun n o -> if o.takeover then n + 1 else n) 0;
      detections = fold (fun n o -> if o.detected then n + 1 else n) 0;
      halts = fold (fun n o -> if o.halted then n + 1 else n) 0;
      detect_n = fold (fun n o -> if o.detect_ms <> None then n + 1 else n) 0;
      detect_ms_sum = fold (fun s o -> s +. Option.value ~default:0.0 o.detect_ms) 0.0;
      detect_ms_max = fold (fun m o -> Float.max m (Option.value ~default:0.0 o.detect_ms)) 0.0;
    }
  in
  let control l d =
    let c = (l * cells_per_level) + (nd * na) + d in
    let n = target.(c) in
    let fold f init = fold (c * trials) n f init in
    {
      posture = defenses.(d);
      flights = n;
      skipped = cell_skipped.(c);
      alarmed = fold (fun n o -> if o.gcs_alarm_count > 0 then n + 1 else n) 0;
      alarms_total = fold (fun n o -> n + o.gcs_alarm_count) 0;
      recoveries = fold (fun n o -> n + o.master_detections) 0;
      crashed = fold (fun n o -> if o.halted then n + 1 else n) 0;
      first_alarm_n = fold (fun n o -> if o.detect_ms <> None then n + 1 else n) 0;
      first_alarm_ms_sum = fold (fun s o -> s +. Option.value ~default:0.0 o.detect_ms) 0.0;
    }
  in
  let levels =
    Array.init (Array.length faults.Fault.Profile.levels) (fun l ->
        {
          level = faults.Fault.Profile.levels.(l);
          cells = Array.init (nd * na) (fun i -> cell l (i / na) (i mod na));
          controls = Array.init nd (fun d -> control l d);
        })
  in
  {
    seed;
    trials;
    ms;
    profile = faults.Fault.Profile.name;
    levels;
    metrics;
    early_stop;
    trials_skipped;
  }

(* [run_shard ~lo ~hi] executes only the cells whose index blocks lie in
   [lo, hi); results are visible solely through [checkpoint], which
   records an entry line for every completed or skipped index in range.
   Bounds must be cell-aligned — multiples of [trials] — so shard
   early-stop trajectories match the single-host run's. *)
let run_shard ?pool ?(ms = 900) ?(faults = Fault.Profile.none) ?progress ?early_stop
    ~checkpoint ~lo ~hi ~seed ~trials (build : F.Build.t) =
  if trials < 1 then invalid_arg "Montecarlo.run_shard: trials must be >= 1";
  let tasks = cell_count ~faults * trials in
  if lo < 0 || hi > tasks || lo > hi then
    invalid_arg (Printf.sprintf "Montecarlo.run_shard: range [%d,%d) outside [0,%d]" lo hi tasks);
  if lo mod trials <> 0 || hi mod trials <> 0 then
    invalid_arg
      (Printf.sprintf "Montecarlo.run_shard: bounds [%d,%d) not multiples of %d trials" lo hi
         trials);
  let (_ : _ array * int array * int array * int) =
    drive ?pool ~ms ~faults ?progress ?early_stop ~checkpoint
      ~cell_range:(lo / trials, hi / trials) ~seed ~trials build
  in
  ()

let cells t = t.levels.(0).cells

let level_takeovers lr defense =
  Array.fold_left (fun n c -> if c.defense = defense then n + c.takeovers else n) 0 lr.cells

let level_detections lr defense =
  Array.fold_left (fun n c -> if c.defense = defense then n + c.detections else n) 0 lr.cells

let takeovers t defense =
  Array.fold_left (fun n lr -> n + level_takeovers lr defense) 0 t.levels

let mean_detect_ms c = if c.detect_n = 0 then 0.0 else c.detect_ms_sum /. float_of_int c.detect_n

let false_alarm_rate c =
  if c.flights = 0 then 0.0 else float_of_int c.alarmed /. float_of_int c.flights

(* Skipped-trial fields are emitted only when trials were actually
   skipped, so arming early stopping never changes the bytes of a cell
   it didn't stop — part of the determinism contract. *)
let cell_to_json c =
  Json.Obj
    ([
       ("defense", Json.String (defense_name c.defense));
       ("attack", Json.String (attack_name c.attack));
       ("trials", Json.Int c.trials);
     ]
    @ (if c.skipped > 0 then
         [ ("skipped", Json.Int c.skipped); ("stopped_early", Json.Bool true) ]
       else [])
    @ [
        ("takeovers", Json.Int c.takeovers);
        ("detections", Json.Int c.detections);
        ("halts", Json.Int c.halts);
        ("detect_n", Json.Int c.detect_n);
        ("detect_ms_mean", Json.Float (mean_detect_ms c));
        ("detect_ms_max", Json.Float c.detect_ms_max);
      ])

let control_to_json c =
  Json.Obj
    ([
       ("defense", Json.String (defense_name c.posture));
       ("flights", Json.Int c.flights);
     ]
    @ (if c.skipped > 0 then
         [ ("skipped", Json.Int c.skipped); ("stopped_early", Json.Bool true) ]
       else [])
    @ [
        ("alarmed", Json.Int c.alarmed);
        ("alarms_total", Json.Int c.alarms_total);
        ("recoveries", Json.Int c.recoveries);
        ("crashed", Json.Int c.crashed);
        ("false_alarm_rate", Json.Float (false_alarm_rate c));
        ( "first_alarm_ms_mean",
          Json.Float
            (if c.first_alarm_n = 0 then 0.0
             else c.first_alarm_ms_sum /. float_of_int c.first_alarm_n) );
      ])

let level_to_json lr =
  Json.Obj
    [
      ("level", Json.String lr.level.Fault.Profile.name);
      ("grid", Json.List (Array.to_list (Array.map cell_to_json lr.cells)));
      ("controls", Json.List (Array.to_list (Array.map control_to_json lr.controls)));
    ]

let to_json t =
  Json.Obj
    ([
       ("seed", Json.Int t.seed);
       ("trials_per_cell", Json.Int t.trials);
       ("flight_ms", Json.Int t.ms);
       ("fault_profile", Json.String t.profile);
     ]
    (* Present only when the policy was armed, so unarmed documents are
       byte-identical to pre-early-stop ones. *)
    @ (match t.early_stop with
      | None -> []
      | Some es ->
          [
            ( "early_stop",
              Json.Obj
                (Early_stop.to_json_fields es
                @ [ ("trials_skipped", Json.Int t.trials_skipped) ]) );
          ])
    @ [
        ("levels", Json.List (Array.to_list (Array.map level_to_json t.levels)));
        ("grid", Json.List (Array.to_list (Array.map cell_to_json (cells t))));
      ]
    @ [ ("metrics", Metrics.to_json t.metrics) ])

let pp fmt t =
  Format.fprintf fmt
    "@[<v>Monte Carlo campaign: %d trials/cell, %d ms flights, seed %d, faults %s@," t.trials
    t.ms t.seed t.profile;
  Array.iter
    (fun lr ->
      Format.fprintf fmt "  fault level: %s@," lr.level.Fault.Profile.name;
      Format.fprintf fmt "  %-14s %-4s %9s %10s %6s %15s@," "defense" "atk" "takeovers"
        "detections" "halts" "mean-detect-ms";
      Array.iter
        (fun c ->
          Format.fprintf fmt "  %-14s %-4s %5d/%-3d %6d/%-3d %6d %15.1f@,"
            (defense_name c.defense) (attack_name c.attack) c.takeovers c.trials c.detections
            c.trials c.halts (mean_detect_ms c))
        lr.cells;
      Array.iter
        (fun c ->
          Format.fprintf fmt "  %-14s ctrl %d/%d flights alarmed (%.2f false-alarm rate), %d recoveries, %d crashed@,"
            (defense_name c.posture) c.alarmed c.flights (false_alarm_rate c) c.recoveries
            c.crashed)
        lr.controls)
    t.levels;
  (match t.early_stop with
  | None -> ()
  | Some es ->
      Format.fprintf fmt "  early stop: halfwidth <= %.3f (z=%.2f), %d trials skipped@,"
        (Early_stop.target es) (Early_stop.z es) t.trials_skipped);
  Format.fprintf fmt "@]"
