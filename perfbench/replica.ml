(* The traced grid: a replica of [Montecarlo.trial] and [Scenario.tick]
   built only from public calls, so every call into a layer can be timed
   from outside the program.  It draws the same per-task seeds
   ([Engine.task_seeds]), makes the same calls in the same order and
   attaches the same telemetry, so its per-cell tallies must equal the
   untraced campaign document's; [trace.fidelity] checks exactly that.

   Per-call times go into per-layer accumulators (nanoseconds from the
   monotonic clock); each trial also gets a host lane holding "trial",
   "boot", "warmup" and "flight" spans, kept in memory and exported by
   the caller. *)

module Cpu = Mavr_avr.Cpu
module Probes = Mavr_avr.Probes
module Image = Mavr_obj.Image
module F = Mavr_firmware
module Rop = Mavr_core.Rop
module Randomize = Mavr_core.Randomize
module Master = Mavr_core.Master
module Metrics = Mavr_telemetry.Metrics
module Recorder = Mavr_telemetry.Recorder
module Span = Mavr_telemetry.Span
module Json = Mavr_telemetry.Json
module Splitmix = Mavr_prng.Splitmix
module Engine = Mavr_campaign.Engine
module Fault = Mavr_fault
module Dynamics = Mavr_sim.Dynamics
module Sensors = Mavr_sim.Sensors
module Groundstation = Mavr_sim.Groundstation
module MC = Mavr_sim.Montecarlo

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

(* Layers, named by lib/ module. *)
let cpu = 0
let master = 1
let randomize = 2
let fault = 3
let gcs = 4
let env = 5
let telemetry = 6

let layer_names =
  [| "avr.cpu"; "mavr.master"; "mavr.randomize"; "fault"; "sim.groundstation"; "sim.env"; "telemetry" |]

type acc = {
  busy : int array;  (** ns inside each layer's calls *)
  mutable trial_ns : int;  (** summed trial wall time *)
  (* Per-call samples, ms. *)
  mutable load_ms : float list;  (** direct [Cpu.load_program] *)
  mutable boot_ms : float list;  (** [Master.boot] *)
  mutable reflash_ms : float list;  (** [Master.check_and_recover] that reflashed *)
  mutable provision_ms : float list;
  mutable randomize_ms : float list;
  mutable attach_ms : float list;  (** telemetry attachment per trial *)
  mutable trial_ms : float list;
  mutable trial_boot_ms : float list;  (** a trial's boot phase *)
  (* Exact counts. *)
  mutable reflashes : int;
  mutable seu_flips : int;
  mutable reflash_retries : int;
  mutable gcs_frames : int;
  mutable gcs_alarms : int;
  mutable merge_ms : float;
}

let create () =
  {
    busy = Array.make (Array.length layer_names) 0;
    trial_ns = 0;
    load_ms = [];
    boot_ms = [];
    reflash_ms = [];
    provision_ms = [];
    randomize_ms = [];
    attach_ms = [];
    trial_ms = [];
    trial_boot_ms = [];
    reflashes = 0;
    seu_flips = 0;
    reflash_retries = 0;
    gcs_frames = 0;
    gcs_alarms = 0;
    merge_ms = 0.0;
  }

let timed a layer f =
  let t0 = now_ns () in
  let r = f () in
  a.busy.(layer) <- a.busy.(layer) + (now_ns () - t0);
  r

(* [timed], also keeping the call's duration as a sample. *)
let sampled a layer keep f =
  let t0 = now_ns () in
  let r = f () in
  let d = now_ns () - t0 in
  a.busy.(layer) <- a.busy.(layer) + d;
  keep (ms_of_ns d);
  r

(* Scenario.t, as far as a tick needs it. *)
type rig = {
  app : Cpu.t;
  rig_master : Master.t option;
  rig_gcs : Groundstation.t;
  sensors : Sensors.t;
  faults : Fault.Injector.t option;
  uplink_ch : Fault.Channel.t option;
  downlink_ch : Fault.Channel.t option;
  uplink : string Queue.t;
  recorder : Recorder.t;
  ticks : Metrics.counter;
  mutable dyn : Dynamics.state;
  clock : float ref;  (** simulated ms, read by the sampled [sim.now_ms] gauge *)
}

let record_event a r name ~value =
  timed a telemetry (fun () -> Recorder.record r.recorder ~cycle:(Cpu.cycles r.app) ~value name)

(* Scenario.tick: 1 ms of simulated time. *)
let tick a r =
  Metrics.incr r.ticks;
  let tick_no = int_of_float !(r.clock) in
  let t0 = now_ns () in
  r.dyn <- Dynamics.step r.dyn ~dt:0.001;
  Sensors.write_to_cpu (Sensors.sample r.sensors r.dyn) r.app;
  a.busy.(env) <- a.busy.(env) + (now_ns () - t0);
  let frame = Queue.take_opt r.uplink in
  let uplink_bytes =
    match r.uplink_ch with
    | None -> Option.value frame ~default:""
    | Some ch ->
        timed a fault (fun () ->
            Option.iter (fun f -> Fault.Channel.push ch ~now:tick_no f) frame;
            Fault.Channel.due ch ~now:tick_no)
  in
  if uplink_bytes <> "" then begin
    record_event a r "sim.uplink_delivered" ~value:(String.length uplink_bytes);
    timed a cpu (fun () -> Cpu.uart_send r.app uplink_bytes)
  end;
  let t1 = now_ns () in
  ignore (Cpu.run_until_halt r.app ~max_cycles:2000);
  let tx = Cpu.uart_take_tx r.app in
  let t2 = now_ns () in
  a.busy.(cpu) <- a.busy.(cpu) + (t2 - t1);
  (match r.rig_master with
  | Some m ->
      let reflashed = Master.check_and_recover m ~app:r.app in
      let d = now_ns () - t2 in
      a.busy.(master) <- a.busy.(master) + d;
      if reflashed then a.reflash_ms <- ms_of_ns d :: a.reflash_ms
  | None -> ());
  r.clock := !(r.clock) +. 1.0;
  let now_ms = !(r.clock) in
  let downlink =
    match r.downlink_ch with
    | None -> tx
    | Some ch -> timed a fault (fun () -> Fault.Channel.transmit ch ~now:(tick_no + 1) tx)
  in
  let t3 = now_ns () in
  Groundstation.feed r.rig_gcs ~now_ms downlink;
  let fresh = Groundstation.check r.rig_gcs ~now_ms in
  a.busy.(gcs) <- a.busy.(gcs) + (now_ns () - t3);
  List.iter
    (fun al ->
      record_event a r ("gcs.alarm." ^ Groundstation.alarm_key al) ~value:(int_of_float now_ms))
    fresh;
  match r.faults with
  | Some f -> timed a fault (fun () -> Fault.Injector.seu_tick f r.app)
  | None -> ()

let run_ms a r n =
  for _ = 1 to n do
    tick a r
  done

(* Montecarlo's private outcome record. *)
type outcome = {
  takeover : bool;
  detected : bool;
  halted : bool;
  detect_ms : float option;
  gcs_alarm_count : int;
  master_detections : int;
}

let hijack_value = 0x4141

let attack_frames (ti : Rop.target_info) obs =
  let writes = [ Rop.write_u16 obs ~addr:F.Layout.gyro_cfg ~value:hijack_value ~neighbour:0 ] in
  [|
    Rop.v1_basic ti obs ~writes;
    Rop.v2_stealthy ti obs ~writes;
    Rop.v3_execute ti obs ~chain_dest:F.Layout.free_region ~writes;
  |]

let detected_now r =
  (match r.rig_master with Some m -> Master.attacks_detected m > 0 | None -> false)
  || Groundstation.attack_suspected r.rig_gcs

let trial a ~lane ~image ~inject ~defense ~level ~ms ~rng =
  let t_trial = now_ns () in
  let fault_seed = Splitmix.next rng in
  let faults =
    if Fault.Profile.level_is_off level then None
    else Some (timed a fault (fun () -> Fault.Injector.create ~seed:fault_seed level))
  in
  let registry = Metrics.create () in
  let t_boot = now_ns () in
  Span.begin_span lane "boot";
  let image, config =
    match defense with
    | MC.Undefended -> (image, None)
    | MC.Software_only ->
        let seed = Splitmix.next rng in
        ( sampled a randomize
            (fun d -> a.randomize_ms <- d :: a.randomize_ms)
            (fun () -> Randomize.randomize ~seed image),
          None )
    | MC.Mavr_defense ->
        ( image,
          Some { Master.default_config with watchdog_window_cycles = 20_000; seed = Splitmix.next rng }
        )
  in
  let app = timed a cpu (fun () -> Cpu.create ()) in
  let m =
    match config with
    | None ->
        sampled a cpu (fun d -> a.load_ms <- d :: a.load_ms) (fun () ->
            Cpu.load_program app image.Image.code);
        None
    | Some config ->
        let m = timed a master (fun () -> Master.create ~config ()) in
        sampled a master (fun d -> a.provision_ms <- d :: a.provision_ms) (fun () ->
            Master.provision m image);
        Option.iter (fun f -> Master.set_reflash_faults m (Fault.Injector.reflash f)) faults;
        sampled a master (fun d -> a.boot_ms <- d :: a.boot_ms) (fun () -> Master.boot m ~app);
        Some m
  in
  let g = timed a gcs (fun () -> Groundstation.create ()) in
  let sensors = timed a env (fun () -> Sensors.create ~seed:0xBADC0FFEE ()) in
  let clock = ref 0.0 in
  let probes, ticks =
    sampled a telemetry
      (fun d -> a.attach_ms <- d :: a.attach_ms)
      (fun () ->
        let probes = Probes.attach ~prefix:"app" ~recorder_capacity:256 ~registry app in
        Metrics.sampled registry "sim.now_ms" (fun () -> int_of_float !clock);
        Groundstation.attach_metrics g registry;
        Option.iter
          (fun m -> Master.attach_telemetry m ~registry ~recorder:(Probes.recorder probes))
          m;
        Option.iter (fun f -> Fault.Injector.attach_metrics f registry) faults;
        (probes, Metrics.counter registry "sim.ticks"))
  in
  Span.end_span lane;
  a.trial_boot_ms <- ms_of_ns (now_ns () - t_boot) :: a.trial_boot_ms;
  let r =
    {
      app;
      rig_master = m;
      rig_gcs = g;
      sensors;
      faults;
      uplink_ch = Option.bind faults Fault.Injector.uplink;
      downlink_ch = Option.bind faults Fault.Injector.downlink;
      uplink = Queue.create ();
      recorder = Probes.recorder probes;
      ticks;
      dyn = Dynamics.initial;
      clock;
    }
  in
  let warmup = max 1 (ms / 3) in
  Span.span lane "warmup" (fun () -> run_ms a r warmup);
  (match inject with
  | Some frames ->
      Span.instant lane ~args:[ ("frames", Json.Int (List.length frames)) ] "inject";
      record_event a r "sim.inject" ~value:(List.length frames);
      List.iter (fun f -> Queue.add f r.uplink) frames
  | None -> ());
  let detect_ms = ref None in
  Span.span lane "flight" (fun () ->
      let remaining = ref (max 1 (ms - warmup)) in
      while !remaining > 0 do
        let slice = min 5 !remaining in
        run_ms a r slice;
        remaining := !remaining - slice;
        if !detect_ms = None && detected_now r then
          detect_ms := Some (!(r.clock) -. float_of_int warmup)
      done);
  let gyro = Cpu.data_peek app F.Layout.gyro_cfg lor (Cpu.data_peek app (F.Layout.gyro_cfg + 1) lsl 8) in
  let o =
    {
      takeover = gyro = hijack_value;
      detected = detected_now r;
      halted = Cpu.halted app <> None;
      detect_ms = !detect_ms;
      gcs_alarm_count = List.length (Groundstation.alarms g);
      master_detections = (match m with Some m -> Master.attacks_detected m | None -> 0);
    }
  in
  Option.iter (fun m -> a.reflashes <- a.reflashes + Master.reflashes m) m;
  Option.iter
    (fun f ->
      let s = Fault.Injector.seu_stats f in
      a.seu_flips <- a.seu_flips + s.Fault.Seu.sram_flips + s.Fault.Seu.flash_flips;
      Option.iter
        (fun rf -> a.reflash_retries <- a.reflash_retries + (Fault.Reflash.stats rf).Fault.Reflash.retries)
        (Fault.Injector.reflash f))
    faults;
  a.gcs_frames <- a.gcs_frames + Groundstation.frames_received g;
  a.gcs_alarms <- a.gcs_alarms + o.gcs_alarm_count;
  let d = now_ns () - t_trial in
  a.trial_ns <- a.trial_ns + d;
  a.trial_ms <- ms_of_ns d :: a.trial_ms;
  (o, registry)

let defenses = [| MC.Undefended; MC.Software_only; MC.Mavr_defense |]
let attacks = [| MC.V1; MC.V2; MC.V3 |]

(* Montecarlo.run without early stopping: every task in index order,
   then the same per-cell folds into a [Montecarlo.t]. *)
let run a ~tracer ~frames ~ms ~(faults : Fault.Profile.t) ~seed ~trials (b : F.Build.t) =
  let nd = Array.length defenses and na = Array.length attacks in
  let levels = faults.Fault.Profile.levels in
  let grid_tasks = nd * na * trials in
  let per_level = grid_tasks + (nd * trials) in
  let tasks = Array.length levels * per_level in
  let seeds = Engine.task_seeds ~seed ~tasks in
  let results =
    Array.init tasks (fun index ->
        let level = levels.(index / per_level) in
        let rem = index mod per_level in
        let d, inject, what =
          if rem < grid_tasks then
            let ai = rem / trials mod na in
            (rem / (na * trials), Some frames.(ai), MC.attack_name attacks.(ai))
          else ((rem - grid_tasks) / trials, None, "control")
        in
        let lane =
          Span.lane tracer ~sort:index
            (Printf.sprintf "trial-%05d %s/%s/%s" index level.Fault.Profile.name
               (MC.defense_name defenses.(d)) what)
        in
        let rng = Splitmix.create ~seed:seeds.(index) in
        let busy0 = Array.copy a.busy in
        let r =
          Span.span lane "trial" (fun () ->
              trial a ~lane ~image:b.F.Build.image ~inject ~defense:defenses.(d) ~level ~ms ~rng)
        in
        Span.instant lane
          ~args:
            (Array.to_list
               (Array.mapi (fun l name -> (name ^ "_us", Json.Int ((a.busy.(l) - busy0.(l)) / 1000))) layer_names))
          "layers";
        r)
  in
  let metrics = Metrics.create () in
  let t0 = now_ns () in
  Array.iter (fun (_, reg) -> Metrics.merge ~into:metrics reg) results;
  a.merge_ms <- ms_of_ns (now_ns () - t0);
  let fold base f init =
    let acc = ref init in
    for k = 0 to trials - 1 do
      acc := f !acc (fst results.(base + k))
    done;
    !acc
  in
  let count base p = fold base (fun n o -> if p o then n + 1 else n) 0 in
  let dms o = Option.value ~default:0.0 o.detect_ms in
  let cell l d ai =
    let base = (l * per_level) + (((d * na) + ai) * trials) in
    {
      MC.defense = defenses.(d);
      attack = attacks.(ai);
      trials;
      skipped = 0;
      takeovers = count base (fun o -> o.takeover);
      detections = count base (fun o -> o.detected);
      halts = count base (fun o -> o.halted);
      detect_n = count base (fun o -> o.detect_ms <> None);
      detect_ms_sum = fold base (fun s o -> s +. dms o) 0.0;
      detect_ms_max = fold base (fun m o -> Float.max m (dms o)) 0.0;
    }
  in
  let control l d =
    let base = (l * per_level) + grid_tasks + (d * trials) in
    {
      MC.posture = defenses.(d);
      flights = trials;
      skipped = 0;
      alarmed = count base (fun o -> o.gcs_alarm_count > 0);
      alarms_total = fold base (fun n o -> n + o.gcs_alarm_count) 0;
      recoveries = fold base (fun n o -> n + o.master_detections) 0;
      crashed = count base (fun o -> o.halted);
      first_alarm_n = count base (fun o -> o.detect_ms <> None);
      first_alarm_ms_sum = fold base (fun s o -> s +. dms o) 0.0;
    }
  in
  {
    MC.seed;
    trials;
    ms;
    profile = faults.Fault.Profile.name;
    levels =
      Array.mapi
        (fun l level ->
          {
            MC.level;
            cells = Array.init (nd * na) (fun i -> cell l (i / na) (i mod na));
            controls = Array.init nd (fun d -> control l d);
          })
        levels;
    metrics;
    early_stop = None;
    trials_skipped = 0;
  }
