(* One repetition of a workload, run in a fresh child process so that
   set-up cost, heap and peak RSS belong to that repetition alone (users
   pay the cold start on every CLI call).  The child prints one JSON
   report line on stdout and writes the campaign document it produced to
   the path it was given; the parent times it from outside.

   Modes:
   - "setup": set-up only (firmware build, attacker priming, worker
     spawn), for extra cold set-up samples;
   - "run": the campaign as `mavr campaign --json` (or `mavr dispatch
     --spawn N --json`) builds it, untraced;
   - "traced": the replica grid with per-layer timing (single host), or
     the dispatch event timeline (sharded);
   - "reference": the single-host document of a sharded workload. *)

module F = Mavr_firmware
module Rop = Mavr_core.Rop
module Json = Mavr_telemetry.Json
module Metrics = Mavr_telemetry.Metrics
module Span = Mavr_telemetry.Span
module Clock = Mavr_campaign.Clock
module Pool = Mavr_campaign.Pool
module Checkpoint = Mavr_campaign.Checkpoint
module Dispatch = Mavr_campaign.Dispatch
module Survival = Mavr_analysis.Survival
module MC = Mavr_sim.Montecarlo

let out_dir = "perfbench/_out"

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vmhwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* What `campaign --json` prints: [campaign_doc] rendered with indent 2. *)
let campaign_doc (w : Workload.t) ~seed census grid =
  Json.to_string ~indent:2
    (Json.Obj
       [
         ("profile", Json.String w.profile.F.Profile.name);
         ("seed", Json.Int seed);
         ("census", Survival.to_json census);
         ("grid", MC.to_json grid);
       ])
  ^ "\n"

let counter registry name =
  match List.assoc_opt name (Metrics.snapshot registry) with
  | Some (Metrics.Counter_value n) -> n
  | _ -> 0

let build (w : Workload.t) = F.Build.build w.profile F.Profile.mavr

let prime b =
  let ti = Rop.analyze b in
  (ti, Rop.observe ti)

(* Per-layout census durations, from the census's own spans. *)
let census_layout_ms tracer =
  match Json.member "traceEvents" (Span.to_trace_event tracer) with
  | Some (Json.List evs) ->
      List.filter_map
        (fun e ->
          match (Json.member "name" e, Option.bind (Json.member "dur" e) Json.to_float) with
          | Some (Json.String "census.layout"), Some us -> Some (us /. 1000.0)
          | _ -> None)
        evs
  | _ -> []

let floats l = Json.List (List.map (fun x -> Json.Float x) l)

(* Fields every "run"/"traced" report carries: the operation counts and
   the invariants the parent checks. *)
let outcome_fields (w : Workload.t) census grid doc =
  [
    ("trials", Json.Int (Workload.tasks w));
    ("layouts", Json.Int census.Survival.layouts);
    ("feasible_layouts", Json.Int census.Survival.feasible_layouts);
    ("mavr_takeovers", Json.Int (MC.takeovers grid MC.Mavr_defense));
    ("insns", Json.Int (counter grid.MC.metrics "app.insn.total"));
    ("doc_fnv", Json.String (fnv1a64 doc));
    ("doc_bytes", Json.Int (String.length doc));
  ]

(* ---- single host ------------------------------------------------------ *)

let single_run (w : Workload.t) ~seed ~doc_path =
  let t0 = Clock.wall () in
  let b = build w in
  ignore (prime b);
  let setup_s = Clock.wall () -. t0 in
  let census, (grid, grid_t) =
    Pool.with_pool ~jobs:1 (fun pool ->
        let c = Survival.census ~seed:(Survival.Root seed) ~pool ~layouts:w.layouts b.F.Build.image in
        let g =
          Clock.time (fun () ->
              MC.run ~pool ~ms:w.ms ~faults:w.faults ~seed ~trials:w.trials b)
        in
        (c, g))
  in
  let doc = campaign_doc w ~seed census grid in
  write_file doc_path doc;
  Json.Obj
    ([
       ("setup_s", Json.Float setup_s);
       ("grid_s", Json.Float grid_t.Clock.wall_s);
       ("rss_kb", Json.Int (vmhwm_kb "self"));
     ]
    @ outcome_fields w census grid doc)

let single_traced (w : Workload.t) ~seed ~doc_path ~perfetto =
  let tracer = Clock.tracer () in
  let setup = Span.lane tracer ~sort:(-1) "setup" in
  let b, build_t = Clock.time (fun () -> Span.span setup "firmware.build" (fun () -> build w)) in
  let (ti, obs), prime_t = Clock.time (fun () -> Span.span setup "rop.analyze" (fun () -> prime b)) in
  let frames = Replica.attack_frames ti obs in
  let census =
    Survival.census ~seed:(Survival.Root seed) ~jobs:1 ~tracer ~layouts:w.layouts b.F.Build.image
  in
  let a = Replica.create () in
  let grid = Replica.run a ~tracer ~frames ~ms:w.ms ~faults:w.faults ~seed ~trials:w.trials b in
  let doc, doc_t = Clock.time (fun () -> campaign_doc w ~seed census grid) in
  write_file doc_path doc;
  let layout_ms = census_layout_ms tracer in
  Option.iter (fun p -> write_file p (Json.to_string (Span.to_trace_event tracer) ^ "\n")) perfetto;
  let ms t = Json.Float (1000.0 *. t.Clock.wall_s) in
  Json.Obj
    ([
       ("build_ms", ms build_t);
       ("analyze_ms", ms prime_t);
       ("doc_ms", ms doc_t);
       ("busy_ns", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a.Replica.busy)));
       ("trial_ns", Json.Int a.Replica.trial_ns);
       ("merge_ms", Json.Float a.Replica.merge_ms);
       ("reflashes", Json.Int a.Replica.reflashes);
       ("seu_flips", Json.Int a.Replica.seu_flips);
       ("reflash_retries", Json.Int a.Replica.reflash_retries);
       ("gcs_frames", Json.Int a.Replica.gcs_frames);
       ("gcs_alarms", Json.Int a.Replica.gcs_alarms);
       ("load_ms", floats a.Replica.load_ms);
       ("boot_ms", floats a.Replica.boot_ms);
       ("reflash_ms", floats a.Replica.reflash_ms);
       ("provision_ms", floats a.Replica.provision_ms);
       ("randomize_ms", floats a.Replica.randomize_ms);
       ("attach_ms", floats a.Replica.attach_ms);
       ("trial_ms", floats a.Replica.trial_ms);
       ("trial_boot_ms", floats a.Replica.trial_boot_ms);
       ("layout_ms", floats layout_ms);
     ]
    @ outcome_fields w census grid doc)

(* ---- sharded: `mavr dispatch --spawn N` ------------------------------- *)

(* Spawn [w.shards] `mavr serve --socket P --jobs 1` workers, run [f]
   with their pids and sockets, and always kill and reap them. *)
let with_workers (w : Workload.t) ~mavr f =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let workers =
    List.init w.shards (fun i ->
        let sock = Printf.sprintf "%s/w%d-%d.sock" out_dir (Unix.getpid ()) i in
        let pid =
          Unix.create_process mavr
            [| mavr; "serve"; "--socket"; sock; "--jobs"; "1" |]
            devnull devnull Unix.stderr
        in
        (pid, sock))
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (pid, sock) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          try Sys.remove sock with Sys_error _ -> ())
        workers)
    (fun () -> f workers)

(* A worker is ready once its socket file exists (bind precedes listen by
   microseconds; Dispatch.run retries a refused connect). *)
let await_sockets workers =
  let deadline = Clock.wall () +. 30.0 in
  List.iter
    (fun (_, sock) ->
      while (not (Sys.file_exists sock)) && Clock.wall () < deadline do
        Unix.sleepf 0.001
      done)
    workers

let dispatch_setup (w : Workload.t) ~mavr =
  let t0 = Clock.wall () in
  with_workers w ~mavr (fun workers ->
      await_sockets workers;
      ignore (prime (build w));
      Json.Obj [ ("setup_s", Json.Float (Clock.wall () -. t0)) ])

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let dispatch_run (w : Workload.t) ~seed ~doc_path ~mavr ~timeline ~perfetto =
  let t_start = Clock.wall () in
  (* Traced, the dispatcher's own event timeline becomes spans: one lane
     per worker holding its "shard" assignments, and the coordinator's
     phases on a "dispatcher" lane. *)
  let tracer = if timeline then Some (Clock.tracer ()) else None in
  let lane ?sort name = Option.map (fun tr -> Span.lane tr ?sort name) tracer in
  let coordinator = lane ~sort:(-1) "dispatcher" in
  let phase name f = match coordinator with Some l -> Span.span l name f | None -> f () in
  with_workers w ~mavr (fun workers ->
      phase "spawn" (fun () -> await_sockets workers);
      let spawn_s = Clock.wall () -. t_start in
      let b, build_t = Clock.time (fun () -> phase "firmware.build" (fun () -> build w)) in
      let (), prime_t = Clock.time (fun () -> phase "rop.analyze" (fun () -> ignore (prime b))) in
      let setup_s = Clock.wall () -. t_start in
      let name = w.profile.F.Profile.name in
      let spec =
        MC.checkpoint_spec ~ms:w.ms ~faults:w.faults ~traced:false ~profile:name ~seed
          ~trials:w.trials ()
      in
      (* The request `mavr dispatch` sends: the serve spec plus a shard. *)
      let request ~lo ~hi =
        Json.Obj
          [
            ("profile", Json.String name);
            ("trials", Json.Int w.trials);
            ("ms", Json.Int w.ms);
            ("layouts", Json.Int w.layouts);
            ("seed", Json.Int seed);
            ("faults", Json.String w.faults.Mavr_fault.Profile.name);
            ("shard", Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]);
          ]
      in
      let shards =
        Dispatch.plan ~tasks:spec.Checkpoint.tasks ~block:w.trials ~shards:w.shards
      in
      let worker_lanes = Array.init w.shards (fun i -> lane ~sort:i (Printf.sprintf "worker-%d" i)) in
      let events = ref [] in
      let on_event =
        Option.map
          (fun _ ev ->
            events := (Clock.wall (), ev) :: !events;
            match ev with
            | Dispatch.Assigned { worker; shard; attempt } ->
                Option.iter
                  (fun l ->
                    Span.begin_span l
                      ~args:
                        [
                          ("lo", Json.Int shard.Dispatch.lo);
                          ("hi", Json.Int shard.Dispatch.hi);
                          ("attempt", Json.Int attempt);
                        ]
                      "shard")
                  worker_lanes.(worker)
            | Dispatch.Shard_done { worker; _ } when worker >= 0 ->
                Option.iter Span.end_span worker_lanes.(worker)
            | Dispatch.Worker_failed { worker; reason } ->
                Option.iter
                  (fun l -> Span.instant l ~args:[ ("reason", Json.String reason) ] "worker_failed")
                  worker_lanes.(worker)
            | _ -> ())
          tracer
      in
      let cpu0 = cpu_self () in
      let t_dispatch = Clock.wall () in
      let result =
        phase "dispatch" (fun () ->
            Dispatch.run ?on_event ~spec ~request ~block:w.trials
              ~workers:(List.map (fun (_, s) -> Dispatch.Unix_socket s) workers)
              ~shards ())
      in
      let dispatch_s = Clock.wall () -. t_dispatch in
      match result with
      | Error e -> Json.Obj [ ("error", Json.String (Dispatch.error_to_string e)) ]
      | Ok o ->
          (* Merge by replay: prime a checkpoint with every entry and run
             the campaign over it (zero trials execute). *)
          let ck = Checkpoint.create spec in
          List.iter
            (fun (i, e) ->
              match e with
              | Checkpoint.Result r -> Checkpoint.record ck ~index:i r
              | Checkpoint.Skip reason -> Checkpoint.skip ck ~index:i ~reason)
            o.Dispatch.entries;
          let (census, census_t), (grid, merge_t) =
            Pool.with_pool ~jobs:1 (fun pool ->
                let c =
                  Clock.time (fun () ->
                      phase "census" (fun () ->
                          Survival.census ~seed:(Survival.Root seed) ~pool ?tracer
                            ~layouts:w.layouts b.F.Build.image))
                in
                let g =
                  Clock.time (fun () ->
                      phase "merge" (fun () ->
                          MC.run ~pool ~ms:w.ms ~faults:w.faults ~checkpoint:ck ~seed
                            ~trials:w.trials b))
                in
                (c, g))
          in
          let coordinator_cpu_s = cpu_self () -. cpu0 in
          let doc, doc_t = Clock.time (fun () -> campaign_doc w ~seed census grid) in
          write_file doc_path doc;
          let workers_rss = List.fold_left (fun n (pid, _) -> n + vmhwm_kb (string_of_int pid)) 0 workers in
          let entry_bytes =
            List.map
              (fun (_, e) ->
                match e with
                | Checkpoint.Result r -> float_of_int (String.length (Json.to_string r))
                | Checkpoint.Skip _ -> 0.0)
              o.Dispatch.entries
          in
          let evs = List.rev !events in
          let first_entry_ms =
            match List.find_opt (function _, Dispatch.Entry_received _ -> true | _ -> false) evs with
            | Some (t, _) -> 1000.0 *. (t -. t_dispatch)
            | None -> 0.0
          in
          let assigned = Hashtbl.create 4 in
          let shard_ms = ref [] and idle_ms = ref 0.0 in
          let fresh = ref 0 and received = ref 0 in
          List.iter
            (fun (t, ev) ->
              match ev with
              | Dispatch.Assigned { worker; _ } -> Hashtbl.replace assigned worker t
              | Dispatch.Shard_done { worker; _ } ->
                  Option.iter
                    (fun t0 -> shard_ms := (1000.0 *. (t -. t0)) :: !shard_ms)
                    (Hashtbl.find_opt assigned worker);
                  (* idle: done, while another worker still holds a shard *)
                  idle_ms := !idle_ms +. (1000.0 *. (t_dispatch +. dispatch_s -. t))
              | Dispatch.Entry_received { fresh = f; _ } ->
                  incr received;
                  if f then incr fresh
              | _ -> ())
            evs;
          Option.iter
            (fun tr -> Option.iter (fun p -> write_file p (Json.to_string (Span.to_trace_event tr) ^ "\n")) perfetto)
            tracer;
          let ms t = Json.Float (1000.0 *. t.Clock.wall_s) in
          Json.Obj
            ([
               ("setup_s", Json.Float setup_s);
               ("build_ms", ms build_t);
               ("analyze_ms", ms prime_t);
               ("census_s", Json.Float census_t.Clock.wall_s);
               ("grid_s", Json.Float (dispatch_s +. merge_t.Clock.wall_s));
               ("dispatch_s", Json.Float dispatch_s);
               ("merge_ms", ms merge_t);
               ("doc_ms", ms doc_t);
               ("wall_in_s", Json.Float (Clock.wall () -. t_start));
               ("rss_kb", Json.Int (vmhwm_kb "self" + workers_rss));
               ("assignments", Json.Int o.Dispatch.assignments);
               ("worker_failures", Json.Int o.Dispatch.worker_failures);
               ("entries", Json.Int (List.length o.Dispatch.entries));
               ("entry_bytes", floats entry_bytes);
               ("spawn_ms", Json.Float (1000.0 *. spawn_s));
               ("first_entry_ms", Json.Float first_entry_ms);
               ("shard_ms", floats !shard_ms);
               ("worker_idle_ms", Json.Float !idle_ms);
               ("coordinator_cpu_s", Json.Float coordinator_cpu_s);
               ("fresh_ratio", Json.Float (if !received = 0 then 0.0 else float_of_int !fresh /. float_of_int !received));
               ("layout_ms", floats (Option.fold ~none:[] ~some:census_layout_ms tracer));
             ]
            @ outcome_fields w census grid doc))

(* ---- entry -------------------------------------------------------------- *)

let main ~mode ~(w : Workload.t) ~seed ~doc_path ~mavr ~perfetto =
  let report =
    match (mode, w.shards > 0) with
    | "setup", false ->
        let t0 = Clock.wall () in
        ignore (prime (build w));
        Json.Obj [ ("setup_s", Json.Float (Clock.wall () -. t0)) ]
    | "setup", true -> dispatch_setup w ~mavr
    | "run", false -> single_run w ~seed ~doc_path
    | "run", true -> dispatch_run w ~seed ~doc_path ~mavr ~timeline:false ~perfetto:None
    | "traced", false -> single_traced w ~seed ~doc_path ~perfetto
    | "traced", true -> dispatch_run w ~seed ~doc_path ~mavr ~timeline:true ~perfetto
    | "reference", _ -> single_run { w with shards = 0 } ~seed ~doc_path
    | m, _ -> invalid_arg ("unknown rep mode " ^ m)
  in
  print_endline (Json.to_string report)
