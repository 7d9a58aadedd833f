(* The campaign benchmark: the workloads of Workload, each repetition in a
   fresh child process, end-to-end metrics from untraced runs and
   per-layer metrics from traced ones.  Metric names, units, directions
   and regression bounds are read from BENCHMARK.json at the root of the
   checkout, the single list this program must emit.

     perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--record FILE] [--perfetto FILE]
         one measured run of W: repetitions until S seconds are used;
         the last stdout line is {"correct","attempted","failed","metrics"}
     perf.exe [--seed N] [--json FILE] [--perfetto FILE]
         every workload 3x untraced, interleaved, then traced; prints
         median/min/max per metric
     perf.exe --smoke
         the same at smoke size; checks every metric, invariant and
         trace.fidelity = 1
     perf.exe compare PARENT CHANGE
         parent-vs-change verdict per workload and end-to-end metric
     perf.exe selftest
         unit tests of the statistics and the comparison rule

   perfbench/run.sh builds this program and the mavr CLI (whose `serve`
   the dispatch workload spawns) and passes --mavr. *)

module Json = Mavr_telemetry.Json
module Clock = Mavr_campaign.Clock

(* ---- BENCHMARK.json ----------------------------------------------------- *)

type metric = { name : string; unit_ : string; higher : bool; bound : float }

let catalog () =
  let doc =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let list key =
    match Json.member key doc with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            let str k = Option.value ~default:"" (Option.bind (Json.member k m) Json.to_str) in
            {
              name = str "name";
              unit_ = str "unit";
              higher = str "better" = "higher";
              bound = Option.value ~default:0.0 (Option.bind (Json.member "bound" m) Json.to_float);
            })
          l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  (list "end_to_end", list "per_layer")

(* ---- child processes ---------------------------------------------------- *)

type ctx = { mavr : string; smoke : bool; seed : int }

type child = { report : Json.t; wall_s : float; cpu_s : float; doc : string }

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let last_line s =
  match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s) with
  | [] -> ""
  | l -> List.nth l (List.length l - 1)

let spawned = ref 0

(* Run one repetition: a re-exec of this program in [mode]; time it from
   outside (wall, and CPU of the whole reaped process tree). *)
let child ctx ?perfetto mode (w : Workload.t) =
  incr spawned;
  let doc_path = Printf.sprintf "%s/doc-%d-%d.json" Rep.out_dir (Unix.getpid ()) !spawned in
  let args =
    [ Sys.executable_name; "rep"; mode; w.Workload.name; string_of_int ctx.seed; doc_path; "--mavr"; ctx.mavr ]
    @ (if ctx.smoke then [ "--smoke" ] else [])
    @ match perfetto with Some p -> [ "--perfetto"; p ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let c0 = children_cpu () and t0 = Clock.wall () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_all rd) in
  let _, status = Unix.waitpid [] pid in
  let wall_s = Clock.wall () -. t0 and cpu_s = children_cpu () -. c0 in
  let doc =
    if Sys.file_exists doc_path then begin
      let d = In_channel.with_open_bin doc_path In_channel.input_all in
      Sys.remove doc_path;
      d
    end
    else ""
  in
  match (status, Json.of_string (last_line out)) with
  | Unix.WEXITED 0, Ok report -> (
      match Json.member "error" report with
      | Some e -> Error (Printf.sprintf "%s %s: %s" mode w.name (Json.to_string e))
      | None -> Ok { report; wall_s; cpu_s; doc })
  | Unix.WEXITED n, _ -> Error (Printf.sprintf "%s %s: child exited %d" mode w.name n)
  | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      Error (Printf.sprintf "%s %s: child killed by signal %d" mode w.name n)

let num key r = Option.value ~default:0.0 (Option.bind (Json.member key r.report) Json.to_float)
let int key r = int_of_float (num key r)
let str key r = Option.value ~default:"" (Option.bind (Json.member key r.report) Json.to_str)

let nums key r =
  match Json.member key r.report with
  | Some (Json.List l) -> List.filter_map Json.to_float l
  | _ -> []

(* ---- per-workload measurement state ------------------------------------- *)

type state = {
  w : Workload.t;
  mutable runs : child list;  (** untraced repetitions feeding end-to-end metrics *)
  mutable setups : float list;  (** cold set-up samples *)
  mutable traced : child list;
  mutable pairs : (float * float) list;  (** (untraced wall, traced wall) *)
  mutable fidelity : float list;
  mutable reference : string option;  (** single-host document (sharded workloads) *)
  mutable run_doc : string option;  (** the first untraced document *)
  mutable problems : string list;
  mutable attempted : int;
  mutable failed : int;
}

let state w =
  {
    w;
    runs = [];
    setups = [];
    traced = [];
    pairs = [];
    fidelity = [];
    reference = None;
    run_doc = None;
    problems = [];
    attempted = 0;
    failed = 0;
  }

let problem st fmt = Printf.ksprintf (fun m -> st.problems <- st.problems @ [ st.w.name ^ ": " ^ m ]) fmt

(* Every cell and control row of a campaign document, in order. *)
let cells doc =
  match Result.map (Json.path [ "grid"; "levels" ]) (Json.of_string doc) with
  | Ok (Some (Json.List levels)) ->
      List.concat_map
        (fun l ->
          let rows k = match Json.member k l with Some (Json.List r) -> r | _ -> [] in
          rows "grid" @ rows "controls")
        levels
  | _ -> []

(* Share of [reference]'s cells that [doc] reproduces exactly. *)
let fidelity ~reference doc =
  let a = cells reference and b = cells doc in
  if a = [] || List.length a <> List.length b then 0.0
  else
    float_of_int (List.length (List.filter Fun.id (List.map2 ( = ) a b)))
    /. float_of_int (List.length a)

(* Invariants of one repetition, and its operation counts: trials, census
   layouts and shard assignments are operations; a MAVR takeover, a
   feasible census layout or a worker failure is a failed one. *)
let check st (r : child) =
  let w = st.w in
  let bad = int "mavr_takeovers" r + int "feasible_layouts" r + int "worker_failures" r in
  st.attempted <- st.attempted + int "trials" r + int "layouts" r + int "assignments" r;
  st.failed <- st.failed + bad;
  if int "mavr_takeovers" r > 0 then problem st "%d MAVR takeovers" (int "mavr_takeovers" r);
  if int "feasible_layouts" r > 0 then problem st "%d feasible census layouts" (int "feasible_layouts" r);
  if w.shards > 0 then begin
    if int "entries" r <> Workload.tasks w then
      problem st "%d checkpoint entries for %d tasks" (int "entries" r) (Workload.tasks w);
    if int "worker_failures" r > 0 then problem st "%d worker failures" (int "worker_failures" r)
  end

let attempt st f = match f () with Ok r -> Some r | Error m -> problem st "%s" m; None

let add_reference ctx st =
  if st.w.shards > 0 && st.reference = None then
    Option.iter (fun r -> st.reference <- Some r.doc) (attempt st (fun () -> child ctx "reference" st.w))

let add_setup ctx st =
  Option.iter (fun r -> st.setups <- num "setup_s" r :: st.setups) (attempt st (fun () -> child ctx "setup" st.w))

(* An untraced repetition; its document must equal every earlier one
   (and, sharded, the single-host reference) byte for byte. *)
let add_run ?(keep = true) ctx st =
  match attempt st (fun () -> child ctx "run" st.w) with
  | None -> None
  | Some r ->
      check st r;
      (match st.run_doc with
      | None -> st.run_doc <- Some r.doc
      | Some d -> if d <> r.doc then problem st "campaign document differs between repetitions");
      Option.iter
        (fun d -> if d <> r.doc then problem st "sharded document differs from the single-host one")
        st.reference;
      if keep then begin
        st.runs <- st.runs @ [ r ];
        st.setups <- num "setup_s" r :: st.setups
      end;
      Some r

let add_traced ctx ?perfetto st =
  match attempt st (fun () -> child ctx ?perfetto "traced" st.w) with
  | None -> None
  | Some r ->
      check st r;
      (match st.traced with
      | first :: _ ->
          List.iter
            (fun k -> if num k first <> num k r then problem st "traced count %s not exact" k)
            [ "insns"; "reflashes"; "seu_flips"; "reflash_retries"; "gcs_frames"; "gcs_alarms"; "entries" ]
      | [] -> ());
      (match (if st.w.shards > 0 then st.reference else st.run_doc) with
      | Some reference -> st.fidelity <- fidelity ~reference r.doc :: st.fidelity
      | None -> ());
      st.traced <- st.traced @ [ r ];
      Some r

let add_pair ctx ?perfetto st =
  match add_run ~keep:false ctx st with
  | None -> ()
  | Some u -> Option.iter (fun t -> st.pairs <- st.pairs @ [ (u.wall_s, t.wall_s) ]) (add_traced ctx ?perfetto st)

(* A traced run pools trial samples until 10 lie beyond the p90. *)
let needs_samples ctx st =
  st.w.shards = 0 && (not ctx.smoke) && List.length (List.concat_map (nums "trial_ms") st.traced) < 108

(* ---- metrics ------------------------------------------------------------ *)

let med f l = if l = [] then 0.0 else Stats.median (List.map f l)

(* Per-repetition values of the timed end-to-end metrics, and whether
   higher is better. *)
let timed_values st =
  let per f = List.map f st.runs in
  [
    ("wall_s", false, per (fun r -> r.wall_s));
    ("trials_per_s", true, per (fun r -> num "trials" r /. num "grid_s" r));
    ("cpu_s_per_trial", false, per (fun r -> r.cpu_s /. num "trials" r));
    ("emu_mips", true, per (fun r -> num "insns" r /. num "grid_s" r /. 1e6));
  ]

(* Other tenants of a shared host only ever add time to a repetition, and
   on the bench host they add up to +50% for tens of seconds, so a run
   reports its best repetition of each timed metric.  Set-up time and
   peak memory are not skewed that way and report medians. *)
let end_to_end st =
  let best higher l = List.fold_left (if higher then Float.max else Float.min) (List.hd l) l in
  ("setup_s", if st.setups = [] then 0.0 else Stats.median st.setups)
  :: ("peak_rss_mb", med (fun r -> num "rss_kb" r /. 1024.0) st.runs)
  :: List.map (fun (name, higher, l) -> (name, if l = [] then 0.0 else best higher l)) (timed_values st)

let per_layer st =
  let ts = st.traced in
  let busy l r = match Json.member "busy_ns" r.report with
    | Some (Json.List b) -> Option.value ~default:0.0 (Option.bind (List.nth_opt b l) Json.to_float)
    | _ -> 0.0
  in
  let busy_ms l = med (fun r -> busy l r /. 1e6) ts in
  let first k = match ts with r :: _ -> num k r | [] -> 0.0 in
  let pooled k = List.concat_map (nums k) ts in
  let p50 k = match pooled k with [] -> 0.0 | l -> Stats.median l in
  let sharded = st.w.shards > 0 in
  let single f = if sharded then 0.0 else f () in
  (* Tracing overhead: best traced against best untraced repetition (the
     same noise argument as [end_to_end]), with the spread of the
     per-pair overheads beside it. *)
  let overheads = List.map (fun (u, t) -> 100.0 *. ((t /. u) -. 1.0)) st.pairs in
  let q1, _, q3 = if overheads = [] then (0.0, 0.0, 0.0) else Stats.quartiles overheads in
  let fastest f = List.fold_left (fun m p -> Float.min m (f p)) infinity st.pairs in
  let overhead = if st.pairs = [] then 0.0 else 100.0 *. ((fastest snd /. fastest fst) -. 1.0) in
  let timed_s r =
    if sharded then
      (num "spawn_ms" r +. num "build_ms" r +. num "analyze_ms" r +. num "merge_ms" r +. num "doc_ms" r) /. 1000.0
      +. num "dispatch_s" r +. num "census_s" r
    else 0.0
  in
  let cpu = Replica.cpu and master = Replica.master in
  [
    ("avr.cpu.busy_ms", busy_ms cpu);
    ("avr.cpu.insns", single (fun () -> first "insns"));
    ("avr.cpu.mips", single (fun () -> med (fun r -> num "insns" r *. 1e3 /. busy cpu r) ts));
    ("avr.cpu.share_pct", single (fun () -> med (fun r -> 100.0 *. busy cpu r /. num "trial_ns" r) ts));
    ("avr.cpu.load_ms_p50", p50 "load_ms");
    ("mavr.master.boot_ms_p50", p50 "boot_ms");
    ("mavr.master.reflash_ms_p50", p50 "reflash_ms");
    ("mavr.master.reflashes", first "reflashes");
    ("mavr.master.provision_ms_p50", p50 "provision_ms");
    ("mavr.master.busy_ms", busy_ms master);
    ("mavr.randomize.calls", match ts with r :: _ -> float_of_int (List.length (nums "randomize_ms" r)) | [] -> 0.0);
    ("mavr.randomize.ms_p50", p50 "randomize_ms");
    ("analysis.survival.layouts", first "layouts");
    ("analysis.survival.layout_ms_p50", p50 "layout_ms");
    ("firmware.build_ms", med (num "build_ms") ts);
    ("mavr.rop.analyze_ms", med (num "analyze_ms") ts);
    ("fault.busy_ms", busy_ms Replica.fault);
    ("fault.seu_flips", first "seu_flips");
    ("fault.reflash_retries", first "reflash_retries");
    ("sim.groundstation.busy_ms", busy_ms Replica.gcs);
    ("sim.groundstation.frames", first "gcs_frames");
    ("sim.groundstation.alarms", first "gcs_alarms");
    ("sim.env.busy_ms", busy_ms Replica.env);
    ("sim.montecarlo.trials", first "trials");
    ("sim.montecarlo.trial_ms_p50", p50 "trial_ms");
    ("sim.montecarlo.trial_ms_p90", match pooled "trial_ms" with [] -> 0.0 | l -> Stats.percentile 0.9 l);
    ("sim.montecarlo.boot_ms_p50", p50 "trial_boot_ms");
    ("telemetry.attach_ms_p50", p50 "attach_ms");
    ("telemetry.merge_ms", single (fun () -> med (num "merge_ms") ts));
    ("telemetry.doc_ms", med (num "doc_ms") ts);
    ("telemetry.doc_bytes", first "doc_bytes");
    ("campaign.dispatch.spawn_ms", med (num "spawn_ms") ts);
    ("campaign.dispatch.first_entry_ms", med (num "first_entry_ms") ts);
    ("campaign.dispatch.shard_ms_max", med (fun r -> List.fold_left Float.max 0.0 (nums "shard_ms" r)) ts);
    ("campaign.dispatch.worker_idle_ms", med (num "worker_idle_ms") ts);
    ("campaign.dispatch.merge_ms", if sharded then med (num "merge_ms") ts else 0.0);
    ("campaign.dispatch.coordinator_cpu_s", med (num "coordinator_cpu_s") ts);
    ("campaign.dispatch.fresh_ratio", med (num "fresh_ratio") ts);
    ("campaign.checkpoint.entries", first "entries");
    ("campaign.checkpoint.entry_bytes_p50", p50 "entry_bytes");
    ("trace.overhead_pct", overhead);
    ("trace.overhead_iqr_pct", q3 -. q1);
    ( "trace.coverage_pct",
      med
        (fun r ->
          if sharded then 100.0 *. timed_s r /. num "wall_in_s" r
          else
            let sum = ref 0.0 in
            Array.iteri (fun l _ -> sum := !sum +. busy l r) Replica.layer_names;
            100.0 *. !sum /. num "trial_ns" r)
        ts );
    ("trace.fidelity", if st.fidelity = [] then 0.0 else List.fold_left Float.min 1.0 st.fidelity);
  ]

(* Values for every catalog entry, in catalog order; a name the code does
   not compute, or a non-finite value, is a problem. *)
let emit st (catalog : metric list) values =
  List.filter_map
    (fun m ->
      match List.assoc_opt m.name values with
      | Some v when Float.is_finite v -> Some (m, v)
      | Some _ ->
          problem st "%s is not finite" m.name;
          None
      | None ->
          problem st "%s is not computed" m.name;
          None)
    catalog

let metrics_json ms =
  Json.Obj
    (List.map (fun (m, v) -> (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ])) ms)

let record_json st ~trace ms =
  Json.Obj
    [
      ("workload", Json.String st.w.name);
      ("trace", Json.Int trace);
      ("metrics", Json.Obj (List.map (fun (m, v) -> (m.name, Json.Float v)) ms));
    ]

(* ---- one measured run -------------------------------------------------- *)

(* Repetitions continue while another one (as long as the longest so far)
   still fits in [seconds]; a traced run also continues, up to 150 s,
   until it has pooled 108 trial samples (10 beyond the p90). *)
let measured_run ctx w ~seconds ~trace ~record ~perfetto =
  let e2e, layers = catalog () in
  let st = state w in
  let t0 = Clock.wall () in
  let fits longest = Clock.wall () -. t0 +. longest <= seconds in
  add_reference ctx st;
  let ms =
    if trace then begin
      let longest = ref 0.0 in
      let go () =
        st.pairs = []
        || fits !longest
        || (needs_samples ctx st && Clock.wall () -. t0 +. !longest <= 150.0)
      in
      while go () && st.problems = [] do
        let p0 = Clock.wall () in
        add_pair ctx ?perfetto st;
        longest := Float.max !longest (Clock.wall () -. p0)
      done;
      emit st layers (per_layer st)
    end
    else begin
      for _ = 1 to 5 do
        add_setup ctx st
      done;
      let longest = ref 0.0 in
      while (st.runs = [] || fits !longest) && st.problems = [] do
        Option.iter (fun r -> longest := Float.max !longest r.wall_s) (add_run ctx st)
      done;
      emit st e2e (end_to_end st)
    end
  in
  List.iter (fun (m, v) -> Printf.printf "  %-38s %14.6g %s\n" m.name v m.unit_) ms;
  if not trace then begin
    Printf.printf "  setup_s samples (n=%d):%s\n" (List.length st.setups)
      (String.concat "" (List.map (Printf.sprintf " %.6g") st.setups));
    List.iter
      (fun (name, _, l) ->
        Printf.printf "  %s per repetition (n=%d):%s\n" name (List.length l)
          (String.concat "" (List.map (Printf.sprintf " %.6g") l)))
      (timed_values st)
  end;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) st.problems;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
          output_string oc (Json.to_string (record_json st ~trace:(if trace then 1 else 0) ms) ^ "\n")))
    record;
  let correct = st.problems = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 st.attempted));
            ("failed", Json.Int st.failed);
            ("metrics", metrics_json ms);
          ]));
  if correct then 0 else 1

(* ---- the whole suite ---------------------------------------------------- *)

let perfetto_for path (w : Workload.t) =
  Option.map
    (fun p -> Printf.sprintf "%s-%s%s" (Filename.remove_extension p) w.Workload.name (Filename.extension p))
    path

let suite ctx ~rounds ~json ~perfetto =
  let e2e, layers = catalog () in
  let workloads = List.map (fun w -> if ctx.smoke then Workload.smoke w else w) Workload.all in
  let sts = List.map state workloads in
  List.iter (add_reference ctx) sts;
  for _ = 1 to rounds do
    List.iter (fun st -> ignore (add_run ctx st)) sts
  done;
  List.iter
    (fun st ->
      while st.problems = [] && (st.pairs = [] || needs_samples ctx st) do
        add_pair ctx ?perfetto:(perfetto_for perfetto st.w) st
      done)
    sts;
  let results =
    List.map
      (fun st ->
        (* Each untraced repetition on its own, then median/min/max over them. *)
        let per_run =
          List.map (fun r -> emit st e2e (end_to_end { (state st.w) with runs = [ r ]; setups = [ num "setup_s" r ] })) st.runs
        in
        let spread =
          List.map
            (fun m ->
              let vs = List.concat_map (List.filter_map (fun (m', v) -> if m' = m then Some v else None)) per_run in
              let lo, hi = if vs = [] then (0.0, 0.0) else (List.fold_left Float.min infinity vs, List.fold_left Float.max neg_infinity vs) in
              (m, (if vs = [] then 0.0 else Stats.median vs), lo, hi, List.length vs))
            e2e
        in
        let ls = emit st layers (per_layer st) in
        Printf.printf "\n%s (%d untraced runs, %d traced)\n" st.w.name (List.length st.runs) (List.length st.traced);
        Printf.printf "  %-38s %14s %14s %14s\n" "metric" "median" "min" "max";
        List.iter
          (fun (m, v, lo, hi, n) -> Printf.printf "  %-38s %14.6g %14.6g %14.6g %s (n=%d)\n" m.name v lo hi m.unit_ n)
          spread;
        List.iter (fun (m, v) -> Printf.printf "  %-38s %14.6g %s\n" m.name v m.unit_) ls;
        let fnv = match st.runs with r :: _ -> str "doc_fnv" r | [] -> "" in
        Printf.printf "  doc_fnv %s\n" fnv;
        List.iter (fun p -> Printf.printf "  problem: %s\n" p) st.problems;
        (st, spread, ls, List.map (record_json st ~trace:0) per_run, fnv))
      sts
  in
  let problems = List.concat_map (fun (st, _, _, _, _) -> st.problems) results in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "mavr-perfbench");
            ("seed", Json.Int ctx.seed);
            ( "workloads",
              Json.List
                (List.map
                   (fun (st, spread, ls, _, fnv) ->
                     Json.Obj
                       [
                         ("name", Json.String st.w.name);
                         ("doc_fnv", Json.String fnv);
                         ( "end_to_end",
                           Json.Obj
                             (List.map
                                (fun (m, v, lo, hi, n) ->
                                  ( m.name,
                                    Json.Obj
                                      [
                                        ("median", Json.Float v);
                                        ("min", Json.Float lo);
                                        ("max", Json.Float hi);
                                        ("n", Json.Int n);
                                        ("unit", Json.String m.unit_);
                                      ] ))
                                spread) );
                         ("per_layer", metrics_json ls);
                         ("problems", Json.List (List.map (fun p -> Json.String p) st.problems));
                       ])
                   results) );
            ("runs", Json.List (List.concat_map (fun (_, _, _, runs, _) -> runs) results));
          ]
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string ~indent:2 doc ^ "\n")))
    json;
  (results, problems)

(* [emit] already reports every catalog name that is not computed or not
   finite, and [check] every broken invariant; the smoke run adds the
   replica's fidelity. *)
let smoke ctx =
  let results, problems = suite ctx ~rounds:2 ~json:None ~perfetto:None in
  let more =
    List.concat_map
      (fun (st, _, ls, _, _) ->
        match List.find_opt (fun (m, _) -> m.name = "trace.fidelity") ls with
        | Some (_, 1.0) -> []
        | Some (_, f) -> [ Printf.sprintf "%s: trace.fidelity %g" st.w.name f ]
        | None -> [ st.w.name ^ ": no trace.fidelity" ])
      results
  in
  match problems @ more with
  | [] ->
      print_endline "smoke: ok";
      0
  | l ->
      List.iter (fun p -> print_endline ("smoke: " ^ p)) l;
      1

(* ---- compare ------------------------------------------------------------ *)

(* Run records: JSON lines written by --record, or a --json suite document
   (its "runs").  Untraced records only. *)
let load_records path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let lines =
    match Json.of_string s with
    | Ok j when Json.member "runs" j <> None -> (
        match Json.member "runs" j with Some (Json.List l) -> l | _ -> [])
    | _ ->
        List.filter_map
          (fun l -> if String.trim l = "" then None else Result.to_option (Json.of_string l))
          (String.split_on_char '\n' s)
  in
  List.filter_map
    (fun r ->
      match (Option.bind (Json.member "workload" r) Json.to_str, Json.member "metrics" r, Json.member "trace" r) with
      | Some w, Some (Json.Obj ms), (None | Some (Json.Int 0)) ->
          Some (w, List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) ms)
      | _ -> None)
    lines

let compare_files parent change =
  let e2e, _ = catalog () in
  let p = load_records parent and c = load_records change in
  let regressed = ref false in
  Printf.printf "%-16s %-16s %12s %12s %12s %12s %6s  %s\n" "workload" "metric" "parent" "parent_iqr" "change"
    "change_iqr" "pairs" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      let values recs m =
        List.filter_map (fun (w', ms) -> if w' = w.name then List.assoc_opt m ms else None) recs
      in
      List.iter
        (fun m ->
          match (values p m.name, values c m.name) with
          | [], _ | _, [] -> ()
          | pv, cv ->
              let v = Stats.classify ~higher_is_better:m.higher ~bound:m.bound ~parent:pv ~change:cv in
              if v = Stats.Regressed then regressed := true;
              let iqr l = let q1, _, q3 = Stats.quartiles l in q3 -. q1 in
              Printf.printf "%-16s %-16s %12.6g %12.4g %12.6g %12.4g %6d  %s\n" w.name m.name (Stats.median pv)
                (iqr pv) (Stats.median cv) (iqr cv)
                (min (List.length pv) (List.length cv))
                (Stats.verdict_name v))
        e2e)
    Workload.all;
  if !regressed then 1 else 0

(* ---- selftest ----------------------------------------------------------- *)

let selftest () =
  let fails = ref 0 in
  let expect name ok =
    if not ok then begin
      incr fails;
      Printf.printf "FAIL %s\n" name
    end
  in
  let close a b = Float.abs (a -. b) < 1e-9 in
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  expect "quartiles 1..10 = python [2.75, 5.5, 8.25]" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  let q1, q2, q3 = Stats.quartiles [ 4.; 1.; 3.; 2. ] in
  expect "quartiles 1..4 = python [1.25, 2.5, 3.75]" (close q1 1.25 && close q2 2.5 && close q3 3.75);
  expect "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.0);
  expect "p90 of 1..108 leaves 10 above" (close (Stats.percentile 0.9 (List.init 108 (fun i -> float_of_int (i + 1)))) 98.0);
  expect "fnv1a64 empty" (Rep.fnv1a64 "" = "cbf29ce484222325");
  expect "fnv1a64 a" (Rep.fnv1a64 "a" = "af63dc4c8601ec8c");
  let runs base = List.init 10 (fun i -> base +. (0.1 *. float_of_int (i mod 5))) in
  let classify ?(higher_is_better = false) ?(bound = 0.1) parent change =
    Stats.classify ~higher_is_better ~bound ~parent ~change
  in
  expect "10% faster in every pair is improved" (classify (runs 100.) (runs 90.) = Stats.Improved);
  expect "12% slower is regressed" (classify (runs 100.) (runs 112.) = Stats.Regressed);
  expect "higher-is-better drop is regressed" (classify ~higher_is_better:true (runs 100.) (runs 85.) = Stats.Regressed);
  expect "higher-is-better gain is improved" (classify ~higher_is_better:true (runs 100.) (runs 110.) = Stats.Improved);
  expect "noise-level change is unchanged" (classify (runs 100.) (runs 100.05) = Stats.Unchanged);
  expect "gain inside the parent's IQR is unchanged"
    (classify ~bound:0.2 [ 90.; 110.; 92.; 108.; 94.; 106.; 96.; 104.; 98.; 102. ] (List.init 10 (fun _ -> 99.))
    = Stats.Unchanged);
  expect "fewer than 10 pairs cannot improve" (classify [ 100.; 100.1; 100.2 ] [ 90.; 90.1; 90.2 ] = Stats.Unchanged);
  expect "spread wider than the bound is unresolved"
    (classify (List.init 10 (fun i -> 80. +. (5. *. float_of_int i))) (List.init 10 (fun i -> 81. +. (5. *. float_of_int i))) = Stats.Unresolved);
  expect "8 of 10 wins is not improved"
    (classify (runs 100.) (List.init 10 (fun i -> if i < 8 then 90. else 101.)) = Stats.Unchanged);
  let doc cells = Printf.sprintf {|{"grid":{"levels":[{"grid":[%s],"controls":[{"x":0}]}]}}|} cells in
  expect "fidelity identical" (close (fidelity ~reference:(doc {|{"a":1},{"b":2}|}) (doc {|{"a":1},{"b":2}|})) 1.0);
  expect "fidelity one of three" (close (fidelity ~reference:(doc {|{"a":1},{"b":2}|}) (doc {|{"a":9},{"b":9}|})) (1. /. 3.));
  if !fails = 0 then print_endline "selftest: ok" else Printf.printf "selftest: %d failed\n" !fails;
  if !fails = 0 then 0 else 1

(* ---- command line ------------------------------------------------------- *)

let usage =
  "perf.exe [--workload W --seed N --seconds S --trace 0|1] [--json FILE] [--smoke]\n\
  \       perf.exe compare PARENT CHANGE\n\
  \       perf.exe selftest"

let () =
  let mavr = ref "_build/default/bin/mavr_cli.exe" in
  let workload = ref None and seed = ref 0 and seconds = ref 24.0 and trace = ref 0 in
  let smoke_flag = ref false and perfetto = ref None and json = ref None and record = ref None in
  let positional = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME one measured run of this workload");
      ("--seed", Arg.Set_int seed, "N workload seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S how long one measured run lasts (default 24)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--record", Arg.String (fun p -> record := Some p), "FILE append the run's metrics (for compare)");
      ("--json", Arg.String (fun p -> json := Some p), "FILE write the suite's results");
      ("--perfetto", Arg.String (fun p -> perfetto := Some p), "FILE write traced spans (Chrome trace_event)");
      ("--smoke", Arg.Set smoke_flag, " smoke-size workloads");
      ("--mavr", Arg.Set_string mavr, "PATH the mavr CLI whose `serve` the dispatch workload spawns");
    ]
  in
  let code =
    match Arg.parse_argv Sys.argv spec (fun a -> positional := !positional @ [ a ]) usage with
    | exception Arg.Bad m ->
        prerr_string m;
        2
    | exception Arg.Help m ->
        print_string m;
        0
    | () -> (
        let ctx = { mavr = !mavr; smoke = !smoke_flag; seed = !seed } in
        let find name =
          match Workload.find name with
          | Some w -> Some (if ctx.smoke then Workload.smoke w else w)
          | None -> None
        in
        match (!positional, !workload) with
        | [ "rep"; mode; name; seed; doc ], _ ->
            Rep.main ~mode ~w:(Option.get (find name)) ~seed:(int_of_string seed) ~doc_path:doc
              ~mavr:!mavr ~perfetto:!perfetto;
            0
        | [ "compare"; parent; change ], _ -> compare_files parent change
        | [ "selftest" ], _ -> selftest ()
        | _ :: _, _ ->
            prerr_endline usage;
            2
        | [], workload -> (
            (try Unix.mkdir Rep.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            match (Option.map find workload, ctx.smoke) with
            | Some (Some w), _ ->
                measured_run ctx w ~seconds:!seconds ~trace:(!trace = 1) ~record:!record ~perfetto:!perfetto
            | Some None, _ ->
                prerr_endline ("unknown workload " ^ Option.get workload);
                2
            | None, true -> if selftest () = 0 then smoke ctx else 1
            | None, false ->
                let _, problems = suite ctx ~rounds:3 ~json:!json ~perfetto:!perfetto in
                if problems = [] then 0 else 1))
  in
  exit code
