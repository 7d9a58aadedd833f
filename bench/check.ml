(* Bench smoke checker, wired into `dune runtest`: the --quick --json
   document must parse with the in-tree codec and carry every headline
   key downstream tooling reads (BENCH_PR<n>.json consumers, EXPERIMENTS
   bookkeeping).  Exits nonzero on any miss. *)

module Json = Mavr_telemetry.Json

let required =
  [
    [ "schema" ];
    [ "quick" ];
    [ "table1"; "avg_functions" ];
    [ "table2"; "avg_startup_ms" ];
    [ "effectiveness"; "seeds" ];
    [ "effectiveness"; "succeeded" ];
    [ "decode_cache"; "cached_insn_per_s" ];
    [ "decode_cache"; "speedup" ];
    [ "decode_cache"; "arch_state_identical" ];
    [ "decode_cache"; "wall_s" ];
    [ "decode_cache"; "cpu_s" ];
    [ "superblock"; "legacy_insn_per_s" ];
    [ "superblock"; "off_insn_per_s" ];
    [ "superblock"; "on_insn_per_s" ];
    [ "superblock"; "speedup_vs_step" ];
    [ "superblock"; "speedup_vs_cached" ];
    [ "superblock"; "arch_state_identical" ];
    [ "superblock"; "wall_s" ];
    [ "superblock"; "cpu_s" ];
    [ "telemetry_overhead"; "disabled_insn_per_s" ];
    [ "telemetry_overhead"; "enabled_insn_per_s" ];
    [ "telemetry_overhead"; "enabled_overhead_pct" ];
    [ "telemetry_overhead"; "wall_s" ];
    [ "telemetry_overhead"; "cpu_s" ];
    [ "campaign"; "host_domains" ];
    [ "campaign"; "census_scaling" ];
    [ "campaign"; "grid_scaling" ];
    [ "campaign"; "randomize_scaling" ];
    [ "static_analysis"; "arduplane"; "coverage_pct" ];
    [ "static_analysis"; "arduplane"; "lint_findings" ];
    [ "static_analysis"; "arduplane"; "lint_findings_randomized" ];
    [ "static_analysis"; "census_base_gadgets" ];
    [ "static_analysis"; "census_feasible_layouts" ];
    [ "fault_robustness"; "profile" ];
    [ "fault_robustness"; "levels" ];
    [ "fault_robustness"; "mavr_takeovers" ];
    [ "fault_robustness"; "identical_j1_j2" ];
    [ "fault_robustness"; "wall_s" ];
    [ "fault_robustness"; "cpu_s" ];
    [ "tracing"; "off_wall_s" ];
    [ "tracing"; "on_wall_s" ];
    [ "tracing"; "overhead_pct" ];
    [ "tracing"; "identical" ];
    [ "tracing"; "trace_events" ];
    [ "tracing"; "progress_lines" ];
    [ "dataflow"; "arduplane"; "static_bound" ];
    [ "dataflow"; "arduplane"; "dynamic_high_water" ];
    [ "dataflow"; "arduplane"; "bound_holds" ];
    [ "dataflow"; "arduplane"; "taint_findings_mavr" ];
    [ "dataflow"; "arduplane"; "taint_findings_patched" ];
    [ "dataflow"; "arduplane"; "validator_ok" ];
    [ "dataflow"; "arduplane"; "stackdepth_ms" ];
    [ "dataflow"; "arduplane"; "taint_ms" ];
    [ "dataflow"; "arduplane"; "validate_ms" ];
    [ "resumable"; "tasks" ];
    [ "resumable"; "full_wall_s" ];
    [ "resumable"; "resume_wall_s" ];
    [ "resumable"; "resume_frontier" ];
    [ "resumable"; "resume_identical" ];
    [ "resumable"; "early_stop" ];
    [ "dispatch"; "tasks" ];
    [ "dispatch"; "shards" ];
    [ "dispatch"; "workers" ];
    [ "dispatch"; "single_wall_s" ];
    [ "dispatch"; "dispatch_wall_s" ];
    [ "dispatch"; "entries" ];
    [ "dispatch"; "worker_failures" ];
    [ "dispatch"; "identical" ];
  ]

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | Error e ->
      Printf.eprintf "bench smoke: %s does not parse: %s\n" path e;
      exit 1
  | Ok doc -> doc

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: check.exe BENCH.json [BASELINE_PR5.json]";
    exit 2
  end;
  let path = Sys.argv.(1) in
  (* The optional second document is a *previous PR's* committed bench
     artifact: with it present, the absolute insn-rate gates below compare
     this run against that run (same machine, stored numbers). *)
  let baseline = if Array.length Sys.argv > 2 then Some (load Sys.argv.(2)) else None in
  let doc = load path in
      let missing = List.filter (fun p -> Json.path p doc = None) required in
      List.iter
        (fun p -> Printf.eprintf "bench smoke: missing key %s\n" (String.concat "." p))
        missing;
      if missing <> [] then exit 1;
      (* The campaign scaling rows carry the determinism contract into the
         committed artifact: every row must time both clocks and must have
         reproduced the jobs=1 document byte-for-byte. *)
      let scaling_ok =
        List.for_all
          (fun section ->
            match Json.path [ "campaign"; section ] doc with
            | Some (Json.List rows) when rows <> [] ->
                List.for_all
                  (fun row ->
                    List.for_all
                      (fun k -> Json.member k row <> None)
                      [ "jobs"; "wall_s"; "cpu_s"; "speedup"; "items_per_s" ]
                    && Json.member "identical" row = Some (Json.Bool true)
                    ||
                    (Printf.eprintf
                       "bench smoke: bad campaign.%s row: %s\n" section (Json.to_string row);
                     false))
                  rows
            | _ ->
                Printf.eprintf "bench smoke: campaign.%s is not a non-empty list\n" section;
                false)
          [ "census_scaling"; "grid_scaling"; "randomize_scaling" ]
      in
      if not scaling_ok then exit 1;
      (* The fault sweep's own contract: the faulted campaign document is
         jobs-invariant, MAVR concedes nothing at any intensity, and every
         level row carries its detection/false-alarm numbers. *)
      let fault_ok =
        Json.path [ "fault_robustness"; "identical_j1_j2" ] doc = Some (Json.Bool true)
        || (prerr_endline "bench smoke: fault_robustness not jobs-invariant"; false)
      in
      let fault_ok =
        fault_ok
        && (Json.path [ "fault_robustness"; "mavr_takeovers" ] doc = Some (Json.Int 0)
           || (prerr_endline "bench smoke: fault_robustness reports MAVR takeovers"; false))
      in
      let fault_ok =
        fault_ok
        &&
        match Json.path [ "fault_robustness"; "levels" ] doc with
        | Some (Json.List rows) when rows <> [] ->
            List.for_all
              (fun row ->
                List.for_all
                  (fun k -> Json.member k row <> None)
                  [
                    "level"; "mavr_takeovers"; "mavr_detections"; "mavr_false_alarm_rate";
                    "undefended_false_alarm_rate";
                  ]
                ||
                (Printf.eprintf "bench smoke: bad fault_robustness level row: %s\n"
                   (Json.to_string row);
                 false))
              rows
        | _ ->
            prerr_endline "bench smoke: fault_robustness.levels is not a non-empty list";
            false
      in
      if not fault_ok then exit 1;
      (* PR-6 semantic gates.  Equivalence must hold in every run; the
         throughput gates are only meaningful on a full-budget run —
         --quick budgets are too small for stable rates (and pay the lazy
         trace-compile cost without amortizing it), so they gate the
         committed BENCH_PR6.json, not the CI smoke document.

         Two speedup denominators, deliberately:
         - [speedup_vs_step] is the headline ratio against the PR-5
           decode_cache baseline (the per-step/full-decode dispatch),
           re-measured in the same run.  The gate is 2x, not 3x, because
           PR-6's shared-path work (branchless flag materialization,
           inlined register/SREG accessors) sped the per-step engine up
           too — the in-run baseline is ~25% faster than the one stored
           in BENCH_PR5.json.  The 3x claim against the *stored* PR-5
           number is gated separately below when that artifact is given.
         - [speedup_vs_cached] only asserts the fused engine is not a
           regression over cached stepping on this diffuse firmware
           (hottest trace ~4% of retired instructions; see EXPERIMENTS). *)
      let num ?(doc = doc) p =
        match Json.path p doc with
        | Some (Json.Float f) -> Some f
        | Some (Json.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let gate_ratio what p threshold =
        match num p with
        | Some s when s >= threshold -> true
        | Some s ->
            Printf.eprintf "bench smoke: %s %.2fx below the %.1fx gate\n" what s threshold;
            false
        | None ->
            Printf.eprintf "bench smoke: %s missing\n" what;
            false
      in
      let sb_ok =
        Json.path [ "superblock"; "arch_state_identical" ] doc = Some (Json.Bool true)
        || (prerr_endline "bench smoke: superblock engine not architecturally identical"; false)
      in
      let quick_run = Json.path [ "quick" ] doc = Some (Json.Bool true) in
      let sb_ok =
        sb_ok
        && (quick_run
           || gate_ratio "superblock speedup_vs_step" [ "superblock"; "speedup_vs_step" ] 2.0)
      in
      let sb_ok =
        sb_ok
        && (quick_run
           || gate_ratio "superblock speedup_vs_cached" [ "superblock"; "speedup_vs_cached" ] 1.0)
      in
      (* The ISSUE's absolute gate: superblock insn rate >= 3x the PR-5
         decode_cache baseline as committed in BENCH_PR5.json (same
         machine, stored run). *)
      let sb_ok =
        sb_ok
        &&
        match baseline with
        | None -> true
        | Some base -> (
            match (num [ "superblock"; "on_insn_per_s" ],
                   num ~doc:base [ "decode_cache"; "legacy_insn_per_s" ]) with
            | Some _, Some _ when quick_run -> true
            | Some on, Some legacy when on >= 3.0 *. legacy -> true
            | Some on, Some legacy ->
                Printf.eprintf
                  "bench smoke: superblock rate %.0f below 3x the stored PR-5 baseline %.0f\n"
                  on legacy;
                false
            | _ ->
                prerr_endline "bench smoke: baseline comparison keys missing";
                false)
      in
      let sb_ok =
        sb_ok
        && (quick_run
           ||
           match num [ "telemetry_overhead"; "enabled_overhead_pct" ] with
           | Some p when p <= 15.0 -> true
           | Some p ->
               Printf.eprintf "bench smoke: telemetry overhead %.1f%% above the 15%% gate\n" p;
               false
           | None -> prerr_endline "bench smoke: telemetry overhead missing"; false)
      in
      if not sb_ok then exit 1;
      (* PR-7 observability gates.  Arming the tracer and progress stream
         can never change a campaign result; the produced trace must be
         non-empty; and on a full-budget run the instrumentation tax is
         bounded at 10% wall clock (quick budgets are too short for a
         stable ratio, so the overhead gate applies to the committed
         artifact only). *)
      let tr_ok =
        Json.path [ "tracing"; "identical" ] doc = Some (Json.Bool true)
        || (prerr_endline "bench smoke: tracing perturbed the campaign document"; false)
      in
      let tr_ok =
        tr_ok
        && (match num [ "tracing"; "trace_events" ] with
           | Some n when n > 0.0 -> true
           | _ -> prerr_endline "bench smoke: traced run produced no span events"; false)
      in
      let tr_ok =
        tr_ok
        && (quick_run
           ||
           match num [ "tracing"; "overhead_pct" ] with
           | Some p when p <= 10.0 -> true
           | Some p ->
               Printf.eprintf "bench smoke: tracing overhead %.1f%% above the 10%% gate\n" p;
               false
           | None -> prerr_endline "bench smoke: tracing overhead missing"; false)
      in
      if not tr_ok then exit 1;
      (* PR-8 data-flow gates — semantic claims, so they apply to quick
         runs too: on every profile the static stack bound dominates the
         measured SP watermark, the uplink taint analysis rediscovers the
         §IV unchecked copy on the vulnerable toolchain and stays silent
         on the bounds-checked one, and the translation-validator accepts
         the fresh randomized layout. *)
      let df_ok =
        match Json.path [ "dataflow" ] doc with
        | Some (Json.Obj rows) when rows <> [] ->
            List.for_all
              (fun (profile, row) ->
                let bool_true k = Json.member k row = Some (Json.Bool true) in
                let int_of k =
                  match Json.member k row with Some (Json.Int i) -> Some i | _ -> None
                in
                let ok = ref true in
                let complain fmt =
                  Printf.ksprintf
                    (fun s ->
                      Printf.eprintf "bench smoke: dataflow.%s: %s\n" profile s;
                      ok := false)
                    fmt
                in
                if not (bool_true "bound_holds") then
                  complain "static stack bound does not dominate the dynamic watermark";
                if not (bool_true "validator_ok") then
                  complain "translation-validator rejected the randomized layout";
                (match int_of "taint_findings_mavr" with
                | Some n when n >= 1 -> ()
                | _ -> complain "taint lost the unchecked PARAM_SET copy on the mavr build");
                (match int_of "taint_findings_patched" with
                | Some 0 -> ()
                | _ -> complain "taint is not silent on the bounds-checked build");
                !ok)
              rows
        | _ ->
            prerr_endline "bench smoke: dataflow is not a non-empty object";
            false
      in
      if not df_ok then exit 1;
      (* PR-9 resumable-campaign gates — semantic claims, so they apply
         to quick runs too: a half-frontier resume reproduces the full
         document byte-for-byte, every early-stop row is jobs-invariant
         with explicit skip accounting, and the loosest target actually
         saves trials (the policy is not vacuous at bench budgets). *)
      let rs_ok =
        Json.path [ "resumable"; "resume_identical" ] doc = Some (Json.Bool true)
        || (prerr_endline "bench smoke: resumed campaign not byte-identical"; false)
      in
      let skipped_of row =
        match Json.member "trials_skipped" row with Some (Json.Int n) -> Some n | _ -> None
      in
      let rs_ok =
        rs_ok
        &&
        match Json.path [ "resumable"; "early_stop" ] doc with
        | Some (Json.List rows) when rows <> [] ->
            List.for_all
              (fun row ->
                Json.member "identical_j1_j4" row = Some (Json.Bool true)
                && (match skipped_of row with Some n -> n >= 0 | None -> false)
                && Json.member "saved_pct" row <> None
                ||
                (Printf.eprintf "bench smoke: bad resumable.early_stop row: %s\n"
                   (Json.to_string row);
                 false))
              rows
            && (List.exists (fun row -> match skipped_of row with Some n -> n > 0 | None -> false)
                  rows
               || (prerr_endline "bench smoke: early stopping saved zero trials at every target";
                   false))
        | _ ->
            prerr_endline "bench smoke: resumable.early_stop is not a non-empty list";
            false
      in
      if not rs_ok then exit 1;
      (* PR-10 dispatch gates — the sharded-and-merged document is
         byte-identical to the single-host one, the merged frontier
         covers every task, and the healthy-pool run lost no worker. *)
      let dp_ok =
        (Json.path [ "dispatch"; "identical" ] doc = Some (Json.Bool true)
        || (prerr_endline "bench smoke: dispatched campaign not byte-identical"; false))
        && (match
              (Json.path [ "dispatch"; "entries" ] doc, Json.path [ "dispatch"; "tasks" ] doc)
            with
           | Some (Json.Int e), Some (Json.Int t) when e = t && t > 0 -> true
           | _ ->
               prerr_endline "bench smoke: dispatch merged frontier incomplete";
               false)
        &&
        match Json.path [ "dispatch"; "worker_failures" ] doc with
        | Some (Json.Int 0) -> true
        | _ ->
            prerr_endline "bench smoke: dispatch reported worker failures on a healthy pool";
            false
      in
      if not dp_ok then exit 1;
      (match Option.bind (Json.path [ "schema" ] doc) Json.to_str with
      | Some "mavr-bench" -> ()
      | Some other ->
          Printf.eprintf "bench smoke: unexpected schema %S\n" other;
          exit 1
      | None ->
          prerr_endline "bench smoke: schema is not a string";
          exit 1);
      Printf.printf "bench smoke: %s OK (%d keys present)\n" path (List.length required)
