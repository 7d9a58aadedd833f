(* The span tracer and progress stream (PR-7): nesting and view order,
   trace_event export shape, the timing-strip jobs-invariance contract
   through the campaign engine, recorder interop, merge semantics, the
   heartbeat stream's seq discipline, and per-domain pool stats. *)

module Json = Mavr_telemetry.Json
module Span = Mavr_telemetry.Span
module Recorder = Mavr_telemetry.Recorder
module Metrics = Mavr_telemetry.Metrics
module Engine = Mavr_campaign.Engine
module Pool = Mavr_campaign.Pool
module Progress = Mavr_campaign.Progress

(* A deterministic clock the tests can step by hand: wall advances as
   told, cpu at half rate — so exported durations are predictable. *)
let fake_clock () =
  let now = ref 0.0 in
  let clock = { Span.wall = (fun () -> !now); cpu = (fun () -> !now /. 2.0) } in
  (clock, fun dt -> now := !now +. dt)

(* ---- nesting, views, lane order ---- *)

let test_nesting_and_views () =
  let clock, tick = fake_clock () in
  let t = Span.create ~clock () in
  let a = Span.lane t ~sort:1 "alpha" in
  let b = Span.lane t ~sort:0 "beta" in
  Span.span a "outer" (fun () ->
      tick 1.0;
      Span.span a "inner" (fun () -> tick 0.5);
      Span.instant a ~args:[ ("k", Json.Int 7) ] "mark");
  Span.span b "solo" (fun () -> tick 0.25);
  Alcotest.(check int) "event count" 4 (Span.event_count t);
  Alcotest.(check int) "lane count" 2 (Span.lane_count t);
  match Span.views t with
  | [ v1; v2; v3; v4 ] ->
      (* beta sorts first (sort 0), then alpha; within alpha the inner
         span completes before the instant, which precedes outer. *)
      Alcotest.(check string) "lane order" "beta" v1.Span.v_lane;
      Alcotest.(check string) "solo" "solo" v1.Span.v_name;
      Alcotest.(check string) "inner first" "inner" v2.Span.v_name;
      Alcotest.(check int) "inner depth" 1 v2.Span.v_depth;
      Alcotest.(check string) "instant next" "mark" v3.Span.v_name;
      Alcotest.(check bool) "instant flag" true v3.Span.v_instant;
      Alcotest.(check bool) "instant arg kept" true (List.mem_assoc "k" v3.Span.v_args);
      Alcotest.(check string) "outer last" "outer" v4.Span.v_name;
      Alcotest.(check int) "outer depth" 0 v4.Span.v_depth
  | vs -> Alcotest.failf "expected 4 views, got %d" (List.length vs)

let test_span_closes_on_raise () =
  let clock, tick = fake_clock () in
  let t = Span.create ~clock () in
  let l = Span.lane t "l" in
  (try Span.span l "boom" (fun () -> tick 1.0; failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Span.event_count t);
  (* The stack is clean again: a fresh span nests at depth 0. *)
  Span.span l "after" (fun () -> ());
  match Span.views t with
  | [ _; v ] -> Alcotest.(check int) "depth reset" 0 v.Span.v_depth
  | _ -> Alcotest.fail "expected 2 views"

(* ---- trace_event export ---- *)

let test_trace_event_roundtrip () =
  let clock, tick = fake_clock () in
  let t = Span.create ~clock () in
  let l = Span.lane t "work" in
  Span.span l "phase" (fun () -> tick 3.0);
  let c = Span.lane t ~domain:Span.Cycles "sim" in
  Span.cycle_instant c ~cycle:100 "flight";
  let doc =
    match Json.of_string (Json.to_string (Span.to_trace_event t)) with
    | Ok d -> d
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  let events = match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents"
  in
  let phase_of ev = Option.bind (Json.member "ph" ev) Json.to_str in
  let named n ev = Option.bind (Json.member "name" ev) Json.to_str = Some n in
  (* Metadata names both processes and both lanes. *)
  Alcotest.(check int) "process_name metadata" 2
    (List.length (List.filter (fun e -> phase_of e = Some "M" && named "process_name" e) events));
  (* The host complete event carries the fake clock's 3 s as 3e6 µs. *)
  (match List.find_opt (named "phase") events with
  | Some ev ->
      Alcotest.(check (option (float 1.0))) "dur us" (Some 3_000_000.0)
        (Option.bind (Json.member "dur" ev) Json.to_float);
      Alcotest.(check (option int)) "host pid" (Some 1)
        (Option.bind (Json.member "pid" ev) Json.to_int)
  | None -> Alcotest.fail "host span not exported");
  (* The cycles event keeps its integer cycle stamp under pid 2. *)
  match List.find_opt (named "flight") events with
  | Some ev ->
      Alcotest.(check (option int)) "cycle ts" (Some 100)
        (Option.bind (Json.member "ts" ev) Json.to_int);
      Alcotest.(check (option int)) "cycles pid" (Some 2)
        (Option.bind (Json.member "pid" ev) Json.to_int)
  | None -> Alcotest.fail "cycles event not exported"

let test_strip_timing_zeroes_host_only () =
  let clock, tick = fake_clock () in
  let t = Span.create ~clock () in
  let l = Span.lane t "work" in
  Span.span l "phase" (fun () -> tick 3.0);
  let c = Span.lane t ~domain:Span.Cycles "sim" in
  Span.cycle_instant c ~cycle:42 "tick";
  let doc =
    match Json.of_string (Json.to_string (Span.to_trace_event ~strip_timing:true t)) with
    | Ok d -> d
    | Error e -> Alcotest.failf "stripped export does not parse: %s" e
  in
  let events = match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents"
  in
  let named n ev = Option.bind (Json.member "name" ev) Json.to_str = Some n in
  (match List.find_opt (named "phase") events with
  | Some ev ->
      Alcotest.(check (option int)) "host ts zeroed" (Some 0)
        (Option.bind (Json.member "ts" ev) Json.to_int);
      Alcotest.(check (option int)) "host dur zeroed" (Some 0)
        (Option.bind (Json.member "dur" ev) Json.to_int)
  | None -> Alcotest.fail "host span missing");
  match List.find_opt (named "tick") events with
  | Some ev ->
      Alcotest.(check (option int)) "cycle stamp kept" (Some 42)
        (Option.bind (Json.member "ts" ev) Json.to_int)
  | None -> Alcotest.fail "cycle instant missing"

(* ---- the jobs-invariance contract through the engine ---- *)

let traced_engine_run ~jobs =
  let t = Span.create () in
  Engine.iter_indices ~jobs ~seeds:(Engine.task_seeds ~seed:9 ~tasks:8)
    ~indices:(Array.init 8 Fun.id) (fun ~index ~rng ->
      (* Deterministic per-task content: an instant whose arg derives
         from the split seed, plus a nested span. *)
      let l = Span.lane t ~sort:index (Printf.sprintf "task-%04d" index) in
      Span.instant l ~args:[ ("draw", Json.Int (Mavr_prng.Splitmix.next rng land 0xffff) ) ]
        "draw";
      ignore (Span.span l "body" (fun () -> index * index)));
  t

let test_stripped_export_jobs_invariant () =
  let t1 = traced_engine_run ~jobs:1 in
  let t4 = traced_engine_run ~jobs:4 in
  Alcotest.(check string) "stripped trace_event identical"
    (Json.to_string (Span.to_trace_event ~strip_timing:true t1))
    (Json.to_string (Span.to_trace_event ~strip_timing:true t4))

(* ---- recorder interop ---- *)

let test_of_recorder () =
  let r = Recorder.create ~capacity:16 in
  Recorder.span_begin r ~cycle:100 "flash";
  Recorder.record r ~cycle:150 ~value:3 "inject";
  Recorder.span_end r ~cycle:400 "flash";
  Recorder.span_end r ~cycle:500 "orphan";
  let t = Span.create () in
  let l = Span.lane t ~domain:Span.Cycles "rig" in
  Span.of_recorder l (Recorder.events r);
  let names = List.map (fun v -> (v.Span.v_name, v.Span.v_instant)) (Span.views t) in
  (* The point lands first (cycle 150 precedes the span's close at 400);
     the unmatched end degrades to an instant rather than vanishing. *)
  Alcotest.(check bool) "point kept" true (List.mem ("inject", true) names);
  Alcotest.(check bool) "span matched" true (List.mem ("flash", false) names);
  Alcotest.(check bool) "orphan end degraded" true (List.mem ("orphan.end", true) names)

(* ---- misuse guards ---- *)

let test_domain_guards () =
  let t = Span.create () in
  let h = Span.lane t "host-lane" in
  let c = Span.lane t ~domain:Span.Cycles "cycle-lane" in
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "domain change rejected" true
    (raises (fun () -> Span.lane t ~domain:Span.Cycles "host-lane"));
  Alcotest.(check bool) "host op on cycles lane" true
    (raises (fun () -> Span.instant c "x"));
  Alcotest.(check bool) "cycle op on host lane" true
    (raises (fun () -> Span.cycle_instant h ~cycle:1 "x"));
  Alcotest.(check bool) "end without begin" true (raises (fun () -> Span.end_span h))

(* ---- progress stream ---- *)

let test_progress_seq_and_fields () =
  let lines = ref [] in
  let p = Progress.create ~interval_s:0.0 ~sink:(fun l -> lines := l :: !lines) () in
  Progress.on_heartbeat p (fun () -> [ ("extra", Json.Int 99) ]);
  Progress.add_total p 3;
  Progress.task_done p;
  Progress.task_done p;
  Progress.task_done p;
  Progress.emit p ~reason:"final";
  Alcotest.(check int) "tasks done" 3 (Progress.tasks_done p);
  Alcotest.(check int) "total" 3 (Progress.total p);
  let parsed =
    List.rev_map
      (fun l -> match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "progress line does not parse: %s" e)
      !lines
  in
  Alcotest.(check int) "lines emitted" (List.length parsed) (Progress.lines_emitted p);
  List.iteri
    (fun i j ->
      Alcotest.(check (option int)) "seq gap-free" (Some (i + 1))
        (Option.bind (Json.member "seq" j) Json.to_int);
      Alcotest.(check bool) "provider field present" true (Json.member "extra" j <> None);
      let d = Option.bind (Json.member "done" j) Json.to_int in
      let total = Option.bind (Json.member "total" j) Json.to_int in
      Alcotest.(check bool) "done <= total" true (d <= total))
    parsed;
  (* The frontier line (third task) is a heartbeat; the explicit emit is
     the stream's only final line. *)
  Alcotest.(check (list (option string))) "reasons"
    [ Some "heartbeat"; Some "heartbeat"; Some "heartbeat"; Some "final" ]
    (List.map (fun j -> Option.bind (Json.member "reason" j) Json.to_str) parsed);
  (match List.rev parsed with
  | last :: _ ->
      Alcotest.(check (option string)) "final reason" (Some "final")
        (Option.bind (Json.member "reason" last) Json.to_str);
      Alcotest.(check (option int)) "final done" (Some 3)
        (Option.bind (Json.member "done" last) Json.to_int)
  | [] -> Alcotest.fail "no lines emitted");
  match Progress.create ~interval_s:(-1.0) ~sink:ignore () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative interval accepted"

let test_progress_interval_gate () =
  (* A huge interval lets only interval-exempt emissions through: the
     very first completion (last_emit starts at -inf), the final-task
     completion, and forced emits. *)
  let n = ref 0 in
  let p = Progress.create ~interval_s:3600.0 ~sink:(fun _ -> incr n) () in
  Progress.add_total p 3;
  Progress.task_done p;
  Alcotest.(check int) "first completion emits" 1 !n;
  Progress.task_done p;
  Alcotest.(check int) "gated mid-run" 1 !n;
  Progress.task_done p;
  Alcotest.(check int) "final completion emits" 2 !n

(* ---- pool utilization stats ---- *)

let test_pool_stats () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Engine.iter_indices ~pool ~seeds:(Engine.task_seeds ~seed:4 ~tasks:32)
        ~indices:(Array.init 32 Fun.id) (fun ~index:_ ~rng:_ -> ());
      let stats = Pool.stats pool in
      Alcotest.(check int) "one slot per domain" (Pool.jobs pool) (Array.length stats);
      let total = Array.fold_left (fun acc s -> acc + s.Pool.tasks_run) 0 stats in
      Alcotest.(check int) "every task accounted to a slot" 32 total;
      Array.iter
        (fun s -> Alcotest.(check bool) "busy time non-negative" true (s.Pool.busy_s >= 0.0))
        stats)

let () =
  Alcotest.run "span"
    [
      ( "tracer",
        [
          Alcotest.test_case "nesting and views" `Quick test_nesting_and_views;
          Alcotest.test_case "closes on raise" `Quick test_span_closes_on_raise;
          Alcotest.test_case "trace_event round-trip" `Quick test_trace_event_roundtrip;
          Alcotest.test_case "strip zeroes host only" `Quick test_strip_timing_zeroes_host_only;
          Alcotest.test_case "stripped export jobs-invariant" `Quick
            test_stripped_export_jobs_invariant;
          Alcotest.test_case "recorder interop" `Quick test_of_recorder;
          Alcotest.test_case "domain guards" `Quick test_domain_guards;
        ] );
      ( "progress",
        [
          Alcotest.test_case "seq and fields" `Quick test_progress_seq_and_fields;
          Alcotest.test_case "interval gate" `Quick test_progress_interval_gate;
        ] );
      ( "pool", [ Alcotest.test_case "utilization stats" `Quick test_pool_stats ] );
    ]
