(* PR 9's resumable-campaign contract: checkpointed Monte Carlo runs
   resume bit-identically after an interruption, corrupt or mismatched
   checkpoints are refused, adaptive early stopping accounts for every
   skipped trial without touching non-stopped cells, pool stats stay
   coherent under concurrent readers, and the progress stream always
   ends with its final line. *)

module Checkpoint = Mavr_campaign.Checkpoint
module Early_stop = Mavr_campaign.Early_stop
module Progress = Mavr_campaign.Progress
module Pool = Mavr_campaign.Pool
module Clock = Mavr_campaign.Clock
module Montecarlo = Mavr_sim.Montecarlo
module Metrics = Mavr_telemetry.Metrics
module Json = Mavr_telemetry.Json

let profile_name = Helpers.tiny_profile.Mavr_firmware.Profile.name
let build = Helpers.build_mavr

let spec ?early_stop ~trials () =
  Montecarlo.checkpoint_spec ~ms:600 ?early_stop ~profile:profile_name ~seed:11 ~trials ()

let grid_json g = Json.to_string (Montecarlo.to_json g)

let tmp name =
  let path = Filename.temp_file ("mavr_ck_" ^ name) ".jsonl" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_lines path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

(* ---- checkpoint writer / loader ------------------------------------- *)

let test_spec_hash_sensitivity () =
  let base = spec ~trials:1 () in
  let bump mk = Alcotest.(check bool) "hash differs" false ((mk ()).Checkpoint.spec_hash = base.Checkpoint.spec_hash) in
  bump (fun () -> Montecarlo.checkpoint_spec ~ms:601 ~profile:profile_name ~seed:11 ~trials:1 ());
  bump (fun () -> Montecarlo.checkpoint_spec ~ms:600 ~profile:profile_name ~seed:12 ~trials:1 ());
  bump (fun () -> Montecarlo.checkpoint_spec ~ms:600 ~profile:profile_name ~seed:11 ~trials:2 ());
  bump (fun () -> Montecarlo.checkpoint_spec ~ms:600 ~profile:profile_name ~seed:11 ~trials:1 ~traced:true ());
  bump (fun () ->
      Montecarlo.checkpoint_spec ~ms:600 ~profile:profile_name ~seed:11 ~trials:1
        ~early_stop:(Early_stop.create ~target:0.3 ()) ())

let test_checkpoint_roundtrip () =
  let path = tmp "roundtrip" in
  let s = spec ~trials:1 () in
  let ck = Checkpoint.create ~path ~every:1 s in
  Checkpoint.record ck ~index:3 (Json.Obj [ ("x", Json.Int 3) ]);
  Checkpoint.skip ck ~index:7 ~reason:"early_stop";
  Checkpoint.close ck;
  match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (file_spec, entries) ->
      Alcotest.(check string) "spec hash" s.Checkpoint.spec_hash file_spec.Checkpoint.spec_hash;
      Alcotest.(check int) "entries" 2 (List.length entries);
      (match List.assoc 3 entries with
      | Checkpoint.Result (Json.Obj [ ("x", Json.Int 3) ]) -> ()
      | _ -> Alcotest.fail "result entry mangled");
      (match List.assoc 7 entries with
      | Checkpoint.Skip "early_stop" -> ()
      | _ -> Alcotest.fail "skip entry mangled")

let test_snapshot_interval_checked () =
  let path = tmp "every" in
  let s = spec ~trials:1 () in
  Checkpoint.close (Checkpoint.create ~path s);
  Alcotest.check_raises "create refuses every < 1"
    (Invalid_argument "Campaign.Checkpoint.create: every must be >= 1") (fun () ->
      ignore (Checkpoint.create ~path ~every:0 s));
  Alcotest.check_raises "resume refuses every < 1"
    (Invalid_argument "Campaign.Checkpoint.resume: every must be >= 1") (fun () ->
      ignore (Checkpoint.resume ~path ~every:0 s))

(* ---- resume determinism --------------------------------------------- *)

let baseline = lazy (Montecarlo.run ~jobs:1 ~ms:600 ~seed:11 ~trials:1 (build ()))

(* A complete checkpointed run; the snapshot file (sorted by index) is the
   source we truncate to simulate a crash after K completed tasks. *)
let full_run =
  lazy
    (let path = tmp "full" in
     let ck = Checkpoint.create ~path ~every:1 (spec ~trials:1 ()) in
     let g = Montecarlo.run ~jobs:1 ~ms:600 ~seed:11 ~trials:1 ~checkpoint:ck (build ()) in
     Checkpoint.close ck;
     (path, g))

let test_checkpointing_does_not_perturb () =
  let _, g = Lazy.force full_run in
  Alcotest.(check string) "checkpointed == plain" (grid_json (Lazy.force baseline)) (grid_json g)

let test_resume_bit_identical () =
  let full_path, _ = Lazy.force full_run in
  let expect = grid_json (Lazy.force baseline) in
  let lines = read_lines full_path in
  let header, entries =
    match lines with h :: rest -> (h, rest) | [] -> Alcotest.fail "empty checkpoint"
  in
  let tasks = List.length entries in
  List.iter
    (fun k ->
      List.iter
        (fun jobs ->
          let path = tmp (Printf.sprintf "k%d_j%d" k jobs) in
          write_lines path (header :: List.filteri (fun i _ -> i < k) entries);
          match Checkpoint.resume ~path (spec ~trials:1 ()) with
          | Error e -> Alcotest.failf "resume (k=%d) failed: %s" k e
          | Ok ck ->
              Alcotest.(check int) (Printf.sprintf "k=%d primed" k) k (Checkpoint.completed ck);
              let g = Montecarlo.run ~jobs ~ms:600 ~seed:11 ~trials:1 ~checkpoint:ck (build ()) in
              Checkpoint.close ck;
              Alcotest.(check string)
                (Printf.sprintf "resumed k=%d jobs=%d == uninterrupted" k jobs)
                expect (grid_json g);
              Alcotest.(check int)
                (Printf.sprintf "k=%d frontier complete" k)
                tasks (Checkpoint.completed ck))
        [ 1; 4 ])
    [ 1; 5; 11 ]

(* Replace every occurrence of [sub] in [s] (tiny, Str-free). *)
let replace_sub ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_string b (String.sub s !i (String.length s - !i));
  Buffer.contents b

(* Change the first digit after [sub] in [s] to another digit. *)
let flip_digit_after ~sub s =
  let b = Bytes.of_string s in
  let rec find i = if String.sub s i (String.length sub) = sub then i else find (i + 1) in
  let rec flip i =
    match Bytes.get b i with
    | '0' .. '8' as c -> Bytes.set b i (Char.chr (Char.code c + 1))
    | '9' -> Bytes.set b i '8'
    | _ -> flip (i + 1)
  in
  flip (find 0 + String.length sub);
  Bytes.to_string b

let test_resume_rejects_corruption () =
  let full_path, _ = Lazy.force full_run in
  let lines = read_lines full_path in
  let reject name mutate =
    let path = tmp name in
    write_lines path (mutate lines);
    match Checkpoint.resume ~path (spec ~trials:1 ()) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: corrupt checkpoint accepted" name
  in
  reject "empty" (fun _ -> []);
  reject "no-header" List.tl;
  reject "bad-json" (fun ls -> ls @ [ "{truncated" ]);
  reject "unknown-kind" (List.map (replace_sub ~sub:"\"kind\":\"task\"" ~by:"\"kind\":\"bogus\""));
  reject "duplicate-index" (fun ls -> ls @ [ List.nth ls 1 ]);
  reject "result-missing" (List.map (replace_sub ~sub:"\"result\"" ~by:"\"resul7\""));
  (* One changed digit inside a result leaves valid JSON with every
     member in place: only the entry's digest can tell. *)
  reject "flipped-digit"
    (List.mapi (fun i l -> if i = 1 then flip_digit_after ~sub:{|"result":|} l else l));
  (* A structurally valid file from a different campaign configuration. *)
  let path = tmp "mismatch" in
  write_lines path lines;
  (match Checkpoint.resume ~path (spec ~trials:2 ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "spec mismatch accepted")

(* ---- early stopping -------------------------------------------------- *)

let test_wilson_basics () =
  let lo, hi = Early_stop.wilson ~z:1.96 ~n:0 ~k:0 in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "vacuous interval" (0.0, 1.0) (lo, hi);
  let lo, hi = Early_stop.wilson ~z:1.96 ~n:100 ~k:50 in
  Alcotest.(check bool) "brackets the estimate" true (lo < 0.5 && 0.5 < hi);
  let hw10 = Early_stop.halfwidth ~z:1.96 ~n:10 ~k:5 in
  let hw1000 = Early_stop.halfwidth ~z:1.96 ~n:1000 ~k:500 in
  Alcotest.(check bool) "narrows with n" true (hw1000 < hw10);
  let es = Early_stop.create ~target:0.2 ~min_trials:8 () in
  Alcotest.(check bool) "never before min_trials" false (Early_stop.should_stop es ~n:7 ~k:0);
  Alcotest.(check bool) "certain cell stops at min" true (Early_stop.should_stop es ~n:20 ~k:0)

let test_early_stop_never_fires_is_identity () =
  let g_plain = Lazy.force baseline in
  (* An unattainable halfwidth target: the policy is armed but no cell can
     ever stop, so every cell's record must be byte-identical to the
     policy-free run. *)
  let es = Early_stop.create ~target:1e-9 () in
  let g_es = Montecarlo.run ~jobs:2 ~ms:600 ~seed:11 ~trials:1 ~early_stop:es (build ()) in
  Alcotest.(check bool) "levels identical" true (g_plain.Montecarlo.levels = g_es.Montecarlo.levels);
  Alcotest.(check int) "nothing skipped" 0 g_es.Montecarlo.trials_skipped;
  Alcotest.(check bool) "metrics identical" true
    (Metrics.snapshot g_plain.Montecarlo.metrics = Metrics.snapshot g_es.Montecarlo.metrics)

let es_grid =
  lazy
    (let path = tmp "es" in
     let es = Early_stop.create ~target:0.3 () in
     let ck = Checkpoint.create ~path ~every:4 (spec ~early_stop:es ~trials:12 ()) in
     let g = Montecarlo.run ~jobs:1 ~ms:400 ~seed:11 ~trials:12 ~early_stop:es ~checkpoint:ck (build ()) in
     Checkpoint.close ck;
     (path, es, g))

let test_early_stop_accounting () =
  let path, _, g = Lazy.force es_grid in
  Alcotest.(check bool) "some trials saved" true (g.Montecarlo.trials_skipped > 0);
  let skipped = ref 0 in
  Array.iter
    (fun (lvl : Montecarlo.level_result) ->
      Array.iter
        (fun (c : Montecarlo.cell) ->
          Alcotest.(check int) "cell budget" 12 (c.Montecarlo.trials + c.Montecarlo.skipped);
          skipped := !skipped + c.Montecarlo.skipped)
        lvl.Montecarlo.cells;
      Array.iter
        (fun (c : Montecarlo.control) ->
          Alcotest.(check int) "control budget" 12 (c.Montecarlo.flights + c.Montecarlo.skipped);
          skipped := !skipped + c.Montecarlo.skipped)
        lvl.Montecarlo.controls)
    g.Montecarlo.levels;
  Alcotest.(check int) "per-cell skips sum to total" g.Montecarlo.trials_skipped !skipped;
  (* The checkpoint accounts for every task: a result or an explicit skip. *)
  match Checkpoint.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (file_spec, entries) ->
      Alcotest.(check int) "full coverage" file_spec.Checkpoint.tasks (List.length entries);
      let skips =
        List.length (List.filter (function _, Checkpoint.Skip _ -> true | _ -> false) entries)
      in
      Alcotest.(check int) "skip entries match" g.Montecarlo.trials_skipped skips

let test_early_stop_jobs_invariant () =
  let _, es, g1 = Lazy.force es_grid in
  let g4 = Montecarlo.run ~jobs:4 ~ms:400 ~seed:11 ~trials:12 ~early_stop:es (build ()) in
  Alcotest.(check string) "stop decisions scheduling-free" (grid_json g1) (grid_json g4)

let test_early_stop_resume () =
  (* Resume replays the full early-stopped trajectory: prime from the
     complete checkpoint, run again, get the identical document without
     re-flying anything. *)
  let path, es, g = Lazy.force es_grid in
  match Checkpoint.resume ~path (spec ~early_stop:es ~trials:12 ()) with
  | Error e -> Alcotest.failf "resume failed: %s" e
  | Ok ck ->
      let g2 = Montecarlo.run ~jobs:2 ~ms:400 ~seed:11 ~trials:12 ~early_stop:es ~checkpoint:ck (build ()) in
      Alcotest.(check string) "resumed early-stopped run identical" (grid_json g) (grid_json g2)

(* ---- pool stats under concurrent readers ----------------------------- *)

let test_pool_stats_live () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let stop = Atomic.make false in
      let reads = Atomic.make 0 in
      (* A racing reader, as the progress heartbeat is: stats must stay
         readable (and sane) while worker domains update their slots. *)
      let reader =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let st = Pool.stats pool in
              Array.iter
                (fun (d : Pool.domain_stats) ->
                  assert (d.Pool.tasks_run >= 0);
                  assert (d.Pool.busy_s >= 0.0))
                st;
              Atomic.incr reads;
              Domain.cpu_relax ()
            done)
      in
      let tasks = 400 in
      let sink = Atomic.make 0 in
      Pool.run pool ~tasks (fun i -> Atomic.fetch_and_add sink i |> ignore);
      (* The pool may drain 400 trivial tasks before the reader domain is
         even scheduled — only stop it once it has sampled at least once. *)
      while Atomic.get reads = 0 do
        Domain.cpu_relax ()
      done;
      Atomic.set stop true;
      Domain.join reader;
      let st = Pool.stats pool in
      let total = Array.fold_left (fun a (d : Pool.domain_stats) -> a + d.Pool.tasks_run) 0 st in
      Alcotest.(check int) "every task counted exactly once" tasks total)

(* ---- progress final line --------------------------------------------- *)

let test_progress_terminal_heartbeat () =
  (* With a huge interval, every mid-run heartbeat after the first is
     suppressed — the frontier completion alone must still produce a
     line.  (Before the fix, task_done only emitted inside the interval
     gate, so a quiet stream simply ended without one.)  The frontier
     line is a heartbeat: only the caller's explicit emit says final. *)
  let lines = ref [] in
  let p = Progress.create ~interval_s:1e9 ~sink:(fun l -> lines := l :: !lines) () in
  Progress.add_total p 3;
  Progress.task_done p;
  Progress.task_done p;
  Progress.task_done p;
  (* First completion heartbeats (fresh stream), second is gated out,
     third crosses the frontier: exactly two lines, the last at done =
     total. *)
  Alcotest.(check int) "gated stream" 2 (List.length !lines);
  match !lines with
  | last :: _ -> (
      match Json.of_string last with
      | Error e -> Alcotest.failf "bad line: %s" e
      | Ok j ->
          Alcotest.(check (option string)) "reason" (Some "heartbeat")
            (Option.bind (Json.member "reason" j) Json.to_str);
          Alcotest.(check (option int)) "done" (Some 3)
            (Option.bind (Json.member "done" j) Json.to_int))
  | [] -> Alcotest.fail "no lines emitted"

let test_progress_final_under_contention () =
  (* Pin the sink lock (via a provider that blocks inside an emission on
     another domain) while the last task completes: the frontier emission
     must wait for the lock and still deliver its line.  Before the fix
     task_done used try_lock unconditionally, so this interleaving
     silently dropped it. *)
  let lines = ref [] in
  let p = Progress.create ~interval_s:0.0 ~sink:(fun l -> lines := l :: !lines) () in
  Progress.add_total p 1;
  let in_provider = Atomic.make false and release = Atomic.make false in
  Progress.on_heartbeat p (fun () ->
      if not (Atomic.get release) then begin
        Atomic.set in_provider true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done
      end;
      []);
  let emitter = Domain.spawn (fun () -> Progress.emit p ~reason:"start") in
  while not (Atomic.get in_provider) do
    Domain.cpu_relax ()
  done;
  let finisher = Domain.spawn (fun () -> Progress.task_done p) in
  (* Let the finisher reach the contended lock before releasing it. *)
  let t0 = Clock.wall () in
  while Clock.wall () -. t0 < 0.05 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  Domain.join emitter;
  Domain.join finisher;
  match !lines with
  | last :: _ -> (
      match Json.of_string last with
      | Error e -> Alcotest.failf "bad line: %s" e
      | Ok j ->
          Alcotest.(check (option string)) "last line is the frontier heartbeat"
            (Some "heartbeat")
            (Option.bind (Json.member "reason" j) Json.to_str);
          Alcotest.(check (option int)) "at done=total" (Some 1)
            (Option.bind (Json.member "done" j) Json.to_int))
  | [] -> Alcotest.fail "no lines emitted at all"

(* ---- snapshot durability (PR 10) ------------------------------------- *)

let tmp_siblings path =
  let dir = Filename.dirname path and base = Filename.basename path in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun name ->
         String.starts_with ~prefix:(base ^ ".") name && Filename.check_suffix name ".tmp")

(* Snapshot temp files are pid-unique and stale ones (from crashed
   processes — including the legacy fixed [path ^ ".tmp"] name that
   collided across processes) are swept on both [create] and [resume];
   a healthy snapshot never leaves a temp file behind. *)
let test_tmp_hygiene () =
  let path = tmp "tmphygiene" in
  let plant () =
    write_lines (path ^ ".tmp") [ "stale legacy tmp" ];
    write_lines (path ^ ".99999.tmp") [ "stale pid tmp" ]
  in
  plant ();
  let sp = spec ~trials:1 () in
  let ck = Checkpoint.create ~path ~every:1 sp in
  Alcotest.(check (list string)) "create sweeps stale tmps" [] (tmp_siblings path);
  Checkpoint.record ck ~index:0 (Json.Obj [ ("v", Json.Int 0) ]);
  Checkpoint.close ck;
  Alcotest.(check (list string)) "snapshots leave no tmp behind" [] (tmp_siblings path);
  plant ();
  (match Checkpoint.resume ~path sp with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("resume failed: " ^ e));
  Alcotest.(check (list string)) "resume sweeps stale tmps" [] (tmp_siblings path)

(* A snapshot whose commit rename fails (here: the target path is a
   directory, standing in for ENOSPC/EIO) must raise — and must not
   leak its temp file. *)
let test_snapshot_failure_unlinks_tmp () =
  let dirpath = Filename.temp_file "mavr_ck_dirtarget" "" in
  Sys.remove dirpath;
  Unix.mkdir dirpath 0o755;
  at_exit (fun () -> try Unix.rmdir dirpath with Unix.Unix_error _ | Sys_error _ -> ());
  (match Checkpoint.create ~path:dirpath (spec ~trials:1 ()) with
  | (_ : Checkpoint.t) -> Alcotest.fail "snapshot over a directory should fail"
  | exception Sys_error _ -> ()
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check (list string)) "failed snapshot leaves no tmp" [] (tmp_siblings dirpath)

let () =
  Alcotest.run "checkpoint"
    [
      ( "writer",
        [
          Alcotest.test_case "spec hash sensitivity" `Quick test_spec_hash_sensitivity;
          Alcotest.test_case "record/skip round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "snapshot interval checked" `Quick test_snapshot_interval_checked;
        ] );
      ( "resume",
        [
          Alcotest.test_case "checkpointing does not perturb" `Slow
            test_checkpointing_does_not_perturb;
          Alcotest.test_case "bit-identical resume (K x jobs)" `Slow test_resume_bit_identical;
          Alcotest.test_case "corruption rejected" `Slow test_resume_rejects_corruption;
        ] );
      ( "early-stop",
        [
          Alcotest.test_case "wilson interval basics" `Quick test_wilson_basics;
          Alcotest.test_case "never-fires is identity" `Slow
            test_early_stop_never_fires_is_identity;
          Alcotest.test_case "skip accounting" `Slow test_early_stop_accounting;
          Alcotest.test_case "jobs-invariant decisions" `Slow test_early_stop_jobs_invariant;
          Alcotest.test_case "resume replays trajectory" `Slow test_early_stop_resume;
        ] );
      ( "durability",
        [
          Alcotest.test_case "tmp files pid-unique and swept" `Quick test_tmp_hygiene;
          Alcotest.test_case "failed snapshot leaks no tmp" `Quick
            test_snapshot_failure_unlinks_tmp;
        ] );
      ("pool", [ Alcotest.test_case "stats under live readers" `Quick test_pool_stats_live ]);
      ( "progress",
        [
          Alcotest.test_case "terminal heartbeat guaranteed" `Quick
            test_progress_terminal_heartbeat;
          Alcotest.test_case "final line under lock contention" `Quick
            test_progress_final_under_contention;
        ] );
    ]
