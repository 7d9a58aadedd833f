(* trace_check — validate and normalize observability artifacts.

   Modes:
     trace_check FILE             validate FILE against the Chrome
                                  trace_event schema subset Span emits
     trace_check --strip FILE     validate, then re-emit the document
                                  (compact, to stdout) with every
                                  host-process ts/dur/cpu field zeroed —
                                  the jobs-invariant form bin/dune
                                  byte-diffs across --jobs values
     trace_check --progress FILE  validate a Progress JSONL stream:
                                  every line parses, seq increases by 1,
                                  done is monotonic and never exceeds
                                  total, and the stream's one
                                  reason:"final" line is its last, at
                                  done = total
     trace_check --analyze FILE   validate a `mavr analyze --json`
                                  document against schema version 2:
                                  required cfg/gadgets/census sections
                                  plus well-formed optional stack /
                                  taint / translation_validation /
                                  stack_verify sections
     trace_check --checkpoint FILE
                                  validate a campaign checkpoint
                                  snapshot: header line (version,
                                  spec_hash, seed, tasks) then task/skip
                                  entries with unique in-range indices;
                                  reports the completed frontier
     trace_check --results FILE   validate a --results JSONL stream:
                                  checkpoint structure plus full
                                  coverage — every task index appears
                                  exactly once (as a result or a skip)
     trace_check --dispatch FILE  validate a `mavr dispatch --progress`
                                  stream: the --progress contract plus a
                                  dispatch detail object on every line
                                  (constant shard/worker counts,
                                  monotone shards_done / workers_dead /
                                  redispatches), ending with every shard
                                  done
     trace_check --serve FILE     validate a serve-session transcript:
                                  progress heartbeat lines followed by
                                  exactly one terminal kind:result or
                                  kind:error line
     trace_check --serve-result FILE
                                  extract the terminal result document
                                  from a serve transcript and print it
                                  (indent 2) — byte-diffable against
                                  `mavr campaign --json`

   Exit codes: 0 valid, 1 invalid, 2 usage. *)

module J = Mavr_telemetry.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace_check: " ^ s); exit 1) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error e -> fail "%s" e

let mem name j = J.member name j
let str name j = Option.bind (mem name j) J.to_str
let int name j = Option.bind (mem name j) J.to_int
let num name j = Option.bind (mem name j) J.to_float

(* ---- trace_event validation ----------------------------------------- *)

let meta_names = [ "process_name"; "process_sort_index"; "thread_name"; "thread_sort_index" ]

let validate_event i ev =
  let ctx = Printf.sprintf "traceEvents[%d]" i in
  (match ev with J.Obj _ -> () | _ -> fail "%s: not an object" ctx);
  let name = match str "name" ev with Some n -> n | None -> fail "%s: missing name" ctx in
  (match int "pid" ev with Some _ -> () | None -> fail "%s (%s): missing pid" ctx name);
  (match int "tid" ev with Some _ -> () | None -> fail "%s (%s): missing tid" ctx name);
  match str "ph" ev with
  | Some "M" ->
      if not (List.mem name meta_names) then fail "%s: unknown metadata event %S" ctx name;
      (match mem "args" ev with
      | Some (J.Obj _) -> ()
      | _ -> fail "%s (%s): metadata without args object" ctx name)
  | Some "X" ->
      (match num "ts" ev with Some _ -> () | None -> fail "%s (%s): complete event without numeric ts" ctx name);
      (match num "dur" ev with Some _ -> () | None -> fail "%s (%s): complete event without numeric dur" ctx name)
  | Some "i" ->
      (match num "ts" ev with Some _ -> () | None -> fail "%s (%s): instant without numeric ts" ctx name);
      (match str "s" ev with Some _ -> () | None -> fail "%s (%s): instant without scope" ctx name)
  | Some ph -> fail "%s (%s): unsupported phase %S" ctx name ph
  | None -> fail "%s (%s): missing ph" ctx name

(* pid → process name, from process_name metadata. *)
let process_names events =
  List.filter_map
    (fun ev ->
      match (str "ph" ev, str "name" ev) with
      | Some "M", Some "process_name" -> (
          match (int "pid" ev, Option.bind (mem "args" ev) (str "name")) with
          | Some pid, Some pname -> Some (pid, pname)
          | _ -> None)
      | _ -> None)
    events

let validate_trace doc =
  let events =
    match mem "traceEvents" doc with
    | Some (J.List evs) -> evs
    | Some _ -> fail "traceEvents is not a list"
    | None -> fail "missing traceEvents"
  in
  if events = [] then fail "empty traceEvents";
  List.iteri validate_event events;
  let procs = process_names events in
  if procs = [] then fail "no process_name metadata";
  List.iter
    (fun (pid, pname) ->
      if pname <> "host" && pname <> "cycles" then
        fail "pid %d has unexpected process name %S" pid pname)
    procs;
  (* Thread names must be unique within a process — Perfetto merges rows
     otherwise, and duplicate lanes would hide a Span.lane collision. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match (str "ph" ev, str "name" ev) with
      | Some "M", Some "thread_name" -> (
          match (int "pid" ev, int "tid" ev, Option.bind (mem "args" ev) (str "name")) with
          | Some pid, Some _, Some tname ->
              if Hashtbl.mem seen (pid, tname) then
                fail "duplicate lane %S in pid %d" tname pid;
              Hashtbl.add seen (pid, tname) ()
          | _ -> ())
      | _ -> ())
    events;
  events

(* ---- timing strip ---------------------------------------------------- *)

let strip_trace doc events =
  let host_pids =
    List.filter_map (fun (pid, n) -> if n = "host" then Some pid else None) (process_names events)
  in
  let is_host ev = match int "pid" ev with Some p -> List.mem p host_pids | None -> false in
  let zero_field k kvs =
    List.map (fun (key, v) -> if key = k then (key, J.Int 0) else (key, v)) kvs
  in
  let strip_ev ev =
    match ev with
    | J.Obj kvs when is_host ev && str "ph" ev <> Some "M" ->
        let kvs = zero_field "ts" (zero_field "dur" kvs) in
        let kvs =
          List.map
            (function
              | "args", J.Obj akvs -> ("args", J.Obj (zero_field "cpu_dur_us" akvs))
              | kv -> kv)
            kvs
        in
        J.Obj kvs
    | ev -> ev
  in
  match doc with
  | J.Obj kvs ->
      J.Obj
        (List.map
           (function
             | "traceEvents", J.List evs -> ("traceEvents", J.List (List.map strip_ev evs))
             | kv -> kv)
           kvs)
  | _ -> fail "trace document is not an object"

(* ---- progress stream validation -------------------------------------- *)

let jsonl_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> String.trim l <> "")

(* Core of --progress and the heartbeat prefix of --serve: returns
   (lines, final done, final total, last reason, final lines). *)
let check_progress_lines lines =
  let last_seq = ref 0 and last_done = ref 0 and last_total = ref 0 in
  let last_reason = ref "" and finals = ref 0 in
  List.iteri
    (fun i line ->
      let ctx = Printf.sprintf "line %d" (i + 1) in
      let j = match J.of_string line with Ok j -> j | Error e -> fail "%s: %s" ctx e in
      let seq = match int "seq" j with Some s -> s | None -> fail "%s: missing seq" ctx in
      if seq <> !last_seq + 1 then
        fail "%s: seq %d after %d (dropped or reordered lines)" ctx seq !last_seq;
      last_seq := seq;
      let d = match int "done" j with Some d -> d | None -> fail "%s: missing done" ctx in
      let total = match int "total" j with Some t -> t | None -> fail "%s: missing total" ctx in
      if d < !last_done then fail "%s: done went backwards (%d after %d)" ctx d !last_done;
      if d > total then fail "%s: done %d exceeds total %d" ctx d total;
      last_done := d;
      last_total := total;
      match str "reason" j with
      | Some r ->
          if r = "final" then incr finals;
          last_reason := r
      | None -> fail "%s: missing reason" ctx)
    lines;
  (List.length lines, !last_done, !last_total, !last_reason, !finals)

(* A finished run says so once, on its last line: a reader that stops at
   the first final line must see the whole run. *)
let require_one_final ~what reason finals =
  if reason <> "final" then fail "%s ends with reason %S, expected \"final\"" what reason;
  if finals <> 1 then fail "%s carries %d final lines, expected exactly one" what finals

let validate_progress path =
  let lines = jsonl_lines path in
  if lines = [] then fail "empty progress stream";
  let n, d, total, reason, finals = check_progress_lines lines in
  require_one_final ~what:"stream" reason finals;
  if d <> total then fail "final line reports %d/%d tasks" d total;
  Printf.printf "progress ok: %d lines, %d/%d tasks\n" n d total

(* ---- dispatch session validation -------------------------------------- *)

(* A dispatch progress stream is a progress stream (gap-free merged seq,
   terminal final line) whose every line also carries the dispatcher's
   own detail object — the invariants CI leans on after killing a worker
   mid-run: pool and shard counts never change, completion and death
   counts never go backwards, and the run only ends with every shard
   done. *)
let validate_dispatch path =
  let lines = jsonl_lines path in
  if lines = [] then fail "empty dispatch progress stream";
  let n, d, total, reason, finals = check_progress_lines lines in
  require_one_final ~what:"stream" reason finals;
  if d <> total then fail "final line reports %d/%d tasks" d total;
  let shards0 = ref (-1) and workers0 = ref (-1) in
  let last_sd = ref 0 and last_dead = ref 0 and last_re = ref 0 in
  List.iteri
    (fun i line ->
      let ctx = Printf.sprintf "line %d" (i + 1) in
      let j = match J.of_string line with Ok j -> j | Error e -> fail "%s: %s" ctx e in
      let dsp =
        match mem "dispatch" j with
        | Some (J.Obj _ as o) -> o
        | Some _ -> fail "%s: dispatch detail is not an object" ctx
        | None -> fail "%s: missing dispatch detail" ctx
      in
      let geti k =
        match int k dsp with Some v -> v | None -> fail "%s: dispatch.%s missing" ctx k
      in
      let shards = geti "shards" and sd = geti "shards_done" in
      let sq = geti "shards_queued" and sa = geti "shards_active" in
      let workers = geti "workers" and wd = geti "workers_dead" in
      let re = geti "redispatches" in
      if !shards0 < 0 then shards0 := shards
      else if shards <> !shards0 then
        fail "%s: shard count changed (%d after %d)" ctx shards !shards0;
      if !workers0 < 0 then workers0 := workers
      else if workers <> !workers0 then
        fail "%s: worker count changed (%d after %d)" ctx workers !workers0;
      if sd < !last_sd then fail "%s: shards_done went backwards (%d after %d)" ctx sd !last_sd;
      if sd > shards then fail "%s: shards_done %d exceeds %d shards" ctx sd shards;
      if wd < !last_dead then
        fail "%s: workers_dead went backwards (%d after %d)" ctx wd !last_dead;
      if wd > workers then fail "%s: workers_dead %d exceeds %d workers" ctx wd workers;
      if re < !last_re then
        fail "%s: redispatches went backwards (%d after %d)" ctx re !last_re;
      if sq < 0 || sa < 0 || sa > workers then
        fail "%s: implausible queue/active counts (%d queued, %d active)" ctx sq sa;
      last_sd := sd;
      last_dead := wd;
      last_re := re)
    lines;
  if !last_sd <> !shards0 then fail "final line reports %d/%d shards done" !last_sd !shards0;
  Printf.printf "dispatch ok: %d lines, %d/%d tasks, %d shards over %d workers (%d dead, %d redispatches)\n"
    n d total !shards0 !workers0 !last_dead !last_re

(* ---- checkpoint / results validation ---------------------------------- *)

(* Structural scan shared by --checkpoint (partial frontier allowed) and
   --results (full coverage required).  Mirrors lib/campaign/checkpoint.ml
   as an independent implementation, so the two cross-check each other. *)
let checkpoint_version = 2

(* An entry's "digest" is its last member: FNV-1a 64 (16 hex digits) of
   the line as it reads without that member. *)
let check_entry_digest ctx line j =
  match str "digest" j with
  | None -> fail "%s: entry without digest" ctx
  | Some d ->
      let suffix = Printf.sprintf {|,"digest":"%s"}|} d in
      if not (String.ends_with ~suffix line) then fail "%s: digest is not the last member" ctx;
      let body = String.sub line 0 (String.length line - String.length suffix) ^ "}" in
      let h = ref 0xcbf29ce484222325L in
      String.iter
        (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
        body;
      if Printf.sprintf "%016Lx" !h <> d then fail "%s: entry digest mismatch" ctx

let scan_checkpoint lines =
  let header, rest =
    match lines with [] -> fail "empty checkpoint/results file" | h :: rest -> (h, rest)
  in
  let hj = match J.of_string header with Ok j -> j | Error e -> fail "header: %s" e in
  if str "kind" hj <> Some "header" then fail "first line is not a header";
  (match int "version" hj with
  | Some v when v = checkpoint_version -> ()
  | Some v -> fail "checkpoint version %d, expected %d" v checkpoint_version
  | None -> fail "header missing version");
  (match str "spec_hash" hj with Some _ -> () | None -> fail "header missing spec_hash");
  (match int "seed" hj with Some _ -> () | None -> fail "header missing seed");
  let tasks =
    match int "tasks" hj with
    | Some t when t >= 0 -> t
    | Some t -> fail "header has negative task count %d" t
    | None -> fail "header missing tasks"
  in
  let seen = Hashtbl.create 256 in
  let recorded = ref 0 and skipped = ref 0 in
  List.iteri
    (fun i line ->
      let ctx = Printf.sprintf "line %d" (i + 2) in
      let j = match J.of_string line with Ok j -> j | Error e -> fail "%s: %s" ctx e in
      check_entry_digest ctx line j;
      let index =
        match int "index" j with
        | Some x when x >= 0 && x < tasks -> x
        | Some x -> fail "%s: index %d out of range [0,%d)" ctx x tasks
        | None -> fail "%s: missing index" ctx
      in
      if Hashtbl.mem seen index then fail "%s: duplicate index %d" ctx index;
      Hashtbl.add seen index ();
      match str "kind" j with
      | Some "task" -> (
          match mem "result" j with
          | Some _ -> incr recorded
          | None -> fail "%s: task entry without result" ctx)
      | Some "skip" -> (
          match str "reason" j with
          | Some _ -> incr skipped
          | None -> fail "%s: skip entry without reason" ctx)
      | Some k -> fail "%s: unknown kind %S" ctx k
      | None -> fail "%s: missing kind" ctx)
    rest;
  (tasks, !recorded, !skipped)

let validate_checkpoint path =
  let tasks, recorded, skipped = scan_checkpoint (jsonl_lines path) in
  Printf.printf "checkpoint ok: %d/%d tasks on disk (%d results, %d skips)\n"
    (recorded + skipped) tasks recorded skipped

let validate_results path =
  let tasks, recorded, skipped = scan_checkpoint (jsonl_lines path) in
  (* A results stream is a complete audit trail: every index accounted
     for, either as a trial outcome or an explicit early-stop skip. *)
  if recorded + skipped <> tasks then
    fail "results cover %d of %d tasks (%d results, %d skips) — stream has gaps"
      (recorded + skipped) tasks recorded skipped;
  Printf.printf "results ok: %d tasks (%d results, %d skips)\n" tasks recorded skipped

(* ---- serve transcript validation -------------------------------------- *)

let split_serve_lines path =
  let lines = jsonl_lines path in
  match List.rev lines with
  | [] -> fail "empty serve transcript"
  | last :: rev_heartbeats -> (List.rev rev_heartbeats, last)

let validate_serve path =
  let heartbeats, last = split_serve_lines path in
  let n, d, total, reason, finals =
    if heartbeats = [] then (0, 0, 0, "final", 1) else check_progress_lines heartbeats
  in
  let lj = match J.of_string last with Ok j -> j | Error e -> fail "terminal line: %s" e in
  (match str "kind" lj with
  | Some "result" -> (
      (* A successful session's heartbeat stream obeys the same contract
         as --progress: it ends final, with every task done. *)
      require_one_final ~what:"heartbeat stream" reason finals;
      if d <> total then fail "final heartbeat reports %d/%d tasks" d total;
      match mem "result" lj with
      | Some _ -> ()
      | None -> fail "terminal result line without a result member")
  | Some "error" -> (
      match str "error" lj with
      | Some _ -> ()
      | None -> fail "terminal error line without an error message")
  | Some k -> fail "terminal line has kind %S, expected result or error" k
  | None -> fail "terminal line missing kind (session truncated mid-stream?)");
  Printf.printf "serve ok: %d heartbeat lines + terminal %s\n" n
    (Option.value ~default:"?" (str "kind" lj))

let serve_result path =
  let _, last = split_serve_lines path in
  let lj = match J.of_string last with Ok j -> j | Error e -> fail "terminal line: %s" e in
  match (str "kind" lj, mem "result" lj) with
  | Some "result", Some r -> print_endline (J.to_string ~indent:2 r)
  | Some "error", _ ->
      fail "session failed: %s" (Option.value ~default:"(no message)" (str "error" lj))
  | _ -> fail "terminal line is not a result"

(* ---- analyze document validation ------------------------------------- *)

let analyze_schema_version = 2

(* A stack bound serializes as an int (finite) or {"unbounded": why}. *)
let check_bound ctx = function
  | Some (J.Int _) -> ()
  | Some (J.Obj _ as o) -> (
      match str "unbounded" o with
      | Some _ -> ()
      | None -> fail "%s: object bound without an unbounded reason" ctx)
  | Some _ -> fail "%s: bound is neither int nor object" ctx
  | None -> fail "%s: missing" ctx

let validate_analyze path =
  let doc =
    match J.of_string (read_file path) with Ok j -> j | Error e -> fail "%s: %s" path e
  in
  (match int "schema" doc with
  | Some v when v = analyze_schema_version -> ()
  | Some v -> fail "analyze schema version %d, expected %d" v analyze_schema_version
  | None -> fail "missing schema version");
  (match str "profile" doc with Some _ -> () | None -> fail "missing profile");
  (match str "toolchain" doc with
  | Some ("mavr" | "stock" | "patched") -> ()
  | Some t -> fail "unknown toolchain %S" t
  | None -> fail "missing toolchain");
  let section name =
    match mem name doc with
    | Some (J.Obj _ as o) -> Some o
    | Some _ -> fail "%s is not an object" name
    | None -> None
  in
  let require name =
    match section name with Some o -> o | None -> fail "missing %s section" name
  in
  let ints o oname keys =
    List.iter
      (fun k -> match int k o with Some _ -> () | None -> fail "%s.%s missing" oname k)
      keys
  in
  ints (require "cfg") "cfg"
    [ "entries"; "reachable_insns"; "reachable_bytes"; "exec_bytes"; "blocks";
      "sweep_insns"; "sweep_bytes" ];
  ints (require "gadgets") "gadgets" [ "total" ];
  ignore (require "census");
  let sections = ref [ "cfg"; "gadgets"; "census" ] in
  Option.iter
    (fun stack ->
      sections := "stack" :: !sections;
      ints stack "stack" [ "entries"; "iterations" ];
      List.iter
        (fun k -> check_bound ("stack." ^ k) (mem k stack))
        [ "main_total"; "isr_extra"; "image_bound" ])
    (section "stack");
  Option.iter
    (fun taint ->
      sections := "taint" :: !sections;
      ints taint "taint" [ "iterations"; "nodes" ];
      match mem "findings" taint with
      | Some (J.List fs) ->
          List.iteri
            (fun i f ->
              let ctx = Printf.sprintf "taint.findings[%d]" i in
              (match str "fn" f with Some _ -> () | None -> fail "%s: missing fn" ctx);
              ints f ctx [ "branch_addr"; "store_addr" ];
              match str "detail" f with Some _ -> () | None -> fail "%s: missing detail" ctx)
            fs
      | _ -> fail "taint.findings missing or not a list")
    (section "taint");
  Option.iter
    (fun tv ->
      sections := "translation_validation" :: !sections;
      match mem "ok" tv with
      | Some (J.Bool true) -> (
          match mem "stats" tv with
          | Some (J.Obj _ as s) ->
              ints s "translation_validation.stats"
                [ "functions"; "insns"; "edges"; "funptrs"; "vectors" ]
          | _ -> fail "translation_validation ok without stats")
      | Some (J.Bool false) -> (
          match mem "mismatches" tv with
          | Some (J.List (_ :: _)) -> ()
          | _ -> fail "translation_validation failed without mismatches")
      | _ -> fail "translation_validation.ok missing")
    (section "translation_validation");
  Option.iter
    (fun sv ->
      sections := "stack_verify" :: !sections;
      ints sv "stack_verify" [ "ms"; "stack_top" ];
      check_bound "stack_verify.static_bound" (mem "static_bound" sv);
      match mem "ok" sv with
      | Some (J.Bool _) -> ()
      | _ -> fail "stack_verify.ok missing")
    (section "stack_verify");
  Printf.printf "analyze ok: schema %d, sections %s\n" analyze_schema_version
    (String.concat "," (List.rev !sections))

let () =
  match Sys.argv with
  | [| _; "--progress"; path |] -> validate_progress path
  | [| _; "--dispatch"; path |] -> validate_dispatch path
  | [| _; "--analyze"; path |] -> validate_analyze path
  | [| _; "--checkpoint"; path |] -> validate_checkpoint path
  | [| _; "--results"; path |] -> validate_results path
  | [| _; "--serve"; path |] -> validate_serve path
  | [| _; "--serve-result"; path |] -> serve_result path
  | [| _; "--strip"; path |] | [| _; path |] ->
      let strip = Sys.argv.(1) = "--strip" in
      let doc =
        match J.of_string (read_file path) with Ok j -> j | Error e -> fail "%s: %s" path e
      in
      let events = validate_trace doc in
      if strip then print_endline (J.to_string (strip_trace doc events))
      else Printf.printf "trace ok: %d events\n" (List.length events)
  | _ ->
      prerr_endline
        "usage: trace_check [--strip] FILE | trace_check (--progress | --dispatch | \
         --analyze | --checkpoint | --results | --serve | --serve-result) FILE";
      exit 2
