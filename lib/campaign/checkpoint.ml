module Json = Mavr_telemetry.Json

let version = 2

type spec = { spec_hash : string; seed : int; tasks : int }
type entry = Result of Json.t | Skip of string

exception Corrupt of string

(* FNV-1a 64, as 16 hex digits. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* FNV-1a 64 over the canonical compact JSON rendering of the spec
   fields.  Stable across processes (no polymorphic-hash dependence),
   cheap, and any field change — profile, horizon, trials, seed, fault
   profile, early-stop policy, tracing — flips the hash and makes a
   stale checkpoint unresumable instead of silently wrong. *)
let hash_fields fields = fnv1a (Json.to_string (Json.Obj fields))

type t = {
  path : string option;  (* None: stream-only, no snapshot files *)
  stream : (string -> unit) option;
  every : int;
  spec : spec;
  lock : Mutex.t;
  entries : (int, entry) Hashtbl.t;  (* guarded by [lock] *)
  mutable since_snapshot : int;  (* guarded by [lock] *)
  mutable abort_after : int option;  (* test hook; guarded by [lock] *)
  mutable recorded : int;  (* live [record]s this process; guarded by [lock] *)
}

let header_line spec =
  Json.to_string
    (Json.Obj
       [
         ("kind", Json.String "header");
         ("version", Json.Int version);
         ("spec_hash", Json.String spec.spec_hash);
         ("seed", Json.Int spec.seed);
         ("tasks", Json.Int spec.tasks);
       ])

(* Every entry line ends in a ["digest"] member: [hash_fields] of the
   entry's other members, which is FNV-1a over the line as it would read
   without the digest.  A changed byte anywhere in an entry is then a
   load error, not a silently different campaign document. *)
let digest_key = {|,"digest":"|}

let entry_line index entry =
  let fields =
    match entry with
    | Result r -> [ ("kind", Json.String "task"); ("index", Json.Int index); ("result", r) ]
    | Skip reason ->
        [ ("kind", Json.String "skip"); ("index", Json.Int index); ("reason", Json.String reason) ]
  in
  let body = Json.to_string (Json.Obj fields) in
  String.concat ""
    [ String.sub body 0 (String.length body - 1); digest_key; fnv1a body; {|"}|} ]

(* The one decoder of entry lines, shared by [load] and the dispatcher:
   the digest first, then the members, then the index range. *)
let decode_entry ~tasks line =
  let ( let* ) = Result.bind in
  let n = String.length line and kl = String.length digest_key in
  let cut = n - kl - 18 (* 16 hex digits, closing quote and brace *) in
  let* body =
    if cut > 0 && String.sub line cut kl = digest_key && String.ends_with ~suffix:{|"}|} line then
      let body = String.sub line 0 cut ^ "}" in
      if fnv1a body = String.sub line (cut + kl) 16 then Ok body else Error "entry digest mismatch"
    else Error "entry without digest"
  in
  let* j = Json.of_string body in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let* index =
    match Option.bind (Json.member "index" j) Json.to_int with
    | Some i when i >= 0 && i < tasks -> Ok i
    | Some i -> Error (Printf.sprintf "index %d out of range [0,%d)" i tasks)
    | None -> Error "missing index"
  in
  match str "kind" with
  | Some "task" -> (
      match Json.member "result" j with
      | Some r -> Ok (index, Result r)
      | None -> Error "task entry without result")
  | Some "skip" -> (
      match str "reason" with
      | Some reason -> Ok (index, Skip reason)
      | None -> Error "skip entry without reason")
  | Some k -> Error (Printf.sprintf "unknown kind %S" k)
  | None -> Error "missing kind"

let sorted_entries_locked t =
  Hashtbl.fold (fun i e acc -> (i, e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* A snapshot's temp file is pid-unique: two processes pointed (even by
   misconfiguration) at the same checkpoint path race only at the atomic
   rename, never inside each other's half-written temp file. *)
let tmp_name path = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ())

(* Remove leftover temp files from earlier (crashed) processes: anything
   shaped [basename.*.tmp] next to [path], including the legacy fixed
   [basename.tmp] name.  The live snapshot file itself never matches. *)
let unlink_stale_tmps path =
  let dir = Filename.dirname path and base = Filename.basename path in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if
            String.starts_with ~prefix:(base ^ ".") name
            && Filename.check_suffix name ".tmp"
          then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        names

(* [Unix.fsync] on a directory is how POSIX persists a rename; some
   filesystems refuse it (EINVAL), which is as durable as they get. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let write_string_fd fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

(* Full-rewrite snapshot: header + every entry sorted by index, written
   to a sibling pid-unique temp file, fsynced, then renamed over [path]
   (and the directory fsynced so the rename itself survives power
   loss).  The rename is the commit point — a reader (or a resume after
   SIGKILL at any instant) sees either the previous complete snapshot or
   this one, never a torn prefix.  Entries are sorted so the snapshot
   bytes are a pure function of the completed-task set, independent of
   completion order.  On any failure (ENOSPC, EIO, ...) the temp file is
   unlinked rather than leaked. *)
let snapshot_locked t =
  match t.path with
  | None -> ()
  | Some path ->
      let b = Buffer.create 4096 in
      Buffer.add_string b (header_line t.spec);
      Buffer.add_char b '\n';
      List.iter
        (fun (i, e) ->
          Buffer.add_string b (entry_line i e);
          Buffer.add_char b '\n')
        (sorted_entries_locked t);
      let tmp = tmp_name path in
      Fun.protect
        ~finally:(fun () ->
          (* After a successful rename the temp file no longer exists;
             if it still does, the write or rename failed — clean up. *)
          if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              write_string_fd fd (Buffer.contents b);
              Unix.fsync fd);
          Sys.rename tmp path;
          fsync_dir (Filename.dirname path));
      t.since_snapshot <- 0

let emit_stream t line = match t.stream with None -> () | Some sink -> sink line

let create ?path ?stream ?(every = 32) spec =
  if every < 1 then invalid_arg "Campaign.Checkpoint.create: every must be >= 1";
  if spec.tasks < 0 then invalid_arg "Campaign.Checkpoint.create: negative task count";
  let t =
    {
      path;
      stream;
      every;
      spec;
      lock = Mutex.create ();
      entries = Hashtbl.create 256;
      since_snapshot = 0;
      abort_after = None;
      recorded = 0;
    }
  in
  Option.iter unlink_stale_tmps path;
  emit_stream t (header_line spec);
  (* An initial header-only snapshot, so the file exists (and the path is
     proven writable) before any task runs. *)
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> snapshot_locked t);
  t

(* ---- load / resume --------------------------------------------------- *)

let load ~path =
  let ( let* ) = Result.bind in
  let* content =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error e -> Error e
  in
  let lines =
    String.split_on_char '\n' content |> List.filter (fun l -> String.trim l <> "")
  in
  let* header, rest =
    match lines with
    | [] -> Error "empty checkpoint file"
    | h :: rest -> (
        match Json.of_string h with
        | Error e -> Error (Printf.sprintf "checkpoint header: %s" e)
        | Ok j -> Ok (j, rest))
  in
  let str k j = Option.bind (Json.member k j) Json.to_str in
  let int k j = Option.bind (Json.member k j) Json.to_int in
  let* () =
    if str "kind" header = Some "header" then Ok ()
    else Error "checkpoint does not start with a header line"
  in
  let* () =
    match int "version" header with
    | Some v when v = version -> Ok ()
    | Some v -> Error (Printf.sprintf "checkpoint version %d, expected %d" v version)
    | None -> Error "checkpoint header missing version"
  in
  let* spec =
    match (str "spec_hash" header, int "seed" header, int "tasks" header) with
    | Some spec_hash, Some seed, Some tasks when tasks >= 0 -> Ok { spec_hash; seed; tasks }
    | _ -> Error "checkpoint header missing spec_hash/seed/tasks"
  in
  let seen = Hashtbl.create 256 in
  let rec go acc n = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let ctx = Printf.sprintf "checkpoint line %d" (n + 2) in
        match decode_entry ~tasks:spec.tasks line with
        | Error e -> Error (Printf.sprintf "%s: %s" ctx e)
        | Ok (index, _) when Hashtbl.mem seen index ->
            Error (Printf.sprintf "%s: duplicate index %d" ctx index)
        | Ok (index, e) ->
            Hashtbl.add seen index ();
            go ((index, e) :: acc) (n + 1) rest)
  in
  let* entries = go [] 0 rest in
  Ok (spec, entries)

let resume ~path ?stream ?(every = 32) spec =
  if every < 1 then invalid_arg "Campaign.Checkpoint.resume: every must be >= 1";
  let ( let* ) = Result.bind in
  let* file_spec, entries = load ~path in
  let* () =
    if file_spec.spec_hash <> spec.spec_hash then
      Error
        (Printf.sprintf "checkpoint spec hash %s does not match campaign spec %s"
           file_spec.spec_hash spec.spec_hash)
    else if file_spec.seed <> spec.seed then
      Error (Printf.sprintf "checkpoint seed %d does not match campaign seed %d" file_spec.seed spec.seed)
    else if file_spec.tasks <> spec.tasks then
      Error
        (Printf.sprintf "checkpoint task count %d does not match campaign %d" file_spec.tasks
           spec.tasks)
    else Ok ()
  in
  let t =
    {
      path = Some path;
      stream;
      every;
      spec;
      lock = Mutex.create ();
      entries = Hashtbl.create 256;
      since_snapshot = 0;
      abort_after = None;
      recorded = 0;
    }
  in
  unlink_stale_tmps path;
  List.iter (fun (i, e) -> Hashtbl.replace t.entries i e) entries;
  (* Replay the primed frontier into the stream, so a results JSONL from
     a resumed run still covers every completed task. *)
  emit_stream t (header_line spec);
  List.iter (fun (i, e) -> emit_stream t (entry_line i e)) entries;
  Ok t

(* ---- recording ------------------------------------------------------- *)

let abort_after t n =
  Mutex.lock t.lock;
  t.abort_after <- Some n;
  Mutex.unlock t.lock

let add t index entry ~is_record =
  if index < 0 || index >= t.spec.tasks then
    invalid_arg (Printf.sprintf "Campaign.Checkpoint: index %d out of range" index);
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      Hashtbl.replace t.entries index entry;
      emit_stream t (entry_line index entry);
      t.since_snapshot <- t.since_snapshot + 1;
      if is_record then t.recorded <- t.recorded + 1;
      if t.since_snapshot >= t.every then snapshot_locked t;
      (* Test hook for the kill/resume CI rules: after the [n]th live
         record, force a snapshot (so the frontier is on disk) and die
         the hard way — SIGKILL, no atexit, no flush — exactly the
         failure the resume path must survive. *)
      match t.abort_after with
      | Some n when is_record && t.recorded >= n ->
          snapshot_locked t;
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ())

let record t ~index result = add t index (Result result) ~is_record:true
let skip t ~index ~reason = add t index (Skip reason) ~is_record:false

let close t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> snapshot_locked t)

let entries t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> sorted_entries_locked t)

let completed t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> Hashtbl.length t.entries)

let spec t = t.spec
