(** Resumable campaign state: streaming JSONL results + atomic snapshots.

    A checkpoint persists the completed-task frontier of a deterministic
    campaign.  Because every task's seed is split from the campaign root
    up front ({!Engine.task_seeds}), a task's result is a pure function
    of [(spec, index)] — so a killed run can resume by replaying the
    recorded results into their index slots and running only the
    remainder, and the final output is byte-identical to an
    uninterrupted run at any [--jobs].

    On-disk format (JSONL, one object per line):
    {v
    {"kind":"header","version":2,"spec_hash":H,"seed":S,"tasks":N}
    {"kind":"task","index":I,"result":{...},"digest":D}
    {"kind":"skip","index":I,"reason":"early_stop","digest":D}
    v}

    An entry's digest [D] is {!hash_fields} of its other members — FNV-1a
    over the line as it reads without the digest — so a changed byte in
    an entry makes the file unloadable instead of resuming into a
    silently different document.

    Snapshots are full rewrites — header plus every entry sorted by
    index — written to a pid-unique sibling temp file
    ([path ^ "." ^ pid ^ ".tmp"]), fsynced, and renamed over [path]
    (with the containing directory fsynced so the rename survives power
    loss), so the file on disk is always a complete, internally
    consistent frontier (SIGKILL or power loss at any instant loses at
    most the entries since the last snapshot, never corrupts).  A
    failed write (ENOSPC, EIO) unlinks the temp file instead of leaking
    it, and {!create}/{!resume} sweep any stale temp files left by
    crashed processes.  The sorted order also makes snapshot bytes a
    pure function of the completed set, independent of the completion
    order a particular [--jobs] produced.

    The optional [stream] sink additionally receives every line as it
    is emitted, in completion order — the live results JSONL
    ([--results]).  On {!resume} the primed frontier is replayed into
    the stream first, so a resumed results file still covers every
    completed task.

    All recording entry points are thread-safe (internal mutex); they
    are called from worker domains as tasks complete. *)

module Json := Mavr_telemetry.Json

val version : int

type spec = { spec_hash : string; seed : int; tasks : int }

type entry = Result of Json.t | Skip of string

(** Raised by consumers (e.g. [Montecarlo.run]) when a structurally
    valid checkpoint carries an undecodable result payload. *)
exception Corrupt of string

type t

(** [hash_fields fields] — FNV-1a 64 (hex) over the compact JSON
    rendering of [fields]; the stable spec fingerprint stored in the
    header and checked on resume. *)
val hash_fields : (string * Json.t) list -> string

(** [create ?path ?stream ?every spec] — fresh checkpoint writer.
    [path = None] is stream-only (no snapshot files).  A snapshot is
    rewritten after every [every] (default 32) recorded entries; an
    initial header-only snapshot is written immediately.
    @raise Invalid_argument when [every < 1]. *)
val create : ?path:string -> ?stream:(string -> unit) -> ?every:int -> spec -> t

(** [decode_entry ~tasks line] decodes one entry line: its digest, its
    members, and an index in [\[0, tasks)].  The one decoder of entry
    lines, used by {!load} and by the dispatcher for worker streams. *)
val decode_entry : tasks:int -> string -> (int * entry, string) result

(** [load ~path] parses and structurally validates a checkpoint file:
    header first (version, spec fields), every entry line decoded by
    {!decode_entry}, indices duplicate-free. *)
val load : path:string -> (spec * (int * entry) list, string) result

(** [resume ~path ?stream ?every spec] — [load], verify the file's spec
    (hash, seed, task count) matches [spec], and return a writer primed
    with the recorded frontier.  The header and primed entries are
    replayed into [stream].
    @raise Invalid_argument when [every < 1], as {!create} does. *)
val resume : path:string -> ?stream:(string -> unit) -> ?every:int -> spec -> (t, string) result

(** [record t ~index result] — one task completed.  Thread-safe. *)
val record : t -> index:int -> Json.t -> unit

(** [skip t ~index ~reason] — one task deliberately not run (early
    stopping); recorded so the frontier stays gap-free. *)
val skip : t -> index:int -> reason:string -> unit

(** Final snapshot; the finished file holds the complete frontier. *)
val close : t -> unit

(** Recorded entries, sorted by index. *)
val entries : t -> (int * entry) list

(** Number of recorded entries (tasks + skips). *)
val completed : t -> int

val spec : t -> spec

(** Test hook for the CI kill/resume rules: after the [n]th {e live}
    {!record} in this process, force a snapshot and SIGKILL the
    process — the exact mid-run death the resume path must survive.
    Primed (resumed) entries and skips do not count. *)
val abort_after : t -> int -> unit
