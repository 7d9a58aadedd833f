(** Multi-host campaign sharding: drive {!Service} workers over shards.

    A dispatcher splits a campaign's task-index space into contiguous,
    block-aligned shards, sends each shard to a worker speaking the
    {!Service} protocol (one spec line in, streamed progress/entry lines
    out, one terminal line), and merges the per-shard index-keyed
    checkpoint entries into a single gap-free frontier.  Because every
    task's result is a pure function of [(spec, index)] and statistical
    decisions (early stopping) read only their own cell's prefix, the
    merged frontier — replayed into a fresh {!Checkpoint} and folded by
    the campaign's own join — reproduces the single-host document
    byte-for-byte.

    Failure model: a worker is {e dead} on connection loss, unreadable
    output, or heartbeat silence longer than [heartbeat_timeout_s]; its
    shard is narrowed past the fully-received leading blocks (received
    entries are pure per-index values, so they are kept) and requeued,
    with exponential backoff, to a surviving idle worker — up to
    [max_attempts] assignments per shard.  A worker that stays up but
    answers with a terminal ["error"] line keeps its place in the pool;
    only its assignment is charged.  The dispatcher itself is
    single-threaded: one [select] loop multiplexing every worker
    connection.

    Addresses are Unix domain sockets today; the {!type-address} type is
    the seam where TCP endpoints slot in later. *)

module Json := Mavr_telemetry.Json

(** Worker endpoint.  [Unix_socket path] — a {!Service.serve} listener
    on a local socket file. *)
type address = Unix_socket of string

(** Accepts ["unix:PATH"] or a bare path. *)
val address_of_string : string -> (address, string) result

(** Contiguous global-index range [\[lo, hi)], block-aligned. *)
type shard = { lo : int; hi : int }

(** [plan ~tasks ~block ~shards] — split [\[0, tasks)] into at most
    [shards] contiguous, near-even, nonempty ranges whose bounds are
    multiples of [block] (the campaign's per-cell trial count; alignment
    keeps per-cell statistics whole within one worker).
    @raise Invalid_argument if [tasks] is not a multiple of [block], or
    either is out of range. *)
val plan : tasks:int -> block:int -> shards:int -> shard list

(** Observable dispatcher transitions, in event order — the hook CI uses
    to kill a worker mid-run at a deterministic point, and the material
    of the dispatch session log. *)
type event =
  | Assigned of { worker : int; shard : shard; attempt : int }
  | Entry_received of { worker : int; index : int; fresh : bool }
  | Heartbeat of { worker : int; seq : int }
  | Shard_done of { worker : int; shard : shard }
  | Worker_failed of { worker : int; reason : string }
  | Requeued of { shard : shard; attempts : int }

type outcome = {
  entries : (int * Checkpoint.entry) list;
      (** every shard's entries merged, sorted by index, gap-free over
          the union of the planned shards *)
  assignments : int;  (** shard assignments issued (>= shard count) *)
  worker_failures : int;  (** dead-worker events *)
  heartbeats : int;  (** worker heartbeat lines observed *)
}

type error =
  | Unresolved of { shard : shard; attempts : int; reason : string }
      (** a shard could not be completed within [max_attempts] *)
  | No_workers  (** the worker pool was empty or entirely dead *)

val error_to_string : error -> string

(** [run ~spec ~request ~block ~workers ~shards ()] — dispatch [shards]
    across [workers] and merge.  [request ~lo ~hi] builds the spec
    object sent to a worker for one shard (the campaign spec plus a
    ["shard"] member).  Every worker's streamed header line is checked
    against [spec] (hash, seed, task count); entry lines outside
    [\[0, spec.tasks)] or unparsable output fail the worker.

    [progress], when given, receives the merged stream: the total is
    registered up front and each {e fresh} index (first time an entry
    for it arrives, from any worker) ticks {!Progress.task_done} — so
    the heartbeat sequence is gap-free and the frontier emission fires
    exactly once, like a single-host run.  A ["dispatch"] detail
    provider reporting shard/worker counts is registered on it.

    [on_event] sees every {!type-event} from the dispatcher thread. *)
val run :
  ?heartbeat_timeout_s:float ->
  ?max_attempts:int ->
  ?connect_timeout_s:float ->
  ?progress:Progress.t ->
  ?on_event:(event -> unit) ->
  spec:Checkpoint.spec ->
  request:(lo:int -> hi:int -> Json.t) ->
  block:int ->
  workers:address list ->
  shards:shard list ->
  unit ->
  (outcome, error) result
