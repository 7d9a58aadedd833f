(** Campaign-as-a-service: JSONL request/response over a local socket.

    Protocol (line-oriented JSON, one connection = one campaign):

    - the client sends exactly one line: the campaign spec object;
    - the server streams {!Progress} heartbeat lines back verbatim
      (recognizable by their ["seq"]/["reason"] fields, ending with a
      [reason:"final"] line);
    - the last line is terminal and tagged:
      [{"kind":"result","result":<campaign document>}] on success, or
      [{"kind":"error","error":<message>}].

    The server is sequential by design — one campaign at a time owns
    the worker pool; queued clients wait in the listen backlog.  What a
    spec object means (profile, trials, early-stop policy, ...) is the
    handler's business; this module only owns the transport. *)

module Json := Mavr_telemetry.Json

(** A handler turns one request into a result, pushing heartbeat lines
    through [progress] along the way.  Returning [Error] — or raising —
    produces a terminal ["error"] line; the connection always gets a
    terminal line. *)
type handler = Json.t -> progress:(string -> unit) -> (Json.t, string) result

(** [serve ~socket ?max_requests handler] binds a Unix domain socket at
    [socket] (unlinking any stale file first), accepts connections
    sequentially, and serves until [max_requests] connections have been
    handled ([None] = forever).  SIGPIPE is ignored for the process, so
    a client vanishing mid-stream surfaces as a write error, not death.
    Transient accept failures ([EINTR] from a signal landing mid-accept,
    [ECONNABORTED] from a client aborting while queued) are retried;
    only real socket errors are fatal.  Returns the number of requests
    served, or the socket-level error. *)
val serve : socket:string -> ?max_requests:int -> handler -> (int, string) result

(** [serve_stdio handler] runs one request over stdin/stdout — the same
    protocol without a socket, for CI and piping. *)
val serve_stdio : handler -> unit
