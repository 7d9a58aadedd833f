module Json = Mavr_telemetry.Json

type address = Unix_socket of string

let address_of_string s =
  if s = "" then Error "empty worker address"
  else if String.starts_with ~prefix:"unix:" s then
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "empty unix socket path" else Ok (Unix_socket path)
  else if String.contains s ':' then
    Error (Printf.sprintf "unsupported worker address scheme in %S (only unix: for now)" s)
  else Ok (Unix_socket s)


type shard = { lo : int; hi : int }

let plan ~tasks ~block ~shards =
  if tasks < 0 then invalid_arg "Campaign.Dispatch.plan: negative task count";
  if block < 1 then invalid_arg "Campaign.Dispatch.plan: block must be >= 1";
  if shards < 1 then invalid_arg "Campaign.Dispatch.plan: shards must be >= 1";
  if tasks mod block <> 0 then
    invalid_arg
      (Printf.sprintf "Campaign.Dispatch.plan: %d tasks not a multiple of block %d" tasks block);
  let cells = tasks / block in
  let s = min shards (max 1 cells) in
  List.init s (fun i ->
      let clo = cells * i / s and chi = cells * (i + 1) / s in
      { lo = clo * block; hi = chi * block })
  |> List.filter (fun sh -> sh.hi > sh.lo)

type event =
  | Assigned of { worker : int; shard : shard; attempt : int }
  | Entry_received of { worker : int; index : int; fresh : bool }
  | Heartbeat of { worker : int; seq : int }
  | Shard_done of { worker : int; shard : shard }
  | Worker_failed of { worker : int; reason : string }
  | Requeued of { shard : shard; attempts : int }

type outcome = {
  entries : (int * Checkpoint.entry) list;
  assignments : int;
  worker_failures : int;
  heartbeats : int;
}

type error =
  | Unresolved of { shard : shard; attempts : int; reason : string }
  | No_workers

let error_to_string = function
  | Unresolved { shard; attempts; reason } ->
      Printf.sprintf "shard [%d,%d) unresolved after %d attempt(s): %s" shard.lo shard.hi
        attempts reason
  | No_workers -> "no live workers"

(* ---- wire helpers ---------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

(* Connect with retry: a freshly spawned worker needs a moment to bind
   its socket, so ECONNREFUSED/ENOENT inside the window are "not yet",
   not "never". *)
let connect_address ~timeout_s (Unix_socket path) =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EINTR), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.05);
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Unix.error_message e)
  in
  go ()

(* One worker line, classified.  Entry/header lines are the checkpoint
   stream (the shard's results); seq-bearing lines are the worker's own
   progress heartbeats; kind:result/error is terminal. *)
type line_class =
  | L_header_ok
  | L_header_bad
  | L_entry of int * Checkpoint.entry
  | L_heartbeat of int
  | L_result
  | L_error of string
  | L_garbage of string

let classify (spec : Checkpoint.spec) line =
  match Json.of_string line with
  | Error e -> L_garbage e
  | Ok j -> (
      let str k = Option.bind (Json.member k j) Json.to_str in
      let int k = Option.bind (Json.member k j) Json.to_int in
      match str "kind" with
      | Some "header" ->
          if
            str "spec_hash" = Some spec.Checkpoint.spec_hash
            && int "seed" = Some spec.Checkpoint.seed
            && int "tasks" = Some spec.Checkpoint.tasks
          then L_header_ok
          else L_header_bad
      | Some ("task" | "skip") -> (
          match Checkpoint.decode_entry ~tasks:spec.Checkpoint.tasks line with
          | Ok (i, e) -> L_entry (i, e)
          | Error e -> L_garbage e)
      | Some "result" -> L_result
      | Some "error" -> L_error (Option.value ~default:"unknown worker error" (str "error"))
      | Some k -> L_garbage (Printf.sprintf "unknown kind %S" k)
      | None -> (
          match int "seq" with
          | Some seq -> L_heartbeat seq
          | None -> L_garbage "line with neither kind nor seq"))

(* ---- dispatcher ------------------------------------------------------ *)

type wstate = {
  w_id : int;
  w_addr : address;
  w_buf : Buffer.t;
  mutable w_fd : Unix.file_descr option;
  mutable w_dead : bool;
  mutable w_shard : shard option;
  mutable w_attempt : int;  (* attempt number of the current assignment *)
  mutable w_last : float;  (* last activity (connect or any received line) *)
}

let run ?(heartbeat_timeout_s = 30.0) ?(max_attempts = 3) ?(connect_timeout_s = 5.0) ?progress
    ?on_event ~spec ~request ~block ~workers ~shards () =
  if block < 1 then invalid_arg "Campaign.Dispatch.run: block must be >= 1";
  List.iter
    (fun sh ->
      if sh.lo < 0 || sh.hi > spec.Checkpoint.tasks || sh.lo > sh.hi then
        invalid_arg (Printf.sprintf "Campaign.Dispatch.run: shard [%d,%d) out of range" sh.lo sh.hi);
      if sh.lo mod block <> 0 || sh.hi mod block <> 0 then
        invalid_arg
          (Printf.sprintf "Campaign.Dispatch.run: shard [%d,%d) not aligned to block %d" sh.lo
             sh.hi block))
    shards;
  let emit ev = match on_event with None -> () | Some f -> f ev in
  let received : (int, Checkpoint.entry) Hashtbl.t = Hashtbl.create 1024 in
  let total = List.fold_left (fun n sh -> n + (sh.hi - sh.lo)) 0 shards in
  Option.iter (fun p -> Progress.add_total p total) progress;
  let ws =
    List.mapi
      (fun i a ->
        {
          w_id = i;
          w_addr = a;
          w_buf = Buffer.create 4096;
          w_fd = None;
          w_dead = false;
          w_shard = None;
          w_attempt = 0;
          w_last = 0.0;
        })
      workers
  in
  let nshards = List.length shards in
  (* Pending shards: (range, attempts already made, earliest re-dispatch
     time).  FIFO plus backoff. *)
  let queue = ref (List.map (fun sh -> (sh, 0, 0.0)) shards) in
  let done_shards = ref 0 in
  let assignments = ref 0 and worker_failures = ref 0 and heartbeats = ref 0 in
  let failed : error option ref = ref None in
  let requeues = ref 0 in
  Option.iter
    (fun p ->
      Progress.on_heartbeat p (fun () ->
          let active = List.length (List.filter (fun w -> w.w_shard <> None) ws) in
          let dead = List.length (List.filter (fun w -> w.w_dead) ws) in
          [
            ( "dispatch",
              Json.Obj
                [
                  ("shards", Json.Int nshards);
                  ("shards_done", Json.Int !done_shards);
                  ("shards_queued", Json.Int (List.length !queue));
                  ("shards_active", Json.Int active);
                  ("workers", Json.Int (List.length ws));
                  ("workers_dead", Json.Int dead);
                  ("redispatches", Json.Int !requeues);
                ] );
          ]))
    progress;
  (* Narrow a failed shard past its fully-received leading blocks:
     every received entry is a pure function of (spec, index), so
     nothing already streamed needs re-running; re-running a partially
     received block merely re-produces identical entries. *)
  let narrow sh =
    let lo = ref sh.lo in
    let block_complete b =
      let all = ref true in
      for i = b to b + block - 1 do
        if not (Hashtbl.mem received i) then all := false
      done;
      !all
    in
    while !lo < sh.hi && block_complete !lo do
      lo := !lo + block
    done;
    { sh with lo = !lo }
  in
  let requeue sh attempts reason =
    let sh' = narrow sh in
    if sh'.lo >= sh'.hi then begin
      incr done_shards;
      emit (Shard_done { worker = -1; shard = sh })
    end
    else if attempts >= max_attempts then
      failed := Some (Unresolved { shard = sh'; attempts; reason })
    else begin
      let backoff = 0.1 *. (2.0 ** float_of_int (attempts - 1)) in
      queue := !queue @ [ (sh', attempts, Unix.gettimeofday () +. backoff) ];
      incr requeues;
      emit (Requeued { shard = sh'; attempts })
    end
  in
  let close_fd w =
    (match w.w_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    w.w_fd <- None
  in
  (* Worker death: connection loss, garbage output, heartbeat silence.
     The worker leaves the pool; its shard is narrowed and requeued. *)
  let fail_worker w reason =
    close_fd w;
    w.w_dead <- true;
    incr worker_failures;
    emit (Worker_failed { worker = w.w_id; reason });
    match w.w_shard with
    | None -> ()
    | Some sh ->
        w.w_shard <- None;
        requeue sh w.w_attempt reason
  in
  (* Assignment failure with the worker still healthy (a terminal
     "error" line, or a shard that ended incomplete): the attempt is
     charged, the worker stays in the pool. *)
  let fail_assignment w reason =
    close_fd w;
    match w.w_shard with
    | None -> ()
    | Some sh ->
        w.w_shard <- None;
        requeue sh w.w_attempt reason
  in
  let finish_assignment w =
    match w.w_shard with
    | None -> close_fd w
    | Some sh ->
        let missing = ref 0 in
        for i = sh.lo to sh.hi - 1 do
          if not (Hashtbl.mem received i) then incr missing
        done;
        if !missing = 0 then begin
          close_fd w;
          w.w_shard <- None;
          incr done_shards;
          emit (Shard_done { worker = w.w_id; shard = sh })
        end
        else
          fail_assignment w
            (Printf.sprintf "worker result with %d of %d indices missing" !missing (sh.hi - sh.lo))
  in
  let handle_line w line =
    match classify spec line with
    | L_header_ok -> ()
    | L_header_bad -> fail_worker w "worker header does not match campaign spec"
    | L_entry (i, e) ->
        let fresh = not (Hashtbl.mem received i) in
        Hashtbl.replace received i e;
        if fresh then Option.iter Progress.task_done progress;
        emit (Entry_received { worker = w.w_id; index = i; fresh })
    | L_heartbeat seq ->
        incr heartbeats;
        emit (Heartbeat { worker = w.w_id; seq })
    | L_result -> finish_assignment w
    | L_error e -> fail_assignment w e
    | L_garbage e -> fail_worker w ("unparsable worker line: " ^ e)
  in
  let rec drain_lines w =
    if w.w_fd <> None then begin
      let s = Buffer.contents w.w_buf in
      match String.index_opt s '\n' with
      | None -> ()
      | Some i ->
          let line = String.sub s 0 i in
          Buffer.clear w.w_buf;
          Buffer.add_substring w.w_buf s (i + 1) (String.length s - i - 1);
          if String.trim line <> "" then handle_line w line;
          drain_lines w
    end
  in
  let read_buf = Bytes.create 65536 in
  let handle_readable w fd =
    match Unix.read fd read_buf 0 (Bytes.length read_buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> fail_worker w (Unix.error_message e)
    | 0 -> fail_worker w "connection closed mid-shard"
    | n ->
        w.w_last <- Unix.gettimeofday ();
        Buffer.add_subbytes w.w_buf read_buf 0 n;
        drain_lines w
  in
  let try_assign () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if (not w.w_dead) && w.w_shard = None && !failed = None then
          let ready, later = List.partition (fun (_, _, nb) -> nb <= now) !queue in
          match ready with
          | [] -> ()
          | (sh, attempts, _) :: rest -> (
              queue := rest @ later;
              match connect_address ~timeout_s:connect_timeout_s w.w_addr with
              | Error e ->
                  (* the shard was popped but never assigned; the worker is
                     unreachable — fail it and requeue the shard directly *)
                  w.w_dead <- true;
                  incr worker_failures;
                  emit (Worker_failed { worker = w.w_id; reason = "connect: " ^ e });
                  requeue sh (attempts + 1) ("connect: " ^ e)
              | Ok fd -> (
                  let line = Json.to_string (request ~lo:sh.lo ~hi:sh.hi) ^ "\n" in
                  match write_all fd line with
                  | exception Unix.Unix_error (e, _, _) ->
                      (try Unix.close fd with Unix.Unix_error _ -> ());
                      w.w_dead <- true;
                      incr worker_failures;
                      emit (Worker_failed { worker = w.w_id; reason = Unix.error_message e });
                      requeue sh (attempts + 1) (Unix.error_message e)
                  | () ->
                      Buffer.clear w.w_buf;
                      w.w_fd <- Some fd;
                      w.w_shard <- Some sh;
                      w.w_attempt <- attempts + 1;
                      w.w_last <- Unix.gettimeofday ();
                      incr assignments;
                      emit (Assigned { worker = w.w_id; shard = sh; attempt = attempts + 1 }))))
      ws
  in
  let check_timeouts () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if w.w_shard <> None && now -. w.w_last > heartbeat_timeout_s then
          fail_worker w
            (Printf.sprintf "heartbeat timeout (%.1fs of silence)" (now -. w.w_last)))
      ws
  in
  if ws = [] then Error No_workers
  else begin
    let result = ref None in
    while !result = None do
      if !failed <> None then result := Some (Error (Option.get !failed))
      else if !done_shards >= nshards then
        result :=
          Some
            (Ok
               {
                 entries =
                   Hashtbl.fold (fun i e acc -> (i, e) :: acc) received []
                   |> List.sort (fun (a, _) (b, _) -> compare a b);
                 assignments = !assignments;
                 worker_failures = !worker_failures;
                 heartbeats = !heartbeats;
               })
      else if List.for_all (fun w -> w.w_dead) ws then
        result :=
          Some
            (Error
               (match !queue with
               | (sh, attempts, _) :: _ -> Unresolved { shard = sh; attempts; reason = "no live workers" }
               | [] -> No_workers))
      else begin
        try_assign ();
        let fds =
          List.filter_map (fun w -> if w.w_shard <> None then w.w_fd else None) ws
        in
        if fds <> [] then begin
          match Unix.select fds [] [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, _, _ ->
              List.iter
                (fun w ->
                  match w.w_fd with
                  | Some fd when List.memq fd readable -> handle_readable w fd
                  | _ -> ())
                ws
        end
        else ignore (Unix.select [] [] [] 0.05);
        check_timeouts ()
      end
    done;
    List.iter close_fd ws;
    Option.get !result
  end
