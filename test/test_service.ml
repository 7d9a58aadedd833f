(* PR 10's service hardening: the accept loop survives transient
   Unix errors (the EINTR regression fix — a supervised worker catches
   plenty of signals mid-accept), a session can serve several requests,
   a client dying mid-heartbeat-stream does not take the server with
   it, and degenerate request lines (empty, blank, oversized) each get
   a terminal line without crashing anything. *)

module Service = Mavr_campaign.Service
module Json = Mavr_telemetry.Json

let tmp_sock name =
  let path = Filename.temp_file ("mavr_svc_" ^ name) ".sock" in
  Sys.remove path;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let echo_handler req ~progress:_ = Ok req

(* Connect with retry: the serving domain/process needs a moment to
   bind. *)
let connect path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EINTR), _, _)
      when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.02);
        go ()
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  go ()

(* The two channels share [fd], which is closed once: closing both
   would close it twice, and could shut the server domain's descriptor
   if it reused the number in between. *)
let with_conn path f =
  let fd = connect path in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (try flush oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f ic oc)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* Read until the terminal kind-tagged line; return (heartbeat count,
   terminal json). *)
let read_terminal ic =
  let rec go hb =
    let line = input_line ic in
    match Json.of_string line with
    | Error e -> Alcotest.fail ("unparsable server line: " ^ e)
    | Ok j -> ( match Json.member "kind" j with Some _ -> (hb, j) | None -> go (hb + 1))
  in
  go 0

let kind j = Option.bind (Json.member "kind" j) Json.to_str
let err_msg j = Option.bind (Json.member "error" j) Json.to_str

(* ---- EINTR regression ------------------------------------------------ *)

(* Before the fix, any signal delivered while the server was blocked in
   [accept] made [serve] return [Error "Interrupted system call"] and
   the worker died.  Serve from a forked child with a no-op SIGUSR1
   handler, pelt it with signals mid-accept, then connect: pre-fix the
   child has already torn down (connect fails, exit status 1); post-fix
   the request is served and the child exits 0. *)
let test_accept_retries_eintr () =
  let socket = tmp_sock "eintr" in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ()));
      let status =
        match Service.serve ~socket ~max_requests:1 echo_handler with
        | Ok 1 -> 0
        | Ok _ | Error _ -> 1
      in
      Unix._exit status
  | pid ->
      (* wait until the child's socket is bound *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
        ignore (Unix.select [] [] [] 0.02)
      done;
      Alcotest.(check bool) "server socket bound" true (Sys.file_exists socket);
      (* child is now blocked in accept; interrupt it repeatedly *)
      for _ = 1 to 3 do
        ignore (Unix.select [] [] [] 0.08);
        Unix.kill pid Sys.sigusr1
      done;
      ignore (Unix.select [] [] [] 0.08);
      let terminal =
        with_conn socket (fun ic oc ->
            send_line oc {|{"x":1}|};
            snd (read_terminal ic))
      in
      Alcotest.(check (option string)) "served after signals" (Some "result") (kind terminal);
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "server exited cleanly" true (status = Unix.WEXITED 0)

(* ---- multi-request session ------------------------------------------- *)

let test_multi_request_session () =
  let socket = tmp_sock "multi" in
  let handler req ~progress =
    progress {|{"seq":0,"note":"hb"}|};
    Ok req
  in
  let d = Domain.spawn (fun () -> Service.serve ~socket ~max_requests:3 handler) in
  for k = 1 to 3 do
    with_conn socket (fun ic oc ->
        send_line oc (Printf.sprintf {|{"n":%d}|} k);
        let hb, terminal = read_terminal ic in
        Alcotest.(check int) "one heartbeat" 1 hb;
        Alcotest.(check (option string)) "result kind" (Some "result") (kind terminal);
        let n =
          Option.bind (Json.member "result" terminal) (fun r ->
              Option.bind (Json.member "n" r) Json.to_int)
        in
        Alcotest.(check (option int)) "request echoed" (Some k) n)
  done;
  match Domain.join d with
  | Ok n -> Alcotest.(check int) "three requests served" 3 n
  | Error e -> Alcotest.fail ("serve failed: " ^ e)

(* ---- descriptors ----------------------------------------------------- *)

(* Serving leaves the process's open descriptors as it found them: each
   client's descriptor is closed exactly once, and the listening socket
   when [serve] returns. *)
let test_descriptors_released () =
  let fd_count () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let socket = tmp_sock "fds" in
    let n = 16 in
    let before = fd_count () in
    let d = Domain.spawn (fun () -> Service.serve ~socket ~max_requests:n echo_handler) in
    for k = 1 to n do
      with_conn socket (fun ic oc ->
          send_line oc (Printf.sprintf {|{"n":%d}|} k);
          Alcotest.(check (option string)) "served" (Some "result") (kind (snd (read_terminal ic))))
    done;
    (match Domain.join d with
    | Ok m -> Alcotest.(check int) "all requests served" n m
    | Error e -> Alcotest.fail ("serve failed: " ^ e));
    Alcotest.(check int) "open descriptors after serving" before (fd_count ())
  end

(* ---- spec errors do not end the session ------------------------------ *)

(* A request the spec decoder refuses (a misspelled member, a repeated
   one) gets exactly one terminal kind:error line naming the member, and
   the same server then serves the next request. *)
let test_bad_spec_then_served () =
  let module Spec = Mavr_sim.Campaign_spec in
  let socket = tmp_sock "badspec" in
  let handler req ~progress:_ = Result.map Spec.to_json (Spec.of_json req) in
  let d = Domain.spawn (fun () -> Service.serve ~socket ~max_requests:3 handler) in
  List.iter
    (fun (req, member) ->
      with_conn socket (fun ic oc ->
          send_line oc req;
          let hb, terminal = read_terminal ic in
          Alcotest.(check int) (req ^ ": no heartbeat") 0 hb;
          Alcotest.(check (option string)) (req ^ ": kind") (Some "error") (kind terminal);
          let names =
            match err_msg terminal with
            | Some m ->
                let n = String.length member in
                let rec go i = i + n <= String.length m && (String.sub m i n = member || go (i + 1)) in
                go 0
            | None -> false
          in
          Alcotest.(check bool) (req ^ ": error names " ^ member) true names;
          Alcotest.(check bool) (req ^ ": nothing after the terminal line") true
            (match input_line ic with _ -> false | exception End_of_file -> true)))
    [ ({|{"fautls":"stress","trials":1}|}, "fautls"); ({|{"seed":1,"seed":2}|}, "seed") ];
  let terminal =
    with_conn socket (fun ic oc ->
        send_line oc {|{"faults":"stress","trials":1}|};
        snd (read_terminal ic))
  in
  Alcotest.(check (option string)) "next request served" (Some "result") (kind terminal);
  Alcotest.(check (option string)) "with its faults" (Some "stress")
    (Option.bind (Json.member "result" terminal) (fun r ->
         Option.bind (Json.member "faults" r) Json.to_str));
  match Domain.join d with
  | Ok n -> Alcotest.(check int) "three requests served" 3 n
  | Error e -> Alcotest.fail ("serve failed: " ^ e)

(* ---- dead client mid-heartbeat --------------------------------------- *)

let test_dead_client_mid_stream () =
  let socket = tmp_sock "deadclient" in
  (* Enough heartbeat volume to overrun any socket buffer, so the
     server is guaranteed to hit the write error once the client is
     gone. *)
  let flood_line = Printf.sprintf {|{"seq":1,"pad":%S}|} (String.make 256 'x') in
  let handler req ~progress =
    (match Json.member "flood" req with
    | Some _ -> for _ = 1 to 20_000 do progress flood_line done
    | None -> ());
    Ok req
  in
  let d = Domain.spawn (fun () -> Service.serve ~socket ~max_requests:2 handler) in
  (* client 1: request the flood, read one line, vanish *)
  let fd = connect socket in
  let oc = Unix.out_channel_of_descr fd in
  send_line oc {|{"flood":true}|};
  let ic = Unix.in_channel_of_descr fd in
  ignore (input_line ic);
  Unix.close fd;
  (* client 2: the server must still be alive and serve normally *)
  let terminal =
    with_conn socket (fun ic oc ->
        send_line oc {|{"n":2}|};
        snd (read_terminal ic))
  in
  Alcotest.(check (option string)) "server survived dead client" (Some "result") (kind terminal);
  match Domain.join d with
  | Ok n -> Alcotest.(check int) "both requests counted" 2 n
  | Error e -> Alcotest.fail ("serve failed: " ^ e)

(* ---- degenerate request lines ---------------------------------------- *)

let test_degenerate_requests () =
  let socket = tmp_sock "degenerate" in
  let d = Domain.spawn (fun () -> Service.serve ~socket ~max_requests:3 echo_handler) in
  (* (a) no request at all: client half-closes immediately *)
  let fd = connect socket in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr fd in
  let _, terminal = read_terminal ic in
  Alcotest.(check (option string)) "empty request kind" (Some "error") (kind terminal);
  Alcotest.(check (option string)) "empty request message" (Some "empty request")
    (err_msg terminal);
  close_in_noerr ic;
  (* (b) a blank line is a parse error, not a crash *)
  with_conn socket (fun ic oc ->
      send_line oc "";
      let _, terminal = read_terminal ic in
      Alcotest.(check (option string)) "blank line kind" (Some "error") (kind terminal);
      let is_bad_request =
        match err_msg terminal with
        | Some m -> String.length m >= 11 && String.sub m 0 11 = "bad request"
        | None -> false
      in
      Alcotest.(check bool) "blank line reported as bad request" true is_bad_request);
  (* (c) an oversized (multi-megabyte) request line round-trips *)
  with_conn socket (fun ic oc ->
      let pad = String.make (2 * 1024 * 1024) 'a' in
      send_line oc (Printf.sprintf {|{"pad":%S,"n":7}|} pad);
      let _, terminal = read_terminal ic in
      Alcotest.(check (option string)) "oversized request kind" (Some "result") (kind terminal);
      let n =
        Option.bind (Json.member "result" terminal) (fun r ->
            Option.bind (Json.member "n" r) Json.to_int)
      in
      Alcotest.(check (option int)) "oversized request echoed" (Some 7) n);
  match Domain.join d with
  | Ok n -> Alcotest.(check int) "all three degenerate requests served" 3 n
  | Error e -> Alcotest.fail ("serve failed: " ^ e)

let () =
  Alcotest.run "service"
    [
      ( "accept",
        [ Alcotest.test_case "EINTR mid-accept is retried" `Quick test_accept_retries_eintr ] );
      ( "sessions",
        [
          Alcotest.test_case "multi-request session" `Quick test_multi_request_session;
          Alcotest.test_case "bad spec member, then served" `Quick test_bad_spec_then_served;
          Alcotest.test_case "dead client mid-heartbeat" `Quick test_dead_client_mid_stream;
          Alcotest.test_case "degenerate request lines" `Quick test_degenerate_requests;
          Alcotest.test_case "descriptors released" `Quick test_descriptors_released;
        ] );
    ]
