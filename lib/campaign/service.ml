module Json = Mavr_telemetry.Json

type handler = Json.t -> progress:(string -> unit) -> (Json.t, string) result

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let send_obj oc fields = send_line oc (Json.to_string (Json.Obj fields))

(* One request/response exchange over arbitrary channels. *)
let handle_channel handler ic oc =
  match input_line ic with
  | exception End_of_file ->
      send_obj oc [ ("kind", Json.String "error"); ("error", Json.String "empty request") ]
  | line -> (
      match Json.of_string line with
      | Error e ->
          send_obj oc
            [ ("kind", Json.String "error"); ("error", Json.String ("bad request: " ^ e)) ]
      | Ok req -> (
          (* Heartbeat lines pass through verbatim (they already carry
             seq/reason/done/total); only the terminal line is tagged
             with a "kind". *)
          match handler req ~progress:(send_line oc) with
          | Ok result -> send_obj oc [ ("kind", Json.String "result"); ("result", result) ]
          | Error e -> send_obj oc [ ("kind", Json.String "error"); ("error", Json.String e) ]
          | exception e ->
              send_obj oc
                [
                  ("kind", Json.String "error");
                  ("error", Json.String ("handler raised: " ^ Printexc.to_string e));
                ]))

let serve ~socket ?max_requests handler =
  (* A dead client mid-stream must not kill the server with SIGPIPE;
     the write error surfaces as Sys_error on the channel instead. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          try Unix.unlink socket with Unix.Unix_error _ -> ())
        (fun () ->
          match
            Unix.bind fd (Unix.ADDR_UNIX socket);
            Unix.listen fd 8
          with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | () ->
              (* Sequential accept loop: one campaign at a time owns the
                 pool; queued clients wait in the listen backlog. *)
              let rec loop served =
                match max_requests with
                | Some m when served >= m -> Ok served
                | _ -> (
                    match Unix.accept fd with
                    (* Transient accept failures must not tear the server
                       down: EINTR is any signal landing mid-accept (a
                       worker being supervised gets plenty), ECONNABORTED
                       is a client giving up while queued.  Retry; only
                       real socket errors (EBADF, EMFILE, ...) are fatal. *)
                    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
                        loop served
                    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
                    | client, _ ->
                        let ic = Unix.in_channel_of_descr client in
                        let oc = Unix.out_channel_of_descr client in
                        (try handle_channel handler ic oc with Sys_error _ -> ());
                        (* ic and oc share [client]: flush what is left,
                           then close the descriptor once.  Closing both
                           channels would close it twice, and shut a
                           descriptor another domain opened in between. *)
                        (try flush oc with Sys_error _ -> ());
                        (try Unix.close client with Unix.Unix_error _ -> ());
                        loop (served + 1))
              in
              loop 0)

let serve_stdio handler = handle_channel handler stdin stdout
