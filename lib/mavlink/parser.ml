type stats = { frames_ok : int; crc_errors : int; bytes_dropped : int }

type t = {
  buf : Buffer.t;
  mutable frames_ok : int;
  mutable crc_errors : int;
  mutable bytes_dropped : int;
}

let create () =
  { buf = Buffer.create 64; frames_ok = 0; crc_errors = 0; bytes_dropped = 0 }

let feed t bytes =
  (* Single pass over one string, tracking an offset: a k-frame chunk is
     O(n) total instead of rebuilding the buffer (O(n) copy) per frame,
     and every byte is accounted exactly once — parsed into a frame,
     counted in [bytes_dropped], or left buffered for the next chunk. *)
  let data =
    if Buffer.length t.buf = 0 then bytes
    else begin
      Buffer.add_string t.buf bytes;
      let d = Buffer.contents t.buf in
      Buffer.clear t.buf;
      d
    end
  in
  let n = String.length data in
  let frames = ref [] in
  let pos = ref 0 in
  let waiting = ref false in
  while (not !waiting) && !pos < n do
    if Char.code data.[!pos] <> Frame.magic then begin
      (* Resync: drop bytes up to the next magic. *)
      let next =
        match String.index_from_opt data !pos (Char.chr Frame.magic) with
        | Some i -> i
        | None -> n
      in
      t.bytes_dropped <- t.bytes_dropped + (next - !pos);
      pos := next
    end
    else
      match Frame.decode ~pos:!pos data with
      | Ok (frame, consumed) ->
          t.frames_ok <- t.frames_ok + 1;
          frames := frame :: !frames;
          pos := !pos + consumed
      | Error Frame.Truncated -> waiting := true
      | Error (Frame.Bad_crc _) ->
          (* Skip the bad frame's magic byte and resync. *)
          t.crc_errors <- t.crc_errors + 1;
          t.bytes_dropped <- t.bytes_dropped + 1;
          incr pos
      | Error Frame.Bad_magic ->
          t.bytes_dropped <- t.bytes_dropped + 1;
          incr pos
  done;
  if !pos < n then Buffer.add_substring t.buf data !pos (n - !pos);
  List.rev !frames

let stats t = { frames_ok = t.frames_ok; crc_errors = t.crc_errors; bytes_dropped = t.bytes_dropped }

let pending t = Buffer.length t.buf

(* Pull-style export: the registry reads the counters at snapshot time,
   so the byte loop above is untouched — the link-quality numbers the
   ground station's anomaly detector keys on become observable without
   any per-byte instrumentation cost. *)
let attach_metrics t registry =
  let module M = Mavr_telemetry.Metrics in
  let name s = "gcs.link." ^ s in
  M.sampled registry (name "frames_ok") (fun () -> t.frames_ok);
  M.sampled registry (name "crc_errors") (fun () -> t.crc_errors);
  M.sampled registry (name "bytes_dropped") (fun () -> t.bytes_dropped);
  M.sampled registry (name "bytes_pending") (fun () -> Buffer.length t.buf)
