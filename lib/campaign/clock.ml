(* gettimeofday can step backwards (NTP); the ratchet makes [wall]
   monotonic so elapsed spans are never negative, including when read
   from different domains. *)

let last = Atomic.make neg_infinity

let wall () =
  let t = Unix.gettimeofday () in
  let rec ratchet () =
    let prev = Atomic.get last in
    if t <= prev then prev
    else if Atomic.compare_and_set last prev t then t
    else ratchet ()
  in
  ratchet ()

let cpu () = Sys.time ()

type span = { wall_s : float; cpu_s : float }

let time f =
  let w0 = wall () and c0 = cpu () in
  let r = f () in
  let w1 = wall () and c1 = cpu () in
  (r, { wall_s = w1 -. w0; cpu_s = c1 -. c0 })

let span_to_json_fields s =
  [
    ("wall_s", Mavr_telemetry.Json.Float s.wall_s);
    ("cpu_s", Mavr_telemetry.Json.Float s.cpu_s);
  ]

let tracer () = Mavr_telemetry.Span.create ~clock:{ Mavr_telemetry.Span.wall; cpu } ()
