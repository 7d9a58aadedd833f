module Json = Mavr_telemetry.Json

type t = {
  sink : string -> unit;
  interval_s : float;
  started : float;
  done_ : int Atomic.t;
  total : int Atomic.t;
  seq : int Atomic.t;
  lock : Mutex.t;  (* serializes sink writes; held only via try_lock on the hot path *)
  mutable last_emit : float;  (* guarded by [lock] *)
  mutable providers : (unit -> (string * Json.t) list) list;
}

let create ?(interval_s = 0.5) ~sink () =
  if interval_s < 0.0 then invalid_arg "Campaign.Progress.create: negative interval";
  {
    sink;
    interval_s;
    started = Clock.wall ();
    done_ = Atomic.make 0;
    total = Atomic.make 0;
    seq = Atomic.make 0;
    lock = Mutex.create ();
    last_emit = neg_infinity;
    providers = [];
  }

let add_total t n =
  if n < 0 then invalid_arg "Campaign.Progress.add_total: negative count";
  ignore (Atomic.fetch_and_add t.total n)

(* Registration takes the sink lock: [emit_locked] traverses [providers]
   under the same lock from whichever domain is emitting, so an unlocked
   [<-] here would be a cross-domain data race on the list cell.
   Mid-run registration is supported — the provider joins every line
   emitted after this call returns; it never appears retroactively. *)
let on_heartbeat t f =
  Mutex.lock t.lock;
  t.providers <- t.providers @ [ f ];
  Mutex.unlock t.lock
let tasks_done t = Atomic.get t.done_
let total t = Atomic.get t.total
let lines_emitted t = Atomic.get t.seq

(* Caller holds [t.lock]. *)
let emit_locked t ~reason =
  let now = Clock.wall () in
  let d = Atomic.get t.done_ and total = Atomic.get t.total in
  let elapsed = now -. t.started in
  let rate = if elapsed > 0.0 then float_of_int d /. elapsed else 0.0 in
  let eta = if rate > 0.0 then float_of_int (max 0 (total - d)) /. rate else 0.0 in
  let detail = List.concat_map (fun f -> f ()) t.providers in
  let seq = Atomic.fetch_and_add t.seq 1 + 1 in
  t.last_emit <- now;
  t.sink
    (Json.to_string
       (Json.Obj
          ([
             ("seq", Json.Int seq);
             ("reason", Json.String reason);
             ("wall_s", Json.Float elapsed);
             ("done", Json.Int d);
             ("total", Json.Int total);
             ("rate_per_s", Json.Float rate);
             ("eta_s", Json.Float eta);
           ]
          @ detail)))

let task_done t =
  let d = Atomic.fetch_and_add t.done_ 1 + 1 in
  if d >= Atomic.get t.total then begin
    (* Frontier completion: every task counted so far is done, so this
       heartbeat must not be droppable.  Block for the lock instead of
       try_lock — the old try_lock path silently lost the frontier line
       whenever another domain happened to be mid-emission at the instant
       the last task completed.  A multi-phase run (e.g. census then grid,
       each adding to [total]) crosses done = total once per phase, so
       this is a heartbeat: only the caller knows when the run is over,
       and says so with one [emit ~reason:"final"]. *)
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () -> emit_locked t ~reason:"heartbeat")
  end
  else if Mutex.try_lock t.lock then
    (* try_lock: if another domain is mid-emission, skip — its line will
       carry this completion anyway (counters are read at emit time). *)
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let now = Clock.wall () in
        if now -. t.last_emit >= t.interval_s then emit_locked t ~reason:"heartbeat")

let emit t ~reason =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> emit_locked t ~reason)
