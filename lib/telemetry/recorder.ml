type kind = Point | Span_begin | Span_end

type event = { cycle : int; kind : kind; name : string; value : int }

(* Struct-of-arrays ring: appending does not allocate — four stores and
   three counter updates, with the [event] records the readers see built
   on demand.  [buf.(head)] is the slot the next event lands in, so once
   full the writer overwrites the oldest entry in O(1) — the flight
   recorder must cost the same whether it has run for a thousand cycles
   or a billion.  [sync] is the producer hook ({!set_sync}); it is
   [no_sync] while it runs, so it may record. *)
type t = {
  cycles : int array;
  kinds : int array; (* 0 point, 1 span begin, 2 span end: kind_of_code below *)
  names : string array;
  values : int array;
  mutable head : int;
  mutable len : int;
  mutable total : int;
  mutable sync : unit -> unit;
}

let kind_of_code = function 1 -> Span_begin | 2 -> Span_end | _ -> Point

let no_sync () = ()

let create ~capacity =
  if capacity <= 0 then invalid_arg "Telemetry.Recorder.create: capacity must be positive";
  {
    cycles = Array.make capacity 0;
    kinds = Array.make capacity 0;
    names = Array.make capacity "";
    values = Array.make capacity 0;
    head = 0;
    len = 0;
    total = 0;
    sync = no_sync;
  }

let set_sync t f = t.sync <- f

let sync t =
  let f = t.sync in
  if f != no_sync then begin
    t.sync <- no_sync;
    Fun.protect ~finally:(fun () -> t.sync <- f) f
  end

let capacity t = Array.length t.cycles

let length t =
  sync t;
  t.len

let total_recorded t =
  sync t;
  t.total

let drop t n = t.total <- t.total + n

let push t ~cycle ~kindc ~value name =
  sync t;
  let cap = Array.length t.cycles in
  let h = t.head in
  Array.unsafe_set t.cycles h cycle;
  Array.unsafe_set t.kinds h kindc;
  Array.unsafe_set t.names h name;
  Array.unsafe_set t.values h value;
  t.head <- (if h + 1 = cap then 0 else h + 1);
  if t.len < cap then t.len <- t.len + 1;
  t.total <- t.total + 1

let record t ~cycle ?(value = 0) name = push t ~cycle ~kindc:0 ~value name
let span_begin t ~cycle ?(value = 0) name = push t ~cycle ~kindc:1 ~value name
let span_end t ~cycle ?(value = 0) name = push t ~cycle ~kindc:2 ~value name

let clear t =
  sync t;
  t.head <- 0;
  t.len <- 0;
  t.total <- 0

(* [i]th retained event, oldest first. *)
let event t i =
  let cap = Array.length t.cycles in
  let j = (t.head - t.len + i + cap) mod cap in
  { cycle = t.cycles.(j); kind = kind_of_code t.kinds.(j); name = t.names.(j); value = t.values.(j) }

let events t =
  sync t;
  List.init t.len (event t)

let copy t =
  sync t;
  {
    t with
    cycles = Array.copy t.cycles;
    kinds = Array.copy t.kinds;
    names = Array.copy t.names;
    values = Array.copy t.values;
    sync = no_sync;
  }

let kind_name = function Point -> "point" | Span_begin -> "begin" | Span_end -> "end"

let pp_event fmt e =
  match e.kind with
  | Point -> Format.fprintf fmt "[%10d] %-24s 0x%x" e.cycle e.name e.value
  | Span_begin -> Format.fprintf fmt "[%10d] >> %-21s %d" e.cycle e.name e.value
  | Span_end -> Format.fprintf fmt "[%10d] << %-21s %d" e.cycle e.name e.value

let pp_dump fmt t =
  sync t;
  let dropped = t.total - t.len in
  if dropped > 0 then
    Format.fprintf fmt "  (%d earlier events overwritten; ring capacity %d)@." dropped
      (capacity t);
  List.iter (fun e -> Format.fprintf fmt "  %a@." pp_event e) (events t)

let event_to_json e =
  Json.Obj
    [
      ("cycle", Json.Int e.cycle);
      ("kind", Json.String (kind_name e.kind));
      ("name", Json.String e.name);
      ("value", Json.Int e.value);
    ]

let to_json t =
  sync t;
  Json.Obj
    [
      ("capacity", Json.Int (capacity t));
      ("total_recorded", Json.Int t.total);
      ("events", Json.List (List.map event_to_json (events t)));
    ]
