type clock = { wall : unit -> float; cpu : unit -> float }
type time_domain = Host | Cycles

type ev = {
  e_name : string;
  e_instant : bool;
  e_ts : float;  (* µs since tracer epoch (Host) or absolute cycles (Cycles) *)
  e_dur : float;
  e_cpu : float;  (* cpu µs (Host only; 0 in Cycles lanes) *)
  e_depth : int;
  e_args : (string * Json.t) list;
}

(* name, wall-µs at begin, cpu-µs at begin, args *)
type open_span = { o_name : string; o_t0 : float; o_c0 : float; o_args : (string * Json.t) list }

type lane = {
  l_name : string;
  l_sort : int;
  l_domain : time_domain;
  l_tracer : tracer;
  mutable l_events : ev list;  (* newest first *)
  mutable l_count : int;
  mutable l_stack : open_span list;
}

and tracer = {
  clock : clock;
  epoch : float;
  mutex : Mutex.t;
  lanes : (string, lane) Hashtbl.t;
}

let default_clock = { wall = Sys.time; cpu = Sys.time }

let create ?(clock = default_clock) () =
  { clock; epoch = clock.wall (); mutex = Mutex.create (); lanes = Hashtbl.create 64 }

let lane t ?(sort = 0) ?(domain = Host) name =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match Hashtbl.find_opt t.lanes name with
      | Some l ->
          if l.l_domain <> domain then
            invalid_arg
              (Printf.sprintf "Telemetry.Span.lane: %S already exists in the other time domain"
                 name);
          l
      | None ->
          let l =
            {
              l_name = name;
              l_sort = sort;
              l_domain = domain;
              l_tracer = t;
              l_events = [];
              l_count = 0;
              l_stack = [];
            }
          in
          Hashtbl.add t.lanes name l;
          l)

let push l e =
  l.l_events <- e :: l.l_events;
  l.l_count <- l.l_count + 1

let require l domain op =
  if l.l_domain <> domain then
    invalid_arg
      (Printf.sprintf "Telemetry.Span.%s: lane %S is in the %s domain" op l.l_name
         (match l.l_domain with Host -> "Host" | Cycles -> "Cycles"))

let wall_us l = (l.l_tracer.clock.wall () -. l.l_tracer.epoch) *. 1e6
let cpu_us l = l.l_tracer.clock.cpu () *. 1e6

let begin_span l ?(args = []) name =
  require l Host "begin_span";
  l.l_stack <- { o_name = name; o_t0 = wall_us l; o_c0 = cpu_us l; o_args = args } :: l.l_stack

let end_span l =
  require l Host "end_span";
  match l.l_stack with
  | [] -> invalid_arg (Printf.sprintf "Telemetry.Span.end_span: no open span on lane %S" l.l_name)
  | o :: rest ->
      l.l_stack <- rest;
      push l
        {
          e_name = o.o_name;
          e_instant = false;
          e_ts = o.o_t0;
          e_dur = wall_us l -. o.o_t0;
          e_cpu = cpu_us l -. o.o_c0;
          e_depth = List.length rest;
          e_args = o.o_args;
        }

let span l ?args name f =
  begin_span l ?args name;
  Fun.protect ~finally:(fun () -> end_span l) f

let instant l ?(args = []) name =
  require l Host "instant";
  push l
    {
      e_name = name;
      e_instant = true;
      e_ts = wall_us l;
      e_dur = 0.;
      e_cpu = 0.;
      e_depth = List.length l.l_stack;
      e_args = args;
    }

let cycle_instant l ~cycle ~args name =
  require l Cycles "cycle_instant";
  push l
    {
      e_name = name;
      e_instant = true;
      e_ts = float_of_int cycle;
      e_dur = 0.;
      e_cpu = 0.;
      e_depth = List.length l.l_stack;
      e_args = args;
    }

(* Fold a recorder window into complete spans: begins go on a stack,
   an end pops the nearest begin with the same name (recorder spans
   nest, but fault paths can drop an end).  Depth is the stack depth at
   the begin, so nesting survives the translation. *)
let of_recorder l events =
  require l Cycles "of_recorder";
  let stack = ref [] in
  let pop name =
    let rec go acc = function
      | [] -> None
      | ((n, _, _, _) as x) :: rest when n = name ->
          stack := List.rev_append acc rest;
          Some x
      | x :: rest -> go (x :: acc) rest
    in
    go [] !stack
  in
  List.iter
    (fun (e : Recorder.event) ->
      match e.kind with
      | Recorder.Point ->
          cycle_instant l ~cycle:e.cycle ~args:[ ("value", Json.Int e.value) ] e.name
      | Recorder.Span_begin ->
          stack := (e.name, e.cycle, e.value, List.length !stack) :: !stack
      | Recorder.Span_end -> (
          match pop e.name with
          | None ->
              cycle_instant l ~cycle:e.cycle
                ~args:[ ("value", Json.Int e.value) ]
                (e.name ^ ".end")
          | Some (name, c0, v0, depth) ->
              push l
                {
                  e_name = name;
                  e_instant = false;
                  e_ts = float_of_int c0;
                  e_dur = float_of_int (e.cycle - c0);
                  e_cpu = 0.;
                  e_depth = depth;
                  e_args = [ ("value", Json.Int v0) ];
                }))
    events;
  List.iter
    (fun (name, c0, v0, _) ->
      cycle_instant l ~cycle:c0 ~args:[ ("value", Json.Int v0) ] (name ^ ".begin"))
    (List.rev !stack)

(* ---- deterministic export order ------------------------------------- *)

let domain_rank = function Host -> 0 | Cycles -> 1

let sorted_lanes t =
  Mutex.lock t.mutex;
  let ls = Hashtbl.fold (fun _ l acc -> l :: acc) t.lanes [] in
  Mutex.unlock t.mutex;
  List.sort
    (fun a b ->
      let c = compare (domain_rank a.l_domain) (domain_rank b.l_domain) in
      if c <> 0 then c
      else
        let c = compare a.l_sort b.l_sort in
        if c <> 0 then c else compare a.l_name b.l_name)
    ls

let lane_events l = List.rev l.l_events

type view = {
  v_lane : string;
  v_domain : time_domain;
  v_name : string;
  v_instant : bool;
  v_depth : int;
  v_args : (string * Json.t) list;
}

let views t =
  List.concat_map
    (fun l ->
      List.map
        (fun e ->
          {
            v_lane = l.l_name;
            v_domain = l.l_domain;
            v_name = e.e_name;
            v_instant = e.e_instant;
            v_depth = e.e_depth;
            v_args = e.e_args;
          })
        (lane_events l))
    (sorted_lanes t)

let event_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.fold (fun _ l acc -> acc + l.l_count) t.lanes 0 in
  Mutex.unlock t.mutex;
  n

let lane_count t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.lanes in
  Mutex.unlock t.mutex;
  n

(* ---- lane (de)serialization ------------------------------------------ *)

(* Checkpoint persistence for a completed lane.  Host wall-clock timing
   (ts/dur/cpu) is dropped at serialization: the checkpoint feeds the
   deterministic-resume contract, and only the timing-stripped form of a
   Host lane is jobs-invariant — so a restored Host event carries zeros,
   exactly what --strip would have produced.  Cycles lanes persist their
   exact integer timestamps.  Open spans are not serialized; only
   completed lanes belong in a checkpoint. *)
let lane_to_json l =
  let ev_json (e : ev) =
    let time =
      match l.l_domain with
      | Host -> []
      | Cycles ->
          ("ts", Json.Int (int_of_float e.e_ts))
          :: (if e.e_instant then [] else [ ("dur", Json.Int (int_of_float e.e_dur)) ])
    in
    Json.Obj
      (("name", Json.String e.e_name)
       :: (if e.e_instant then [ ("i", Json.Bool true) ] else [])
      @ time
      @ [ ("depth", Json.Int e.e_depth) ]
      @ (if e.e_args = [] then [] else [ ("args", Json.Obj e.e_args) ]))
  in
  Json.Obj
    [
      ("name", Json.String l.l_name);
      ("sort", Json.Int l.l_sort);
      ("domain", Json.String (match l.l_domain with Host -> "host" | Cycles -> "cycles"));
      ("events", Json.List (List.map ev_json (lane_events l)));
    ]

let lane_of_json t j =
  let field name conv j =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "Span.lane_of_json: missing or malformed %S" name)
  in
  let ( let* ) = Result.bind in
  let* name = field "name" Json.to_str j in
  let* sort = field "sort" Json.to_int j in
  let* domain =
    match Option.bind (Json.member "domain" j) Json.to_str with
    | Some "host" -> Ok Host
    | Some "cycles" -> Ok Cycles
    | _ -> Error "Span.lane_of_json: missing or unknown domain"
  in
  let* events =
    match Json.member "events" j with
    | Some (Json.List evs) -> Ok evs
    | _ -> Error "Span.lane_of_json: missing events list"
  in
  let* l =
    match lane t ~sort ~domain name with
    | l -> Ok l
    | exception Invalid_argument m -> Error m
  in
  let rec go = function
    | [] -> Ok l
    | ej :: rest ->
        let* e_name = field "name" Json.to_str ej in
        let* e_depth = field "depth" Json.to_int ej in
        let e_instant = Json.member "i" ej = Some (Json.Bool true) in
        let e_args = match Json.member "args" ej with Some (Json.Obj kvs) -> kvs | _ -> [] in
        let* e_ts, e_dur =
          match domain with
          | Host -> Ok (0., 0.)
          | Cycles ->
              let* ts = field "ts" Json.to_int ej in
              if e_instant then Ok (float_of_int ts, 0.)
              else
                let* dur = field "dur" Json.to_int ej in
                Ok (float_of_int ts, float_of_int dur)
        in
        push l { e_name; e_instant; e_ts; e_dur; e_cpu = 0.; e_depth; e_args };
        go rest
  in
  go events

(* ---- export ---------------------------------------------------------- *)

(* Timestamps: Host lanes are wall-µs floats (stripped to Int 0 for the
   jobs-invariance byte-diff); Cycles lanes are integer cycle counts,
   deterministic, emitted as Ints and never stripped. *)
let ts_json ~strip l v =
  match l.l_domain with
  | Cycles -> Json.Int (int_of_float v)
  | Host -> if strip then Json.Int 0 else Json.Float v

let host_pid = 1
let cycles_pid = 2
let pid_of = function Host -> host_pid | Cycles -> cycles_pid

let meta ~pid ~tid name args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let to_trace_event ?(strip_timing = false) t =
  let lanes = sorted_lanes t in
  let have d = List.exists (fun l -> l.l_domain = d) lanes in
  let procs =
    List.concat_map
      (fun (d, name) ->
        if not (have d) then []
        else
          [
            meta ~pid:(pid_of d) ~tid:0 "process_name" [ ("name", Json.String name) ];
            meta ~pid:(pid_of d) ~tid:0 "process_sort_index"
              [ ("sort_index", Json.Int (domain_rank d)) ];
          ])
      [ (Host, "host"); (Cycles, "cycles") ]
  in
  let threads =
    List.concat (List.mapi
      (fun i l ->
        let tid = i + 1 in
        [
          meta ~pid:(pid_of l.l_domain) ~tid "thread_name" [ ("name", Json.String l.l_name) ];
          meta ~pid:(pid_of l.l_domain) ~tid "thread_sort_index" [ ("sort_index", Json.Int i) ];
        ])
      lanes)
  in
  let events =
    List.concat (List.mapi
      (fun i l ->
        let tid = i + 1 in
        let strip = strip_timing in
        List.map
          (fun e ->
            let base =
              [
                ("name", Json.String e.e_name);
                ("cat", Json.String "mavr");
                ("pid", Json.Int (pid_of l.l_domain));
                ("tid", Json.Int tid);
                ("ts", ts_json ~strip l e.e_ts);
              ]
            in
            let args =
              ("depth", Json.Int e.e_depth)
              ::
              (match l.l_domain with
              | Cycles -> e.e_args
              | Host ->
                  if e.e_instant then e.e_args
                  else
                    ("cpu_dur_us", if strip then Json.Int 0 else Json.Float e.e_cpu) :: e.e_args)
            in
            if e.e_instant then
              Json.Obj
                (base @ [ ("ph", Json.String "i"); ("s", Json.String "t"); ("args", Json.Obj args) ])
            else
              Json.Obj
                (base
                @ [
                    ("ph", Json.String "X");
                    ("dur", ts_json ~strip l e.e_dur);
                    ("args", Json.Obj args);
                  ]))
          (lane_events l))
      lanes)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (procs @ threads @ events));
      ("displayTimeUnit", Json.String "ms");
    ]
