type counter = { mutable c : int }
type gauge = { mutable g : int }

type histogram = {
  mutable n : int;
  mutable sum : int;
  mutable hmin : int;
  mutable hmax : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Sampled of (unit -> int)
  | Sampled_counter of (unit -> int)

type registry = { tbl : (string, metric) Hashtbl.t; mutable emit_seq : int }

let create () = { tbl = Hashtbl.create 64; emit_seq = 0 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Sampled _ -> "sampled"
  | Sampled_counter _ -> "sampled counter"

(* Registration is idempotent per (name, kind): asking for an existing
   metric returns the same cell, so independent subsystems can share a
   name without double-counting; re-registering under a different kind is
   a programming error and refuses loudly. *)
let register t name make match_existing =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
      match match_existing m with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Telemetry.Metrics: %S already registered as a %s" name (kind_name m)))
  | None ->
      let x, m = make () in
      Hashtbl.add t.tbl name m;
      x

let counter t name =
  register t name
    (fun () ->
      let c = { c = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let histogram t name =
  register t name
    (fun () ->
      let h = { n = 0; sum = 0; hmin = max_int; hmax = min_int } in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let sampled t name f =
  register t name
    (fun () -> ((), Sampled f))
    (function Sampled _ -> Some () | _ -> None)

let sampled_counter t name f =
  register t name
    (fun () -> ((), Sampled_counter f))
    (function Sampled_counter _ -> Some () | _ -> None)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

(* ---- snapshots ------------------------------------------------------ *)

type histogram_stats = { count : int; sum : int; min : int; max : int; mean : float }

type value_snapshot =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of histogram_stats

let histogram_stats h =
  {
    count = h.n;
    sum = h.sum;
    min = (if h.n = 0 then 0 else h.hmin);
    max = (if h.n = 0 then 0 else h.hmax);
    mean = (if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n);
  }

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Counter c -> Counter_value c.c
        | Gauge g -> Gauge_value g.g
        | Sampled f -> Gauge_value (f ())
        | Sampled_counter f -> Counter_value (f ())
        | Histogram h -> Histogram_value (histogram_stats h)
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0
      | Histogram h ->
          h.n <- 0;
          h.sum <- 0;
          h.hmin <- max_int;
          h.hmax <- min_int
      | Sampled _ | Sampled_counter _ ->
          () (* reflect live state elsewhere; nothing to reset *))
    t.tbl

(* ---- merge ---------------------------------------------------------- *)

(* Combine per-worker registries at a campaign join.  Each operation is a
   commutative monoid (sum / max / pointwise histogram union), so the
   merged registry is independent of join order — the determinism
   argument for parallel campaigns.  A [Sampled] source is materialized
   once, at merge time, into a plain gauge: the sampler closure belongs
   to the worker's rig, which is quiescent by the time its registry is
   merged, and the destination must own its value outright. *)
let merge ~into src =
  Hashtbl.iter
    (fun name m ->
      let m =
        match m with
        | Sampled f -> Gauge { g = f () }
        | Sampled_counter f -> Counter { c = f () }
        | m -> m
      in
      match (Hashtbl.find_opt into.tbl name, m) with
      | None, Counter c -> Hashtbl.add into.tbl name (Counter { c = c.c })
      | None, Gauge g -> Hashtbl.add into.tbl name (Gauge { g = g.g })
      | None, Histogram h ->
          Hashtbl.add into.tbl name (Histogram { n = h.n; sum = h.sum; hmin = h.hmin; hmax = h.hmax })
      | Some (Counter d), Counter c -> d.c <- d.c + c.c
      | Some (Gauge d), Gauge g -> if g.g > d.g then d.g <- g.g
      | Some (Histogram d), Histogram h ->
          d.n <- d.n + h.n;
          d.sum <- d.sum + h.sum;
          if h.hmin < d.hmin then d.hmin <- h.hmin;
          if h.hmax > d.hmax then d.hmax <- h.hmax
      | Some (Sampled _ | Sampled_counter _), _ ->
          invalid_arg
            (Printf.sprintf
               "Telemetry.Metrics.merge: %S is a sampled metric in the destination (pull cells \
                cannot absorb merged values)"
               name)
      | Some existing, incoming ->
          invalid_arg
            (Printf.sprintf "Telemetry.Metrics.merge: %S is a %s here but a %s in the source"
               name (kind_name existing) (kind_name incoming))
      | _, (Sampled _ | Sampled_counter _) -> assert false)
    src.tbl

(* ---- export --------------------------------------------------------- *)

let value_to_json = function
  | Counter_value v -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int v) ]
  | Gauge_value v -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Int v) ]
  | Histogram_value s ->
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int s.count);
          ("sum", Json.Int s.sum);
          ("min", Json.Int s.min);
          ("max", Json.Int s.max);
          ("mean", Json.Float s.mean);
        ]

let to_json t = Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) (snapshot t))

(* Each emitted line carries a registry-monotonic [seq] (never reset, so
   a consumer tailing successive snapshots can detect dropped or
   reordered lines) and the emulated-cycle stamp of the emission. *)
let to_jsonl ?(cycle = 0) t =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      let fields =
        match value_to_json v with Json.Obj kvs -> kvs | _ -> assert false
      in
      t.emit_seq <- t.emit_seq + 1;
      Buffer.add_string b
        (Json.to_string
           (Json.Obj
              (("name", Json.String name)
              :: ("seq", Json.Int t.emit_seq)
              :: ("cycle", Json.Int cycle)
              :: fields)));
      Buffer.add_char b '\n')
    (snapshot t);
  Buffer.contents b

let value_of_json j =
  let ( let* ) = Option.bind in
  let* ty = Option.bind (Json.member "type" j) Json.to_str in
  match ty with
  | "counter" ->
      let* v = Option.bind (Json.member "value" j) Json.to_int in
      Some (Counter_value v)
  | "gauge" ->
      let* v = Option.bind (Json.member "value" j) Json.to_int in
      Some (Gauge_value v)
  | "histogram" ->
      let* count = Option.bind (Json.member "count" j) Json.to_int in
      let* sum = Option.bind (Json.member "sum" j) Json.to_int in
      let* min = Option.bind (Json.member "min" j) Json.to_int in
      let* max = Option.bind (Json.member "max" j) Json.to_int in
      let* mean = Option.bind (Json.member "mean" j) Json.to_float in
      Some (Histogram_value { count; sum; min; max; mean })
  | _ -> None

(* Rebuild an owned registry from a [to_json] document.  Every cell comes
   back owned (sampled cells were materialized by the snapshot that
   produced the document), so the round-trip [to_json (of_json (to_json t))]
   is byte-identical and the result can keep merging.  An empty histogram
   (count = 0) must restore the empty sentinel — a later pointwise merge
   would otherwise widen min/max toward the 0/0 placeholder. *)
let of_json j =
  match j with
  | Json.Obj kvs ->
      let t = create () in
      let rec go = function
        | [] -> Ok t
        | (name, v) :: rest ->
            if Hashtbl.mem t.tbl name then
              Error (Printf.sprintf "Metrics.of_json: duplicate metric %S" name)
            else (
              match value_of_json v with
              | Some (Counter_value c) ->
                  Hashtbl.add t.tbl name (Counter { c });
                  go rest
              | Some (Gauge_value g) ->
                  Hashtbl.add t.tbl name (Gauge { g });
                  go rest
              | Some (Histogram_value s) ->
                  let h =
                    if s.count = 0 then { n = 0; sum = 0; hmin = max_int; hmax = min_int }
                    else { n = s.count; sum = s.sum; hmin = s.min; hmax = s.max }
                  in
                  Hashtbl.add t.tbl name (Histogram h);
                  go rest
              | None -> Error (Printf.sprintf "Metrics.of_json: malformed metric %S" name))
      in
      go kvs
  | _ -> Error "Metrics.of_json: not an object"

let of_jsonl s =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "") in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Json.of_string line with
        | Error e -> Error e
        | Ok j -> (
            match (Option.bind (Json.member "name" j) Json.to_str, value_of_json j) with
            | Some name, Some v -> go ((name, v) :: acc) rest
            | _ -> Error (Printf.sprintf "malformed metric line %S" line)))
  in
  go [] lines

let pp_value fmt = function
  | Counter_value v -> Format.fprintf fmt "%d" v
  | Gauge_value v -> Format.fprintf fmt "%d" v
  | Histogram_value s ->
      Format.fprintf fmt "n=%d sum=%d min=%d max=%d mean=%.1f" s.count s.sum s.min s.max s.mean

let pp_summary fmt t =
  let entries = snapshot t in
  let width = List.fold_left (fun w (name, _) -> max w (String.length name)) 0 entries in
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  %-*s  %a@." width name pp_value v)
    entries
