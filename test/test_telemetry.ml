(* The telemetry substrate: JSON codec round-trips, registry
   snapshot/reset semantics, JSONL export/import, and the flight-recorder
   ring (bounded overwrite, oldest-first readout). *)

module Json = Mavr_telemetry.Json
module Metrics = Mavr_telemetry.Metrics
module Recorder = Mavr_telemetry.Recorder

(* ---- JSON codec ---- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "he said \"hi\"\n\t\\done");
        ("i", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [ ("k", Json.Bool false) ] ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  List.iter
    (fun rendered ->
      match Json.of_string rendered with
      | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = doc)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ Json.to_string doc; Json.to_string ~indent:2 doc ]

let test_json_nonfinite_floats () =
  (* Non-finite floats have no JSON encoding; they must render as null
     rather than emit an unparseable token. *)
  let s = Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]) in
  match Json.of_string s with
  | Ok (Json.List [ Json.Null; Json.Null ]) -> ()
  | Ok other -> Alcotest.failf "unexpected %s" (Json.to_string other)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "truex"; "\"unterminated"; "{\"a\":1}trailing" ]

let test_json_accessors () =
  let doc = Json.Obj [ ("a", Json.Obj [ ("b", Json.Int 7) ]); ("f", Json.Float 1.5) ] in
  Alcotest.(check (option int)) "path" (Some 7)
    (Option.bind (Json.path [ "a"; "b" ] doc) Json.to_int);
  Alcotest.(check bool) "missing path" true (Json.path [ "a"; "z" ] doc = None);
  Alcotest.(check (option (float 1e-9))) "float" (Some 1.5)
    (Option.bind (Json.member "f" doc) Json.to_float)

(* ---- metrics registry ---- *)

let test_registry_snapshot_and_reset () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.incr c;
  Metrics.add c 4;
  (* An owned gauge comes only out of a merge. *)
  let src = Metrics.create () in
  Metrics.sampled src "g" (fun () -> 11);
  Metrics.merge ~into:r src;
  let h = Metrics.histogram r "h" in
  List.iter (Metrics.observe h) [ 2; 8; 5 ];
  let live = ref 100 in
  Metrics.sampled r "s" (fun () -> !live);
  live := 123;
  let snap = Metrics.snapshot r in
  Alcotest.(check (list string)) "sorted names" [ "c"; "g"; "h"; "s" ] (List.map fst snap);
  (match List.assoc "c" snap with
  | Metrics.Counter_value 5 -> ()
  | v -> Alcotest.failf "counter: %a" Metrics.pp_value v);
  (match List.assoc "g" snap with
  | Metrics.Gauge_value 11 -> ()
  | v -> Alcotest.failf "gauge: %a" Metrics.pp_value v);
  (match List.assoc "h" snap with
  | Metrics.Histogram_value { count = 3; sum = 15; min = 2; max = 8; mean } ->
      Alcotest.(check (float 1e-9)) "mean" 5.0 mean
  | v -> Alcotest.failf "histogram: %a" Metrics.pp_value v);
  (match List.assoc "s" snap with
  | Metrics.Gauge_value 123 -> ()
  | v -> Alcotest.failf "sampled: %a" Metrics.pp_value v);
  Metrics.reset r;
  let snap = Metrics.snapshot r in
  Alcotest.(check bool) "counter zeroed" true (List.assoc "c" snap = Metrics.Counter_value 0);
  Alcotest.(check bool) "gauge zeroed" true (List.assoc "g" snap = Metrics.Gauge_value 0);
  (match List.assoc "h" snap with
  | Metrics.Histogram_value { count = 0; _ } -> ()
  | v -> Alcotest.failf "histogram not reset: %a" Metrics.pp_value v);
  (* Sampled gauges reflect state owned elsewhere; reset must not lose them. *)
  Alcotest.(check bool) "sampled untouched" true (List.assoc "s" snap = Metrics.Gauge_value 123)

let test_registry_idempotent_and_kind_clash () =
  let r = Metrics.create () in
  let c1 = Metrics.counter r "x" in
  let c2 = Metrics.counter r "x" in
  Metrics.incr c1;
  Metrics.incr c2;
  Alcotest.(check int) "same cell" 2 (Metrics.value c1);
  (match Metrics.sampled r "x" (fun () -> 0) with
  | () -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  match Metrics.histogram r "x" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

let test_metrics_json_roundtrip () =
  (* The checkpoint-resume path: sampled cells come back owned, and the
     document round-trips byte-identically, empty histogram included. *)
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "frames") 17;
  Metrics.sampled r "depth" (fun () -> -3);
  List.iter (Metrics.observe (Metrics.histogram r "lat")) [ 1; 2; 3; 4 ];
  ignore (Metrics.histogram r "empty");
  Metrics.sampled_counter r "live" (fun () -> 99);
  let doc = Metrics.to_json r in
  match Metrics.of_json doc with
  | Ok r' ->
      Alcotest.(check string) "json round-trip" (Json.to_string doc)
        (Json.to_string (Metrics.to_json r'));
      Alcotest.(check bool) "same snapshot" true (Metrics.snapshot r' = Metrics.snapshot r)
  | Error e -> Alcotest.failf "of_json: %s" e

let test_json_rejects_corrupt () =
  List.iter
    (fun doc ->
      match Json.of_string doc with
      | Error e -> Alcotest.failf "test document does not parse: %s" e
      | Ok j -> (
          match Metrics.of_json j with
          | Ok _ -> Alcotest.failf "accepted %s" doc
          | Error _ -> ()))
    [
      {|[]|};
      {|{"a":{"type":"counter"}}|};
      {|{"a":{"type":"bogus","value":1}}|};
      {|{"a":{"type":"counter","value":1},"a":{"type":"counter","value":2}}|};
    ]

(* ---- flight-recorder ring ---- *)

let test_recorder_wraparound () =
  let r = Recorder.create ~capacity:4 in
  for i = 1 to 10 do
    Recorder.record r ~cycle:(i * 100) ~value:i "e"
  done;
  Alcotest.(check int) "bounded" 4 (Recorder.length r);
  Alcotest.(check int) "total counts overwrites" 10 (Recorder.total_recorded r);
  Alcotest.(check (list int)) "oldest-first window" [ 7; 8; 9; 10 ]
    (List.map (fun (e : Recorder.event) -> e.value) (Recorder.events r));
  Alcotest.(check (list int)) "cycles preserved" [ 700; 800; 900; 1000 ]
    (List.map (fun (e : Recorder.event) -> e.cycle) (Recorder.events r))

let test_recorder_spans_and_clear () =
  let r = Recorder.create ~capacity:8 in
  Recorder.span_begin r ~cycle:10 ~value:1 "phase";
  Recorder.record r ~cycle:15 "inner";
  Recorder.span_end r ~cycle:20 ~value:2 "phase";
  (match Recorder.events r with
  | [ b; i; e ] ->
      Alcotest.(check bool) "begin kind" true (b.Recorder.kind = Recorder.Span_begin);
      Alcotest.(check bool) "point kind" true (i.Recorder.kind = Recorder.Point);
      Alcotest.(check bool) "end kind" true (e.Recorder.kind = Recorder.Span_end)
  | l -> Alcotest.failf "expected 3 events, got %d" (List.length l));
  Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Recorder.length r);
  Alcotest.(check int) "total restarts with the window" 0 (Recorder.total_recorded r)

let test_recorder_rejects_bad_capacity () =
  match Recorder.create ~capacity:0 with
  | _ -> Alcotest.fail "accepted capacity 0"
  | exception Invalid_argument _ -> ()

let test_recorder_json () =
  let r = Recorder.create ~capacity:2 in
  Recorder.record r ~cycle:5 ~value:9 "x";
  let j = Recorder.to_json r in
  Alcotest.(check (option int)) "total" (Some 1)
    (Option.bind (Json.path [ "total_recorded" ] j) Json.to_int);
  match Json.path [ "events" ] j with
  | Some (Json.List [ e ]) ->
      Alcotest.(check (option int)) "cycle" (Some 5)
        (Option.bind (Json.member "cycle" e) Json.to_int)
  | _ -> Alcotest.fail "events list missing"

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot and reset" `Quick test_registry_snapshot_and_reset;
          Alcotest.test_case "idempotent registration" `Quick test_registry_idempotent_and_kind_clash;
          Alcotest.test_case "json round-trip" `Quick test_metrics_json_roundtrip;
          Alcotest.test_case "json corrupt document" `Quick test_json_rejects_corrupt;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_recorder_wraparound;
          Alcotest.test_case "spans and clear" `Quick test_recorder_spans_and_clear;
          Alcotest.test_case "bad capacity" `Quick test_recorder_rejects_bad_capacity;
          Alcotest.test_case "json dump" `Quick test_recorder_json;
        ] );
    ]
