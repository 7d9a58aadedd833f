(* PR 10's dispatcher contract: shard planning stays cell-aligned and
   covering, worker addresses parse, a faked worker speaking the
   Service protocol gets its entries merged (duplicates deduplicated,
   fresh indices ticking progress), a stalled worker trips the
   heartbeat timeout and exhausts its attempts into [Unresolved], and
   an empty pool is refused outright. *)

module Dispatch = Mavr_campaign.Dispatch
module Checkpoint = Mavr_campaign.Checkpoint
module Progress = Mavr_campaign.Progress
module Service = Mavr_campaign.Service
module Montecarlo = Mavr_sim.Montecarlo
module Json = Mavr_telemetry.Json

let profile_name = Helpers.tiny_profile.Mavr_firmware.Profile.name

let spec ~trials () =
  Montecarlo.checkpoint_spec ~ms:600 ~profile:profile_name ~seed:11 ~trials ()

let tmp_sock name =
  let path = Filename.temp_file ("mavr_disp_" ^ name) ".sock" in
  Sys.remove path;
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ---- planning -------------------------------------------------------- *)

let test_plan_alignment () =
  let check_cover ~tasks ~block shards =
    (* contiguous, block-aligned, covering [0, tasks) *)
    let next = ref 0 in
    List.iter
      (fun sh ->
        Alcotest.(check int) "contiguous" !next sh.Dispatch.lo;
        Alcotest.(check bool) "nonempty" true (sh.Dispatch.hi > sh.Dispatch.lo);
        Alcotest.(check int) "lo aligned" 0 (sh.Dispatch.lo mod block);
        Alcotest.(check int) "hi aligned" 0 (sh.Dispatch.hi mod block);
        next := sh.Dispatch.hi)
      shards;
    Alcotest.(check int) "covers task space" tasks !next
  in
  check_cover ~tasks:48 ~block:12 (Dispatch.plan ~tasks:48 ~block:12 ~shards:3);
  check_cover ~tasks:48 ~block:12 (Dispatch.plan ~tasks:48 ~block:12 ~shards:4);
  check_cover ~tasks:60 ~block:5 (Dispatch.plan ~tasks:60 ~block:5 ~shards:7);
  (* more shards than cells collapses to one shard per cell *)
  let sh = Dispatch.plan ~tasks:24 ~block:12 ~shards:10 in
  Alcotest.(check int) "capped at cell count" 2 (List.length sh);
  check_cover ~tasks:24 ~block:12 sh;
  (* near-even: no shard more than one cell larger than another *)
  let sizes =
    Dispatch.plan ~tasks:70 ~block:7 ~shards:3
    |> List.map (fun s -> (s.Dispatch.hi - s.Dispatch.lo) / 7)
  in
  let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "near-even split" true (mx - mn <= 1);
  Alcotest.check_raises "misaligned task count rejected"
    (Invalid_argument "Campaign.Dispatch.plan: 10 tasks not a multiple of block 3") (fun () ->
      ignore (Dispatch.plan ~tasks:10 ~block:3 ~shards:2))

let test_address_parsing () =
  let ok = Alcotest.(check bool) in
  ok "unix scheme" true (Dispatch.address_of_string "unix:/tmp/w.sock" = Ok (Dispatch.Unix_socket "/tmp/w.sock"));
  ok "bare path" true (Dispatch.address_of_string "/tmp/w.sock" = Ok (Dispatch.Unix_socket "/tmp/w.sock"));
  ok "empty rejected" true (Result.is_error (Dispatch.address_of_string ""));
  ok "empty unix path rejected" true (Result.is_error (Dispatch.address_of_string "unix:"));
  ok "unknown scheme rejected" true (Result.is_error (Dispatch.address_of_string "tcp:host:1"))

(* ---- merge over a faked worker --------------------------------------- *)

(* A worker that speaks the Service protocol by hand: header, one
   duplicated entry, every index in the shard, terminal result.  The
   dispatcher must deduplicate, keep the frontier gap-free, and tick
   progress exactly once per fresh index. *)
let test_merge_over_fake_worker () =
  let sp = spec ~trials:1 () in
  let shards = Dispatch.plan ~tasks:sp.Checkpoint.tasks ~block:1 ~shards:2 in
  let socket = tmp_sock "fake" in
  let handler req ~progress =
    let geti k j = Option.bind (Json.member k j) Json.to_int in
    match Option.bind (Json.member "shard" req) (fun s -> Some (geti "lo" s, geti "hi" s)) with
    | Some (Some lo, Some hi) ->
        progress
          (Json.to_string
             (Json.Obj
                [
                  ("kind", Json.String "header");
                  ("version", Json.Int Checkpoint.version);
                  ("spec_hash", Json.String sp.Checkpoint.spec_hash);
                  ("seed", Json.Int sp.Checkpoint.seed);
                  ("tasks", Json.Int sp.Checkpoint.tasks);
                ]));
        let entry i =
          let fields =
            [
              ("kind", Json.String "task");
              ("index", Json.Int i);
              ("result", Json.Obj [ ("v", Json.Int i) ]);
            ]
          in
          Json.to_string
            (Json.Obj (fields @ [ ("digest", Json.String (Checkpoint.hash_fields fields)) ]))
        in
        (* duplicate the first index deliberately *)
        progress (entry lo);
        for i = lo to hi - 1 do
          progress (entry i)
        done;
        progress {|{"seq":0,"done":0,"total":0}|};
        Ok (Json.Obj [ ("entries", Json.Int (hi - lo)) ])
    | _ -> Error "no shard in request"
  in
  let d =
    Domain.spawn (fun () ->
        Service.serve ~socket ~max_requests:(List.length shards) handler)
  in
  let ticks = ref 0 in
  let on_event = function Dispatch.Entry_received { fresh = true; _ } -> incr ticks | _ -> () in
  let request ~lo ~hi =
    Json.Obj [ ("shard", Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]) ]
  in
  let outcome =
    Dispatch.run ~heartbeat_timeout_s:10.0 ~on_event ~spec:sp ~request ~block:1
      ~workers:[ Dispatch.Unix_socket socket ] ~shards ()
  in
  (match Domain.join d with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("fake worker died: " ^ e));
  match outcome with
  | Error e -> Alcotest.fail (Dispatch.error_to_string e)
  | Ok o ->
      Alcotest.(check int) "gap-free merged frontier" sp.Checkpoint.tasks
        (List.length o.Dispatch.entries);
      List.iteri
        (fun i (idx, entry) ->
          Alcotest.(check int) "sorted by index" i idx;
          match entry with
          | Checkpoint.Result r ->
              Alcotest.(check (option int)) "payload preserved" (Some i)
                (Option.bind (Json.member "v" r) Json.to_int)
          | Checkpoint.Skip _ -> Alcotest.fail "unexpected skip entry")
        o.Dispatch.entries;
      Alcotest.(check int) "fresh ticks = tasks (duplicates not fresh)" sp.Checkpoint.tasks
        !ticks;
      Alcotest.(check bool) "worker heartbeats observed" true (o.Dispatch.heartbeats >= 1);
      Alcotest.(check int) "no failures" 0 o.Dispatch.worker_failures

(* ---- failure paths --------------------------------------------------- *)

let test_stalled_worker_unresolved () =
  let sp = spec ~trials:1 () in
  let socket = tmp_sock "stall" in
  (* a worker that accepts the request and then goes silent *)
  let handler _req ~progress:_ =
    ignore (Unix.select [] [] [] 2.0);
    Error "too late"
  in
  let d = Domain.spawn (fun () -> Service.serve ~socket ~max_requests:1 handler) in
  let request ~lo ~hi =
    Json.Obj [ ("shard", Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]) ]
  in
  let result =
    Dispatch.run ~heartbeat_timeout_s:0.25 ~max_attempts:1 ~spec:sp ~request ~block:1
      ~workers:[ Dispatch.Unix_socket socket ]
      ~shards:[ { Dispatch.lo = 0; hi = sp.Checkpoint.tasks } ]
      ()
  in
  (match result with
  | Error (Dispatch.Unresolved { attempts; _ }) ->
      Alcotest.(check int) "attempts charged" 1 attempts
  | Error Dispatch.No_workers -> Alcotest.fail "expected Unresolved, got No_workers"
  | Ok _ -> Alcotest.fail "stalled worker should not complete the campaign");
  ignore (Domain.join d)

let test_no_workers () =
  let sp = spec ~trials:1 () in
  let request ~lo:_ ~hi:_ = Json.Obj [] in
  match
    Dispatch.run ~spec:sp ~request ~block:1 ~workers:[]
      ~shards:[ { Dispatch.lo = 0; hi = sp.Checkpoint.tasks } ]
      ()
  with
  | Error Dispatch.No_workers -> ()
  | Error e -> Alcotest.fail ("expected No_workers, got " ^ Dispatch.error_to_string e)
  | Ok _ -> Alcotest.fail "empty pool must not succeed"

let () =
  Alcotest.run "dispatch"
    [
      ( "planning",
        [
          Alcotest.test_case "cell-aligned covering shards" `Quick test_plan_alignment;
          Alcotest.test_case "address parsing" `Quick test_address_parsing;
        ] );
      ( "merge",
        [ Alcotest.test_case "fake worker, dedup + gap-free" `Quick test_merge_over_fake_worker ] );
      ( "failure",
        [
          Alcotest.test_case "stalled worker -> Unresolved" `Quick test_stalled_worker_unresolved;
          Alcotest.test_case "empty pool -> No_workers" `Quick test_no_workers;
        ] );
    ]
