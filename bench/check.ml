(* Bench smoke checker, wired into `dune runtest`: the --quick --json
   document must parse with the in-tree codec, carry every headline key
   of the paper-results report, and pass the fault sweep's two gates
   (the faulted document is jobs-invariant; MAVR concedes no takeover).
   Exits nonzero on any miss. *)

module Json = Mavr_telemetry.Json

let required =
  [
    [ "schema" ];
    [ "quick" ];
    [ "table1"; "avg_functions" ];
    [ "table2"; "avg_startup_ms" ];
    [ "effectiveness"; "seeds" ];
    [ "effectiveness"; "succeeded" ];
    [ "static_analysis"; "arduplane"; "coverage_pct" ];
    [ "static_analysis"; "arduplane"; "lint_findings" ];
    [ "static_analysis"; "arduplane"; "lint_findings_randomized" ];
    [ "static_analysis"; "census_base_gadgets" ];
    [ "static_analysis"; "census_feasible_layouts" ];
    [ "fault_robustness"; "profile" ];
    [ "fault_robustness"; "levels" ];
    [ "fault_robustness"; "mavr_takeovers" ];
    [ "fault_robustness"; "identical_j1_j2" ];
  ]

let level_keys =
  [
    "level"; "mavr_takeovers"; "mavr_detections"; "mavr_false_alarm_rate";
    "undefended_false_alarm_rate";
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench smoke: " ^ s); exit 1) fmt

let () =
  if Array.length Sys.argv <> 2 then begin
    prerr_endline "usage: check.exe BENCH.json";
    exit 2
  end;
  let path = Sys.argv.(1) in
  let doc =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with Ok doc -> doc | Error e -> fail "%s does not parse: %s" path e
  in
  let missing = List.filter (fun p -> Json.path p doc = None) required in
  List.iter (fun p -> Printf.eprintf "bench smoke: missing key %s\n" (String.concat "." p)) missing;
  if missing <> [] then exit 1;
  (match Option.bind (Json.path [ "schema" ] doc) Json.to_str with
  | Some "mavr-bench" -> ()
  | Some other -> fail "unexpected schema %S" other
  | None -> fail "schema is not a string");
  (match Json.path [ "fault_robustness"; "levels" ] doc with
  | Some (Json.List rows) when rows <> [] ->
      List.iter
        (fun row ->
          if List.exists (fun k -> Json.member k row = None) level_keys then
            fail "bad fault_robustness level row: %s" (Json.to_string row))
        rows
  | _ -> fail "fault_robustness.levels is not a non-empty list");
  if Json.path [ "fault_robustness"; "identical_j1_j2" ] doc <> Some (Json.Bool true) then
    fail "fault_robustness not jobs-invariant";
  if Json.path [ "fault_robustness"; "mavr_takeovers" ] doc <> Some (Json.Int 0) then
    fail "fault_robustness reports MAVR takeovers";
  Printf.printf "bench smoke: %s OK (%d keys present)\n" path (List.length required)
