module Json = Mavr_telemetry.Json
module Early_stop = Mavr_campaign.Early_stop
module Profile = Mavr_firmware.Profile
module Faults = Mavr_fault.Profile

type t = {
  profile : Profile.t;
  trials : int;
  ms : int;
  layouts : int;
  seed : int;
  faults : Faults.t;
  early_stop : Early_stop.t option;
}

let default =
  {
    profile = Profile.tiny ~n:100 ~seed:2024;
    trials = 5;
    ms = 900;
    layouts = 10;
    seed = 0;
    faults = Faults.none;
    early_stop = None;
  }

let ( let* ) = Result.bind

let validate t =
  let at_least k min v =
    if v >= min then Ok () else Error (Printf.sprintf "%s must be >= %d (got %d)" k min v)
  in
  let* () = at_least "trials" 1 t.trials in
  let* () = at_least "ms" 1 t.ms in
  let* () = at_least "layouts" 0 t.layouts in
  Ok t

let early_stop ?z ?min_trials ?batch target =
  try Ok (Early_stop.create ?z ?min_trials ?batch ~target ()) with Invalid_argument m -> Error m

(* Member [k] of [obj]: [None] when absent, an error naming [k] when
   [decode] rejects it. *)
let field obj k decode =
  match Json.member k obj with
  | None -> Ok None
  | Some v -> (
      match decode v with Ok x -> Ok (Some x) | Error m -> Error (k ^ ": " ^ m))

let expected what = function Some x -> Ok x | None -> Error ("expected " ^ what)
let int v = expected "an integer" (Json.to_int v)
let number v = expected "a number" (Json.to_float v)
let string parse v = Result.bind (expected "a string" (Json.to_str v)) parse

let early_stop_of_json = function
  | Json.Obj _ as es ->
      let* target = field es "target_halfwidth" number in
      let* z = field es "z" number in
      let* min_trials = field es "min_trials" int in
      let* batch = field es "batch" int in
      let* target = expected "a target_halfwidth member" target in
      early_stop ?z ?min_trials ?batch target
  | _ -> Error "expected an object"

let of_json j =
  let* () = match j with Json.Obj _ -> Ok () | _ -> Error "spec: expected an object" in
  let* profile = field j "profile" (string Profile.of_string) in
  let* trials = field j "trials" int in
  let* ms = field j "ms" int in
  let* layouts = field j "layouts" int in
  let* seed = field j "seed" int in
  let* faults = field j "faults" (string Faults.of_string) in
  let* early_stop = field j "early_stop" early_stop_of_json in
  let d = default and ( |? ) o v = Option.value ~default:v o in
  validate
    {
      profile = profile |? d.profile;
      trials = trials |? d.trials;
      ms = ms |? d.ms;
      layouts = layouts |? d.layouts;
      seed = seed |? d.seed;
      faults = faults |? d.faults;
      early_stop;
    }

let to_json_fields t =
  [
    ("profile", Json.String t.profile.Profile.name);
    ("trials", Json.Int t.trials);
    ("ms", Json.Int t.ms);
    ("layouts", Json.Int t.layouts);
    ("seed", Json.Int t.seed);
    ("faults", Json.String t.faults.Faults.name);
  ]
  @
  match t.early_stop with
  | None -> []
  | Some e -> [ ("early_stop", Json.Obj (Early_stop.to_json_fields e)) ]

let to_json t = Json.Obj (to_json_fields t)

let checkpoint_spec ?traced t =
  Montecarlo.checkpoint_spec ~ms:t.ms ~faults:t.faults ?early_stop:t.early_stop ?traced
    ~profile:t.profile.Profile.name ~seed:t.seed ~trials:t.trials ()
