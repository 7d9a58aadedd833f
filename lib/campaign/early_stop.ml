module Json = Mavr_telemetry.Json

type t = { target : float; z : float; min_trials : int; batch : int }

let create ?(z = 1.96) ?(min_trials = 8) ?(batch = 4) ~target () =
  if not (target > 0.0 && target < 1.0) then
    invalid_arg "Campaign.Early_stop.create: target_halfwidth must be in (0, 1)";
  if z <= 0.0 then invalid_arg "Campaign.Early_stop.create: z must be positive";
  if min_trials < 1 then invalid_arg "Campaign.Early_stop.create: min_trials must be >= 1";
  if batch < 1 then invalid_arg "Campaign.Early_stop.create: batch must be >= 1";
  { target; z; min_trials; batch }

let target t = t.target
let z t = t.z
let min_trials t = t.min_trials
let batch t = t.batch

(* Wilson score interval for a binomial proportion — unlike the Wald
   interval it never collapses to zero width at p-hat ∈ {0, 1}, which is
   exactly where detection (≈1) and false-alarm (≈0) rates live, so the
   stop rule stays honest at the extremes. *)
let wilson ~z ~n ~k =
  if n <= 0 then (0.0, 1.0)
  else begin
    let nf = float_of_int n in
    let p = float_of_int k /. nf in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. nf) in
    let center = (p +. (z2 /. (2.0 *. nf))) /. denom in
    let half = z /. denom *. sqrt ((p *. (1.0 -. p) /. nf) +. (z2 /. (4.0 *. nf *. nf))) in
    (max 0.0 (center -. half), min 1.0 (center +. half))
  end

let halfwidth ~z ~n ~k =
  let lo, hi = wilson ~z ~n ~k in
  (hi -. lo) /. 2.0

let should_stop t ~n ~k = n >= t.min_trials && halfwidth ~z:t.z ~n ~k <= t.target

let to_json_fields t =
  [
    ("target_halfwidth", Json.Float t.target);
    ("z", Json.Float t.z);
    ("min_trials", Json.Int t.min_trials);
    ("batch", Json.Int t.batch);
  ]
