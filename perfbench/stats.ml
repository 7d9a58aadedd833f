(* Order statistics and the parent-vs-change comparison rule.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method), so the spreads printed here are the ones Python
   computes from the same run values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no values"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Nearest-rank percentile: with n samples, ceil(p*n) of them lie at or
   below the result, so the p90 of 108 samples has 10 above it. *)
let percentile p xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then 0.0
  else d.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* The rule for one (workload, metric) row, runs paired by position:
   - regressed: the change's median is worse than the parent's by more
     than [bound] (a share of the parent's median);
   - improved: at least 10 pairs, the change wins at least 9/10 of them
     (ties count for neither side), and the medians differ by more than
     the parent's interquartile range;
   - unresolved: the parent's spread is wider than [bound], unless every
     change run reads better than every parent run;
   - unchanged otherwise. *)
let classify ~higher_is_better ~bound ~parent ~change =
  let better a b = if higher_is_better then a > b else a < b in
  let rec pairs wins n ps cs =
    match (ps, cs) with
    | p :: ps, c :: cs -> pairs (if better c p then wins + 1 else wins) (n + 1) ps cs
    | _ -> (wins, n)
  in
  let wins, n = pairs 0 0 parent change in
  let q1, pm, q3 = quartiles parent in
  let cm = median change in
  let gain = if higher_is_better then cm -. pm else pm -. cm in
  let worse = -.gain /. Float.abs pm in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
  in
  if worse > bound then Regressed
  else if n >= 10 && 10 * wins >= 9 * n && gain > q3 -. q1 then Improved
  else if (q3 -. q1) /. Float.abs pm > bound && not all_better then Unresolved
  else Unchanged
