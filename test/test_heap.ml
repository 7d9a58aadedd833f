(* Peak memory of a campaign does not grow with its trial count: a
   finished trial keeps only its outcome and its materialized metrics,
   never the rig (CPU, flashes, compiled blocks) its sampled gauges read.
   This suite is an executable of its own so no earlier suite's heap
   inflates the high-water mark it reads. *)

module Montecarlo = Mavr_sim.Montecarlo
module F = Mavr_firmware

let test_peak_heap_flat () =
  let build = F.Build.build (F.Profile.tiny ~n:100 ~seed:2024) F.Profile.mavr in
  let peak_after trials =
    ignore (Montecarlo.run ~jobs:1 ~ms:100 ~seed:0 ~trials build : Montecarlo.t);
    (Gc.quick_stat ()).Gc.top_heap_words
  in
  let small = peak_after 3 in
  let large = peak_after 12 in
  if large >= 2 * small then
    Alcotest.failf "peak heap grew with the trial count: %d words at 3 trials/cell, %d at 12"
      small large

let () =
  Alcotest.run "heap"
    [
      ( "campaign",
        [ Alcotest.test_case "peak heap independent of trial count" `Quick test_peak_heap_flat ] );
    ]
