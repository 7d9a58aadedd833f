(* The four campaign workloads.  Each is one `mavr campaign` (or
   `mavr dispatch --spawn 2`) configuration at --jobs 1; BENCHMARK.json
   records why each was chosen.  Sizes are set so that several fresh
   repetitions fit in one measured run and each traced run pools at
   least 108 trial samples (10 beyond the reported p90). *)

module F = Mavr_firmware
module Fault = Mavr_fault

type t = {
  name : string;
  profile : F.Profile.t;
  faults : Fault.Profile.t;
  ms : int;  (** simulated flight length per trial *)
  trials : int;  (** trials per grid cell *)
  layouts : int;  (** census layouts *)
  shards : int;  (** 0: single host; n: n shards over n serve workers *)
}

let tiny100 = F.Profile.tiny ~n:100 ~seed:2024

let all =
  [
    (* Emulator-bound: the app CPU does nearly all the work. *)
    {
      name = "grid-tiny";
      profile = tiny100;
      faults = Fault.Profile.none;
      ms = 900;
      trials = 9;
      layouts = 10;
      shards = 0;
    };
    (* Image-bound: every boot and reflash re-encodes, re-randomizes and
       reloads a 220 KB image. *)
    {
      name = "grid-arduplane";
      profile = F.Profile.arduplane;
      faults = Fault.Profile.none;
      ms = 300;
      trials = 3;
      layouts = 10;
      shards = 0;
    };
    (* Same layers as grid-tiny, used differently: SEU flash flips
       invalidate the emulator's caches, reflashes verify and retry, the
       ground station parses corrupted streams. *)
    {
      name = "faults-stress";
      profile = tiny100;
      faults = Fault.Profile.stress;
      ms = 600;
      trials = 3;
      layouts = 10;
      shards = 0;
    };
    (* grid-tiny's spec over two serve workers, merged by replay: the
       only workload where checkpoint streaming and dispatch carry cost. *)
    {
      name = "dispatch-2shard";
      profile = tiny100;
      faults = Fault.Profile.none;
      ms = 900;
      trials = 9;
      layouts = 10;
      shards = 2;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The --smoke configuration: every workload shrunk to seconds. *)
let smoke w = { w with profile = F.Profile.tiny ~n:60 ~seed:2024; trials = 1; ms = 60; layouts = 2 }

let tasks w =
  (Mavr_sim.Montecarlo.checkpoint_spec ~faults:w.faults ~profile:w.profile.F.Profile.name ~seed:0
     ~trials:w.trials ())
    .Mavr_campaign.Checkpoint.tasks
