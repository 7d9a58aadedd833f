(** Named fault-intensity profiles: the sweep axis of a robustness
    campaign.

    A profile is an ordered list of {e levels}; each level fixes the
    downlink/uplink channel noise, the per-tick SEU rates and the
    reflash-stream corruption rate.  [Sim.Montecarlo] runs its whole
    attack×defense grid once per level, so detection / false-alarm /
    time-to-detect become functions of fault intensity.  Every profile's
    first level is {!level_off} — the clean baseline rides along in the
    same campaign document. *)

type level = {
  name : string;
  downlink : Channel.params;  (** app → GCS telemetry link *)
  uplink : Channel.params;  (** injected attacker → app link *)
  seu : Seu.params;
  reflash : Reflash.params;
}

val level_is_off : level -> bool

type t = { name : string; levels : level array }

(** Single clean level: fault machinery entirely out of the loop. *)
val none : t

(** Everything at once, including reflash-stream corruption. *)
val stress : t

val all : t list
val of_string : string -> (t, string) result
val names : string list

(** {2 Test hooks}

    Used only by the tests, to build a level that isolates one fault kind. *)

val level_off : level
