(** The campaign spec: the one description of a §VII-A evaluation
    campaign shared by [mavr campaign]'s flags, the [mavr serve] request
    and the [mavr dispatch] shard request.

    Wire form (a JSON object; unknown members are ignored, absent ones
    take {!default}'s value):
    {v
    {"profile":"tiny-100","trials":5,"ms":900,"layouts":10,"seed":0,
     "faults":"none",
     "early_stop":{"target_halfwidth":W,"z":1.96,"min_trials":8,"batch":4}}
    v}
    [early_stop] is absent when the campaign runs every trial; inside
    it only [target_halfwidth] is required. *)

module Json := Mavr_telemetry.Json

type t = {
  profile : Mavr_firmware.Profile.t;
  trials : int;  (** Monte Carlo trials per grid cell, [>= 1] *)
  ms : int;  (** simulated milliseconds per trial, [>= 1] *)
  layouts : int;  (** layouts in the survival census, [>= 0] *)
  seed : int;  (** campaign root seed *)
  faults : Mavr_fault.Profile.t;
  early_stop : Mavr_campaign.Early_stop.t option;
}

(** tiny-100, 5 trials, 900 ms, 10 layouts, seed 0, no faults, no early
    stopping — the CLI defaults. *)
val default : t

(** [validate t] is [Ok t] when [trials >= 1], [ms >= 1] and
    [layouts >= 0]; otherwise an error naming the field. *)
val validate : t -> (t, string) result

(** {!Mavr_campaign.Early_stop.create} with its [Invalid_argument] turned
    into an error. *)
val early_stop :
  ?z:float -> ?min_trials:int -> ?batch:int -> float -> (Mavr_campaign.Early_stop.t, string) result

(** Decode and {!validate} a wire spec.  A member of the wrong type or
    out of range is an error that names it. *)
val of_json : Json.t -> (t, string) result

(** The members of {!to_json}, for a request that appends its own (a
    dispatch shard request adds [shard]). *)
val to_json_fields : t -> (string * Json.t) list

(** The wire object; [of_json (to_json t) = Ok t] for every valid [t]
    whose profile {!Mavr_firmware.Profile.of_string} parses back. *)
val to_json : t -> Json.t

(** {!Montecarlo.checkpoint_spec} of this campaign. *)
val checkpoint_spec : ?traced:bool -> t -> Mavr_campaign.Checkpoint.spec
