(** Application profiles and toolchain configurations.

    The paper evaluates MAVR on three ArduPilot applications (Table I);
    each profile reproduces that application's structural footprint —
    function count and flash code size — in our synthetic generator.  The
    toolchain type models the two GCC/Binutils configurations of §VI-B1:
    the stock build (linker relaxation on, shared call prologues) and the
    MAVR custom toolchain ([--no-relax], [-mno-call-prologues]). *)

type t = {
  name : string;
  n_functions : int;  (** total function symbols, incl. the runtime kernel *)
  target_size : int;  (** stock flash code size in bytes (Table III) *)
  seed : int;  (** code-generation seed *)
}

val arduplane : t
(** 917 functions, 221 608 bytes. *)

val all : t list

(** [tiny ~n ~seed] is a small profile for fast tests and the empirical
    brute-force study (n functions, proportional size). *)
val tiny : n:int -> seed:int -> t

(** [of_string s] parses a profile as the CLI and the campaign wire
    spell it: any case of a paper profile's name (["arduplane"],
    ["Arduplane"], ...), or a filler count as a bare number (["60"]) or
    as the name {!tiny} prints (["tiny-60"]), built with seed 2024.  So
    the [name] of every {!all} profile and of every seed-2024 tiny
    profile parses back to that profile.  A filler count too large for
    any image of it to fit the ATmega2560's flash is an error, found
    without building anything. *)
val of_string : string -> (t, string) result

type toolchain = {
  relax : bool;  (** Binutils linker relaxation ([call]→[rcall]) *)
  call_prologues : bool;  (** shared prologue/epilogue stubs *)
  vulnerable : bool;  (** keep the injected MAVLink length-check bug (§IV-B) *)
}

val stock : toolchain
(** relax on, shared prologues on, vulnerability present. *)

val mavr : toolchain
(** [--no-relax], [-mno-call-prologues]; vulnerability still present (the
    defense does not remove the bug, it breaks its exploitation). *)

val patched : toolchain
(** like [mavr] but with the length check restored (for differential
    tests). *)

(** {2 Test hooks}

    Used only by the tests, to build the other two paper applications
    directly; campaigns reach them through {!all} and {!of_string}. *)

val arducopter : t
(** 1030 functions, 244 532 bytes. *)

val ardurover : t
(** 800 functions, 177 870 bytes. *)
