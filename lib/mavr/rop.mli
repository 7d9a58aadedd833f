(** The paper's three ROP attacks (§IV), as MAVLink frame builders.

    The attacker model (§IV-A): a malicious ground station holding the
    {e unprotected} application binary.  From that binary alone the
    attacker (1) scans for the Fig. 4/5 gadgets, (2) dry-runs the firmware
    locally to learn the vulnerable handler's frame geometry and the
    original register/stack contents needed for a clean return, and
    (3) crafts MAVLink packets whose payload overflows the PARAM_SET
    stack buffer.

    Attack geometry (discovered, not assumed): the vulnerable handler
    copies the staged payload into a 64-byte stack buffer; bytes 66..68
    land in the saved registers, bytes 69..71 in the return address.  The
    payload remains available at the fixed [STAGE] address, so the
    stealthy variants pivot the stack pointer into [STAGE] and run the
    chain there, leaving the callers' stack intact; the chain's final
    rounds repair the six smashed bytes and pivot back — the "clean
    return" of §IV-D.

    - {b V1} ([v1_basic]): one frame; writes 3 attacker bytes (e.g. the
      gyroscope value) then crashes — the stack frame is destroyed.
    - {b V2} ([v2_stealthy]): two frames (one benign staging frame, one
      71-byte trigger); performs up to 6 arbitrary 3-byte writes and
      returns cleanly — execution continues as if nothing happened.
    - {b V3} ([v3_stage], [v3_execute]): arbitrarily many frames; stages an
      unbounded payload into free SRAM 18 bytes per volley (every volley
      returns cleanly), then pivots into it and executes it as one big
      chain before returning cleanly again. *)

type target_info = {
  image : Mavr_obj.Image.t;  (** the unprotected binary *)
  gadgets : Gadget.paper_gadgets;
  stage_addr : int;  (** static staging buffer (from binary analysis) *)
  vuln_msgid : int;  (** PARAM_SET, the vulnerable handler *)
  staging_msgid : int;  (** COMMAND_LONG, a benign handler used to stage *)
}

type observation = {
  s0 : int;  (** SP on entry to the vulnerable handler (before its pushes) *)
  saved_bytes : string;  (** the 6 original bytes at [s0-5 .. s0]:
                             saved r28, r29, r16, return address hi/mid/lo *)
  regs : int array;  (** all 32 registers at the frame teardown *)
  gyro_addr : int;  (** data-space address of the gyro sensor register *)
}

(** A single 3-byte arbitrary write: the write_mem gadget stores
    [bytes = (b1, b2, b3)] at [base+1], [base+2], [base+3]. *)
type write = { base : int; bytes : int * int * int }

(** [analyze build] — static analysis of the unprotected binary.
    @raise Failure when the required gadgets are absent. *)
val analyze : Mavr_firmware.Build.t -> target_info

(** [observe ti] — the attacker's local dry run: boots the unprotected
    image in a local emulator, sends a benign PARAM_SET and breaks at the
    frame teardown.
    @raise Failure when the dry run does not reach the teardown. *)
val observe : target_info -> observation

(** [writes_for_value ~addr ~lo ~hi obs] — the single write that sets a
    16-bit memory-mapped value (third byte preserves the neighbour). *)
val write_u16 : observation -> addr:int -> value:int -> neighbour:int -> write

(** {2 Attack builders (returning wire-ready MAVLink frames)} *)

(** [v1_basic ti obs ~writes] — the crash-after-effect attack. *)
val v1_basic : target_info -> observation -> writes:write list -> string list

(** [v2_stealthy ti obs ~writes] — clean-return attack; at most 6 writes
    per invocation.
    @raise Invalid_argument with more than 6 writes. *)
val v2_stealthy : target_info -> observation -> writes:write list -> string list

(** [v3_execute ti obs ~chain_dest ~writes] — stages a (possibly very
    long) chain of [writes] at [chain_dest] and fires one trigger volley
    that pivots into it; the big chain repairs and returns cleanly. *)
val v3_execute : target_info -> observation -> chain_dest:int -> writes:write list -> string list

(** The raw chain bytes [v3_execute] stages (exposed for tests and for
    the Fig. 6 walkthrough). *)
val big_chain_bytes : target_info -> observation -> writes:write list -> string

(** [crash_probe ti] — a "failed brute-force guess": a trigger frame whose
    overwritten return address points beyond the programmed flash, so the
    victim's PC goes wild on {e any} layout.  This is the deterministic
    failure the §V-D analysis assumes ("a failed attempt will result in
    the program counter being incremented incorrectly"), used to exercise
    the master processor's detection path. *)
val crash_probe : target_info -> string list

(** {2 Test hooks}

    Used only by the tests, to run attack V3's staging phase alone and to
    check the trigger frame's geometry. *)

(** [v3_stage ti obs ~data ~dest] — attack V3's staging phase alone:
    the volleys that write [data] to SRAM address [dest], 3 bytes per
    write and up to 6 writes per volley, each returning cleanly. *)
val v3_stage : target_info -> observation -> data:string -> dest:int -> string list

(** Length of the trigger frame payload (72: exactly up to the return
    address, no caller-stack damage). *)
val trigger_len : int
