(** SRAM layout of the synthetic autopilot.

    Static data-space addresses shared between the runtime kernel, the
    code generator and (because the attacker has the unprotected binary,
    §IV-A) the attack builders.  All addresses are within the ATmega2560
    data space: registers 0x00–0x1F, I/O 0x20–0x5F, SRAM from 0x200. *)

val data_vma : int
(** Destination of the .data initializer copy (the vtable lives here). *)

val vtable_entries : int
val vtable_vma : int

val stage : int
(** 255-byte staging area where the MAVLink receive state machine
    accumulates a frame's payload before it is (vulnerably) copied to a
    stack buffer. *)

val stage_len : int

(** {2 Receive state machine variables} *)

val st_state : int
val st_len : int
val st_idx : int
val st_msgid : int
val rxcrc_lo : int
val rxcrc_hi : int
val txcrc_lo : int
val txcrc_hi : int
val txseq : int
val loop_lo : int
val loop_hi : int
val gcs_beat : int
val gyro_val : int
(** 16-bit copy of the gyroscope sensor reading — the value the paper's
    ROP attack V1 overwrites. *)

val gyro_cfg : int
(** 16-bit gyroscope calibration offset applied to every sample — the
    "configuration registers ... that would have a continuous effect"
    the paper's §IV-C points attackers at. *)

val tick : int
(** 16-bit tick counter incremented by the timer-compare ISR — the
    interrupt-driven workload that exercises the vector table under
    randomization. *)

val telem : int
(** 26-byte RAW_IMU payload block streamed as telemetry; xgyro is at
    [telem + telem_gyro_off]. *)

val telem_gyro_off : int

val telem_accel_off : int
(** xacc field offset within the RAW_IMU payload block. *)

val param_area : int
(** Where PARAM_SET values are stored by [param_store] (the function whose
    tail is the paper's Fig. 5 [write_mem_gadget]). *)

val cmd_area : int

(** [scratch i] is the scratch address assigned to generated function [i]. *)
val scratch : int -> int

val stack_top : int
(** Initial stack pointer (top of SRAM). *)

val free_region : int
(** Start of the SRAM region unused by the application — where ROP attack
    V3 stages its arbitrarily large payload. *)

val vuln_buffer_len : int
(** Size of the stack buffer in the vulnerable PARAM_SET handler. *)

val vuln_frame_size : int
(** Bytes subtracted from SP for the handler's frame. *)
