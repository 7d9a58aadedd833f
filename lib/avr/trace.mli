(** Stack tracing: the labelled stack-window snapshots of Fig. 6
    ("stack progression during attack").  Instruction-level observation
    lives in {!Probes}. *)

(** A labelled snapshot of a data-space window. *)
type stack_snapshot = {
  label : string;
  window_start : int;  (** data-space address of the first byte shown *)
  bytes : string;
  sp_at : int;  (** stack pointer when the snapshot was taken *)
}

val snapshot : Cpu.t -> label:string -> window_start:int -> window_len:int -> stack_snapshot

(** Renders in the paper's Fig. 6 style: rows of eight hex bytes prefixed
    with the row's data-space address. *)
val pp_snapshot : Format.formatter -> stack_snapshot -> unit
