(** Harvard memories of an AVR device (Fig. 1 of the paper).

    Program flash and the linear data space are physically separate: code
    executes only from flash, the program counter can never point into
    data memory, and nothing executed on the device can write flash (only
    the bootloader programming interface below can, mirroring
    self-programming via SPM).  The data space contains the memory-mapped
    register file at addresses 0x00–0x1F — the property both paper gadgets
    exploit — the 64 I/O registers, and SRAM. *)

type t

val create : Device.t -> t
val device : t -> Device.t

(** {2 Program flash} *)

(** [load_flash t image] programs [image] at address 0 (initial flashing;
    does not count against endurance).
    @raise Invalid_argument if the image exceeds flash. *)
val load_flash : t -> string -> unit

val flash_byte : t -> int -> int

(** [flash_word t word_addr] is the little-endian 16-bit program word. *)
val flash_word : t -> int -> int

(** [flash_write_page t ~page_addr data] emulates bootloader/SPM page
    programming. [page_addr] must be page-aligned and [data] exactly one
    page. *)
val flash_write_page : t -> page_addr:int -> string -> unit

(** [flash_epoch t] increments on every flash mutation ({!load_flash} or
    {!flash_write_page}).  Consumers that cache decoded program words
    (the CPU's predecode cache) compare epochs to detect a reflash —
    the per-lifetime re-randomization path — and invalidate. *)
val flash_epoch : t -> int

(** {2 Data space} *)

(** Raw data-space accessors: no I/O side effects (used by the CPU for
    register-file access and by host-side inspection). *)
val data_get : t -> int -> int

val data_set : t -> int -> int -> unit

(** Register-file accessors for the CPU's hot path: like [data_get] /
    [data_set] but specialized to the 32 registers at data 0x00..0x1F
    (the register index is masked to that range rather than checked). *)
val reg_get : t -> int -> int

val reg_set : t -> int -> int -> unit

val data_slice : t -> pos:int -> len:int -> string

(** {2 EEPROM} *)

val eeprom_get : t -> int -> int
val eeprom_set : t -> int -> int -> unit

(** {2 Test hooks}

    Used only by the tests, to read back what a fault or a reflash left in
    flash. *)

(** Copy of the full flash contents (for host-side scanning/disassembly). *)
val flash_contents : t -> string
