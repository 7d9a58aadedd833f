(** Device profiles for the AVR microcontrollers used by MAVR.

    The paper's system uses two parts: the ATmega2560 {e application
    processor} on the APM 2.5 board and the ATmega1284P {e master
    processor} added by the MAVR hardware design (§V-A, §VI-A).  A profile
    captures the memory geometry (Fig. 1) and the I/O locations the
    emulator, firmware and attacks depend on. *)

type t = {
  name : string;
  flash_bytes : int;       (** internal program flash size *)
  sram_bytes : int;        (** internal SRAM, excluding register/I/O file *)
  eeprom_bytes : int;
  pc_bytes : int;          (** bytes of PC pushed by [call]: 3 on the 2560
                               (22-bit PC), 2 on parts up to 128 KB *)
  io_base : int;           (** data-space address of I/O register 0 *)
  sram_base : int;         (** data-space address of first SRAM byte *)
  flash_page_bytes : int;  (** self-programming page size *)
  flash_endurance : int;   (** guaranteed program/erase cycles (10,000) *)
  unit_price_usd : float;  (** prototype-batch unit price (§V-A4) *)
}

val atmega2560 : t
val atmega1284p : t

(** Data-space end (exclusive): [sram_base + sram_bytes]. *)
val data_end : t -> int

(** I/O register numbers (for [in]/[out], i.e. offsets from [io_base]). *)
module Io : sig
  (** Stack pointer low byte, 0x3D — the [stk_move] gadget's target. *)
  val spl : int

  (** Stack pointer high byte, 0x3E. *)
  val sph : int

  (** Status register, 0x3F. *)
  val sreg : int

  (** Pseudo-port written by firmware each main-loop iteration; the MAVR
      master listens to it to detect failed attacks (§VI-A). *)
  val wdt_feed : int

  (** UART data register (simplified single-UART model). *)
  val udr : int

  (** UART status: bit 7 = RX complete, bit 5 = TX ready. *)
  val ucsra : int

  (** Memory-mapped gyroscope sensor value, low byte. *)
  val gyro_lo : int

  val gyro_hi : int

  (** Memory-mapped accelerometer X-axis value. *)
  val accel_lo : int

  val accel_hi : int

  (** EEPROM control register: bit 0 = EERE (read enable), bit 1 = EEPE
      (write enable).  Together with {!eedr}/{!eearl}/{!eearh} this is the
      access path to the third memory of Fig. 1. *)
  val eecr : int

  val eedr : int
  val eearl : int
  val eearh : int

  (** RAMPZ: the flash high byte used by [elpm] on >64 KB parts. *)
  val rampz : int

  (** Timer control: bit 0 enables the periodic compare interrupt. *)
  val tccr : int

  (** Timer compare value: the interrupt period is [(ocr + 1) * 64]
      cycles. *)
  val ocr : int
end

(** Interrupt vector numbers (each vector slot is one [jmp], 4 bytes). *)
module Vector : sig
  val timer_compare : int
  val count : int  (** vector-table entries on the ATmega2560 *)

  (** [byte_addr n] — flash byte address of vector [n]'s jump. *)
  val byte_addr : int -> int
end

(** M95M02-class external SPI flash used by the MAVR master to store the
    preprocessed application binary (§V-A1). *)
module External_flash : sig
  type t

  (** [create ~bytes] makes an empty external flash of the given size;
      the paper sizes it to match the application processor's flash. *)
  val create : bytes:int -> t

  (** [program t data] replaces the chip contents.
      @raise Invalid_argument if [data] exceeds the chip size. *)
  val program : t -> string -> unit

  (** [read t ~pos ~len] random-access read (the streaming property the
      randomizer relies on, §VI-B3). *)
  val read : t -> pos:int -> len:int -> string

  (** Number of bytes currently programmed. *)
  val content_length : t -> int

  val unit_price_usd : float
end
