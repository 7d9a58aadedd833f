module Cpu = Mavr_avr.Cpu
module Image = Mavr_obj.Image
module Symtab = Mavr_obj.Symtab
module Flash = Mavr_avr.Device.External_flash
module Rng = Mavr_prng.Splitmix

let src = Logs.Src.create "mavr.master" ~doc:"MAVR master processor"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  randomize_every_boots : int;
  watchdog_window_cycles : int;
  seed : int;
}

let default_config =
  {
    randomize_every_boots = 1;
    watchdog_window_cycles = 60_000;
    seed = 0xD15EA5E;
  }

type event =
  | Booted of { boot : int; randomized : bool; overhead_ms : float }
  | Attack_detected of { at_cycles : int; reason : string }
  | Reflashed of { generation : int; overhead_ms : float }

let pp_event fmt = function
  | Booted { boot; randomized; overhead_ms } ->
      Format.fprintf fmt "boot #%d (%s, %.0f ms)" boot
        (if randomized then "randomized" else "cached layout")
        overhead_ms
  | Attack_detected { at_cycles; reason } ->
      Format.fprintf fmt "failed attack detected at cycle %d (%s)" at_cycles reason
  | Reflashed { generation; overhead_ms } ->
      Format.fprintf fmt "re-randomized: generation %d (%.0f ms)" generation overhead_ms

(* Telemetry bindings: histograms for the Table II phase decomposition
   (microsecond samples per flash session) plus the shared flight
   recorder for span events.  Optional — a master without telemetry
   attached pays nothing. *)
type telemetry = {
  recorder : Mavr_telemetry.Recorder.t;
  phase_patch : Mavr_telemetry.Metrics.histogram;
  phase_serial : Mavr_telemetry.Metrics.histogram;
  phase_pages : Mavr_telemetry.Metrics.histogram;
  phase_total : Mavr_telemetry.Metrics.histogram;
  flash_retries : Mavr_telemetry.Metrics.histogram;
}

(* What provisioning leaves on the external flash, and what the master
   derives from it once: the decoded image and its relocation plan. *)
type stored = { hex : string; image : Image.t; plan : Stream_patch.plan }

type t = {
  config : config;
  ext_flash : Flash.t;
  mutable stored : stored option;
  rng : Rng.t;
  mutable boots : int;
  mutable reflashes : int;
  mutable last_overhead_ms : float;
  mutable current : Image.t option;
  mutable events : event list;
  mutable attacks : int;
  mutable pages_programmed : int;
  mutable peak_ws : int;
  mutable tel : telemetry option;
  mutable reflash_fault : Mavr_fault.Reflash.t option;
  mutable last_retries : int;
  mutable fallback_streams : int;
}

let create ?(config = default_config) () =
  {
    config;
    ext_flash = Flash.create ~bytes:(1 lsl 20);
    stored = None;
    rng = Rng.create ~seed:config.seed;
    boots = 0;
    reflashes = 0;
    last_overhead_ms = 0.0;
    current = None;
    events = [];
    attacks = 0;
    pages_programmed = 0;
    peak_ws = 0;
    tel = None;
    reflash_fault = None;
    last_retries = 0;
    fallback_streams = 0;
  }

let set_reflash_faults t f = t.reflash_fault <- f

let attach_telemetry t ~registry ~recorder =
  let module M = Mavr_telemetry.Metrics in
  let name s = "master." ^ s in
  M.sampled registry (name "boots") (fun () -> t.boots);
  M.sampled registry (name "reflashes") (fun () -> t.reflashes);
  M.sampled registry (name "attacks_detected") (fun () -> t.attacks);
  M.sampled registry (name "pages_programmed") (fun () -> t.pages_programmed);
  M.sampled registry (name "peak_working_set") (fun () -> t.peak_ws);
  M.sampled_counter registry (name "flash.fallback_streams") (fun () -> t.fallback_streams);
  t.tel <-
    Some
      {
        recorder;
        phase_patch = M.histogram registry (name "flash.patch_us");
        phase_serial = M.histogram registry (name "flash.serial_us");
        phase_pages = M.histogram registry (name "flash.page_write_us");
        phase_total = M.histogram registry (name "flash.total_us");
        flash_retries = M.histogram registry (name "flash.retries");
      }

let page_bytes = Mavr_avr.Device.atmega2560.flash_page_bytes

(* Nothing but provisioning writes the external flash, so its contents
   are decoded and planned once, when the stored value is made, rather
   than at every flash session; a HEX the master could not decode or
   relocate is refused before it is stored. *)
let store image =
  let hex = Symtab.to_hex image in
  let decoded = Symtab.of_hex hex in
  { hex; image = decoded; plan = Stream_patch.plan decoded ~page_bytes }

let provision_stored t s =
  Flash.program t.ext_flash s.hex;
  t.stored <- Some s

let provision t image = provision_stored t (store image)

let stored_hex t = Flash.read t.ext_flash ~pos:0 ~len:(Flash.content_length t.ext_flash)

let stored t =
  match t.stored with Some s -> s | None -> invalid_arg "Master: not provisioned"

(* The programming link: the prototype's 115200-baud UART. *)
let link = Serial.prototype

(* The Table II quantity for this master's link. *)
let startup_overhead_ms bytes = Serial.programming_ms link bytes

(* A §VI-B3 streaming session: draw a permutation, lay the stored image
   out in it (the emulated application processor takes the whole image),
   and account for the pages programmed and the randomizer's working
   set. *)
let randomize_streaming t s =
  let image = Stream_patch.layout s.plan (Shuffle.draw ~rng:t.rng s.image) in
  let stats = Stream_patch.ledger s.plan in
  t.pages_programmed <- t.pages_programmed + stats.Stream_patch.pages_emitted;
  t.peak_ws <- max t.peak_ws stats.Stream_patch.peak_working_set;
  image

(* Stream the binary over the (possibly faulty) programming link and
   verify the received bytes against the stored image by CRC-16.  A
   failed verify forces a bounded number of re-streams; when those are
   exhausted the session falls back to a page-by-page acknowledged
   re-stream, modeled as delivering the clean bytes at the cost of one
   more full transfer.  Returns the bytes that land in flash plus the
   session's extra-transfer count (retries, +1 for a fallback). *)
let stream_verified t image =
  match t.reflash_fault with
  | None -> (image.Image.code, 0)
  | Some fault ->
      let module Reflash = Mavr_fault.Reflash in
      let page_bytes = Mavr_avr.Device.atmega2560.flash_page_bytes in
      let code = image.Image.code in
      let want = Reflash.crc16 code in
      let max_retries = (Reflash.params fault).Reflash.max_retries in
      let rec attempt n =
        let streamed, _ = Reflash.stream fault ~page_bytes code in
        if Reflash.crc16 streamed = want then (streamed, n)
        else if n < max_retries then begin
          Reflash.record_retry fault;
          attempt (n + 1)
        end
        else begin
          Reflash.record_fallback fault;
          t.fallback_streams <- t.fallback_streams + 1;
          (code, n + 1)
        end
      in
      attempt 0

(* Program the application processor: stream the (randomized) binary
   through the bootloader and restart it.  With telemetry attached, the
   session is decomposed into the Table II phases — patch compute, serial
   transfer, page writes — as spans on the flight recorder (stamped with
   the application clock at the moment the session starts; reflashing
   resets that clock) and microsecond histograms in the registry. *)
let program_app t ~app image =
  let bytes = Image.size image in
  let code, extra_transfers = stream_verified t image in
  t.last_retries <- extra_transfers;
  (match t.tel with
  | None -> ()
  | Some tel ->
      let module R = Mavr_telemetry.Recorder in
      let module M = Mavr_telemetry.Metrics in
      let us f = int_of_float (1000.0 *. f) in
      (* Each verify failure repeats the transfer and page-write phases
         (the patch was computed once); the histograms and spans carry
         the session as actually paid for. *)
      let xfers = 1 + extra_transfers in
      let patch = us (Serial.patch_ms link bytes) in
      let serial = xfers * us (Serial.transfer_ms link bytes) in
      let pages = xfers * us (Serial.flash_ms link bytes) in
      let total =
        us (Serial.programming_ms link bytes)
        + (extra_transfers * us (Serial.transfer_ms link bytes +. Serial.flash_ms link bytes))
      in
      let cycle = Cpu.cycles app in
      R.span_begin tel.recorder ~cycle ~value:bytes "master.flash_session";
      R.record tel.recorder ~cycle ~value:patch "master.phase.patch";
      R.record tel.recorder ~cycle ~value:serial "master.phase.serial";
      R.record tel.recorder ~cycle ~value:pages "master.phase.page_writes";
      R.span_end tel.recorder ~cycle ~value:total "master.flash_session";
      M.observe tel.phase_patch patch;
      M.observe tel.phase_serial serial;
      M.observe tel.phase_pages pages;
      M.observe tel.phase_total total;
      M.observe tel.flash_retries extra_transfers);
  Cpu.load_program app code;
  t.reflashes <- t.reflashes + 1;
  t.last_overhead_ms <-
    startup_overhead_ms bytes
    +. (float_of_int extra_transfers
       *. (Serial.transfer_ms link bytes +. Serial.flash_ms link bytes));
  t.current <- Some image

let boot t ~app =
  let stored = stored t in
  t.boots <- t.boots + 1;
  let randomize =
    t.config.randomize_every_boots <= 1
    || (t.boots - 1) mod t.config.randomize_every_boots = 0
    || t.current = None
  in
  let image =
    if randomize then randomize_streaming t stored
    else match t.current with Some img -> img | None -> assert false
  in
  program_app t ~app image;
  Log.info (fun m ->
      m "boot #%d: %s layout, %.0f ms startup overhead" t.boots
        (if randomize then "fresh randomized" else "cached")
        t.last_overhead_ms);
  t.events <- Booted { boot = t.boots; randomized = randomize; overhead_ms = t.last_overhead_ms } :: t.events

let current_image t =
  match t.current with Some img -> img | None -> invalid_arg "Master: application not booted"

let boots t = t.boots
let reflashes t = t.reflashes
let last_flash_retries t = t.last_retries
let fallback_streams t = t.fallback_streams
let last_overhead_ms t = t.last_overhead_ms
let events t = List.rev t.events
let attacks_detected t = t.attacks
let pages_programmed t = t.pages_programmed
let peak_working_set t = t.peak_ws

let rerandomize_after_attack t ~app ~reason =
  Log.warn (fun m -> m "failed attack detected (%s); re-randomizing" reason);
  t.attacks <- t.attacks + 1;
  (match t.tel with
  | None -> ()
  | Some tel ->
      Mavr_telemetry.Recorder.record tel.recorder ~cycle:(Cpu.cycles app)
        ~value:(Cpu.pc_byte_addr app) "master.attack_detected");
  t.events <- Attack_detected { at_cycles = Cpu.cycles app; reason } :: t.events;
  let image = randomize_streaming t (stored t) in
  program_app t ~app image;
  t.events <- Reflashed { generation = t.reflashes; overhead_ms = t.last_overhead_ms } :: t.events

let check_and_recover t ~app =
  match Cpu.halted app with
  | Some h ->
      rerandomize_after_attack t ~app ~reason:(Format.asprintf "%a" Cpu.pp_halt h);
      true
  | None ->
      if Cpu.cycles app - Cpu.last_feed_cycles app > t.config.watchdog_window_cycles then begin
        rerandomize_after_attack t ~app ~reason:"watchdog feed silence";
        true
      end
      else false

let supervise t ~app ~cycles =
  (* Count the budget locally: a recovery resets the application's cycle
     counter, which must not extend the supervision window. *)
  let detected0 = t.attacks in
  let remaining = ref cycles in
  while !remaining > 0 do
    let slice = min 1_000 !remaining in
    let before = Cpu.cycles app in
    ignore (Cpu.run_until_halt app ~max_cycles:slice);
    let ran = Cpu.cycles app - before in
    remaining := !remaining - max 1 (if ran >= 0 then ran else slice);
    ignore (check_and_recover t ~app)
  done;
  t.attacks - detected0
