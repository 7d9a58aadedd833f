type level = {
  name : string;
  downlink : Channel.params;
  uplink : Channel.params;
  seu : Seu.params;
  reflash : Reflash.params;
}

let level_off =
  {
    name = "off";
    downlink = Channel.clean;
    uplink = Channel.clean;
    seu = Seu.off;
    reflash = Reflash.off;
  }

let level_is_off l =
  Channel.is_clean l.downlink && Channel.is_clean l.uplink && Seu.is_off l.seu
  && Reflash.is_off l.reflash

type t = { name : string; levels : level array }

(* Channel rates are per byte (per chunk for burst/jitter); a 900 ms
   trial moves a few KB of telemetry, so "mild" is a handful of flipped
   bits per trial and "severe" is ~1% byte error — past the point where
   the GCS Link_corruption alarm must fire while Unexpected_reboot must
   not. *)
let chan_mild =
  {
    Channel.bit_flip_ppm = 200;
    drop_ppm = 100;
    dup_ppm = 50;
    burst_ppm = 2_000;
    burst_len_max = 4;
    jitter_max_ticks = 1;
  }

let chan_moderate =
  {
    Channel.bit_flip_ppm = 2_000;
    drop_ppm = 1_000;
    dup_ppm = 500;
    burst_ppm = 20_000;
    burst_len_max = 8;
    jitter_max_ticks = 2;
  }

let chan_severe =
  {
    Channel.bit_flip_ppm = 10_000;
    drop_ppm = 5_000;
    dup_ppm = 2_000;
    burst_ppm = 100_000;
    burst_len_max = 16;
    jitter_max_ticks = 4;
  }

(* SEU rates are per tick (1 ms): "mild" is sub-one expected upset per
   trial, "severe" is tens of SRAM flips plus a few flash flips — enough
   to crash firmware occasionally and exercise the recovery reflash. *)
let seu_mild = { Seu.sram_flip_ppm = 500; flash_flip_ppm = 0 }
let seu_moderate = { Seu.sram_flip_ppm = 5_000; flash_flip_ppm = 500 }
let seu_severe = { Seu.sram_flip_ppm = 20_000; flash_flip_ppm = 5_000 }

(* Reflash corruption is per streamed page; an application image is a
   few hundred pages, so "severe" corrupts most sessions at least once
   and the verify-and-retry path carries the load. *)
let reflash_mild = { Reflash.page_corrupt_ppm = 200; max_retries = 3 }
let reflash_moderate = { Reflash.page_corrupt_ppm = 2_000; max_retries = 3 }
let reflash_severe = { Reflash.page_corrupt_ppm = 10_000; max_retries = 3 }

let none = { name = "none"; levels = [| level_off |] }

(* Channel noise only (bit flips / drops / dups / bursts / jitter). *)
let lossy =
  let lvl name c = { level_off with name; downlink = c; uplink = c } in
  {
    name = "lossy";
    levels =
      [|
        level_off; lvl "mild" chan_mild; lvl "moderate" chan_moderate; lvl "severe" chan_severe;
      |];
  }

(* Memory upsets only (SRAM + flash bit flips). *)
let seu =
  let lvl name s = { level_off with name; seu = s } in
  {
    name = "seu";
    levels =
      [| level_off; lvl "mild" seu_mild; lvl "moderate" seu_moderate; lvl "severe" seu_severe |];
  }

let stress =
  let lvl name c s r = { name; downlink = c; uplink = c; seu = s; reflash = r } in
  {
    name = "stress";
    levels =
      [|
        level_off;
        lvl "mild" chan_mild seu_mild reflash_mild;
        lvl "moderate" chan_moderate seu_moderate reflash_moderate;
        lvl "severe" chan_severe seu_severe reflash_severe;
      |];
  }

let all = [ none; lossy; seu; stress ]
let names = List.map (fun p -> p.name) all

let of_string s =
  match List.find_opt (fun p -> p.name = s) all with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown fault profile %S (expected one of %s)" s
           (String.concat ", " names))
