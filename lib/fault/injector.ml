module Splitmix = Mavr_prng.Splitmix

type t = {
  downlink : Channel.t option;
  uplink : Channel.t option;
  seu : Seu.t option;
  reflash : Reflash.t option;
}

let create ~seed (level : Profile.level) =
  let root = Splitmix.create ~seed in
  (* Split unconditionally, in a fixed order, so each fault class sees
     the same stream whether or not its neighbours are enabled. *)
  let r_down = Splitmix.split root in
  let r_up = Splitmix.split root in
  let r_seu = Splitmix.split root in
  let r_reflash = Splitmix.split root in
  {
    downlink =
      (if Channel.is_clean level.downlink then None
       else Some (Channel.create ~rng:r_down level.downlink));
    uplink =
      (if Channel.is_clean level.uplink then None
       else Some (Channel.create ~rng:r_up level.uplink));
    seu = (if Seu.is_off level.seu then None else Some (Seu.create ~rng:r_seu level.seu));
    reflash =
      (if Reflash.is_off level.reflash then None
       else Some (Reflash.create ~rng:r_reflash level.reflash));
  }

let downlink t = t.downlink
let uplink t = t.uplink
let reflash t = t.reflash
let seu_tick t cpu = match t.seu with Some s -> Seu.tick s cpu | None -> ()

let seu_stats t =
  match t.seu with Some s -> Seu.stats s | None -> { Seu.sram_flips = 0; flash_flips = 0 }

let attach_metrics t registry =
  Option.iter (fun c -> Channel.attach_metrics ~prefix:"fault.downlink" c registry) t.downlink;
  Option.iter (fun c -> Channel.attach_metrics ~prefix:"fault.uplink" c registry) t.uplink;
  Option.iter (fun s -> Seu.attach_metrics ~prefix:"fault.seu" s registry) t.seu;
  Option.iter (fun r -> Reflash.attach_metrics ~prefix:"fault.reflash" r registry) t.reflash
