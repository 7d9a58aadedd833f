module Splitmix = Mavr_prng.Splitmix

let task_seeds ~seed ~tasks =
  if tasks < 0 then invalid_arg "Campaign.Engine.task_seeds: negative task count";
  let root = Splitmix.create ~seed in
  (* One split per task, drawn sequentially in the coordinator: the
     schedule depends only on (seed, index), never on [jobs].  Seeds are
     spread over the 63-bit space, so independent campaigns (different
     roots) never silently rerun each other's layouts the way the old
     hardcoded [i + 1] seeds did. *)
  Array.init tasks (fun _ -> Splitmix.next (Splitmix.split root))

let run_tasks ?pool ?jobs ~tasks body =
  match pool with
  | Some p -> Pool.run p ~tasks body
  | None -> Pool.with_pool ?jobs (fun p -> Pool.run p ~tasks body)

(* The resumable primitive: run [body] for an arbitrary subset of a
   campaign's global index space.  [seeds] is the full schedule from
   {!task_seeds}; [indices] selects which tasks actually run this round —
   a resumed run passes the not-yet-completed frontier, an early-stopping
   driver passes one batch per open cell.  Each task still draws its rng
   from [seeds.(global index)], so a task's result never depends on which
   round, process or domain ran it. *)
let iter_indices ?pool ?jobs ?progress ~seeds ~indices body =
  let tasks = Array.length indices in
  Array.iter
    (fun i ->
      if i < 0 || i >= Array.length seeds then
        invalid_arg (Printf.sprintf "Campaign.Engine.iter_indices: index %d out of schedule" i))
    indices;
  Option.iter (fun p -> Progress.add_total p tasks) progress;
  let run k =
    let i = indices.(k) in
    body ~index:i ~rng:(Splitmix.create ~seed:seeds.(i));
    Option.iter Progress.task_done progress
  in
  run_tasks ?pool ?jobs ~tasks run
