exception Task_failed of { index : int; exn : exn; backtrace : string }

(* One published parallel-for.  [next] is the chunked queue head;
   [completed] counts finished tasks (failures included) so the caller
   knows when the join is safe; failures accumulate under the pool
   mutex and are re-raised deterministically (lowest index) after the
   barrier. *)
type job = {
  body : int -> unit;
  total : int;
  chunk : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  mutable failures : (int * exn * string) list;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  (* Per-slot utilization (slot 0 = the calling domain, 1.. = workers).
     Each slot is written only by its own domain, around whole chunks, so
     the plain get-then-set below is not a lost-update hazard — but the
     cells are read cross-domain by [stats] (progress heartbeats), which
     under the OCaml 5 memory model makes plain array cells a data race
     with torn/stale reads.  Atomic slots give each read/write SC
     semantics; [stats] still observes whole-chunk granularity only. *)
  task_counts : int Atomic.t array;
  busy_s : float Atomic.t array;
}

let max_jobs = 16

let process t ~slot job =
  let rec drain () =
    let start = Atomic.fetch_and_add job.next job.chunk in
    if start < job.total then begin
      let stop = min job.total (start + job.chunk) in
      let t0 = Clock.wall () in
      for i = start to stop - 1 do
        try job.body i
        with e ->
          let bt = Printexc.get_backtrace () in
          Mutex.lock t.mutex;
          job.failures <- (i, e, bt) :: job.failures;
          Mutex.unlock t.mutex
      done;
      let n = stop - start in
      Atomic.set t.task_counts.(slot) (Atomic.get t.task_counts.(slot) + n);
      Atomic.set t.busy_s.(slot) (Atomic.get t.busy_s.(slot) +. (Clock.wall () -. t0));
      if Atomic.fetch_and_add job.completed n + n = job.total then begin
        (* Last task in: wake the caller blocked in [run]'s join. *)
        Mutex.lock t.mutex;
        Condition.broadcast t.work_done;
        Mutex.unlock t.mutex
      end;
      drain ()
    end
  in
  drain ()

let worker t ~slot =
  let seen = ref 0 in
  let rec park () =
    Mutex.lock t.mutex;
    while (not t.stopping) && t.generation = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with Some j -> process t ~slot j | None -> ());
      park ()
    end
  in
  park ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Campaign.Pool.create: jobs must be >= 1"
    | Some j -> min j max_jobs
    | None -> min max_jobs (max 1 (Domain.recommended_domain_count ()))
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      stopping = false;
      domains = [];
      task_counts = Array.init jobs (fun _ -> Atomic.make 0);
      busy_s = Array.init jobs (fun _ -> Atomic.make 0.0);
    }
  in
  t.domains <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t ~slot:(i + 1)));
  t

let jobs t = t.jobs

type domain_stats = { tasks_run : int; busy_s : float }

let stats t =
  Array.init t.jobs (fun i ->
      { tasks_run = Atomic.get t.task_counts.(i); busy_s = Atomic.get t.busy_s.(i) })

let raise_first_failure job =
  match List.sort (fun (a, _, _) (b, _, _) -> compare a b) job.failures with
  | [] -> ()
  | (index, exn, backtrace) :: _ -> raise (Task_failed { index; exn; backtrace })

let run t ~tasks body =
  if tasks < 0 then invalid_arg "Campaign.Pool.run: negative task count";
  if tasks > 0 then begin
    (* Chunk so the queue is touched O(jobs) times on big fan-outs but
       single tasks still load-balance; determinism never depends on the
       chunking, only throughput does. *)
    let chunk = max 1 (tasks / (t.jobs * 8)) in
    let job =
      { body; total = tasks; chunk; next = Atomic.make 0; completed = Atomic.make 0; failures = [] }
    in
    if t.jobs = 1 then process t ~slot:0 job
    else begin
      Mutex.lock t.mutex;
      t.job <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      (* The caller is a worker too: it drains the same queue, then
         blocks until the stragglers running on other domains finish. *)
      process t ~slot:0 job;
      Mutex.lock t.mutex;
      while Atomic.get job.completed < job.total do
        Condition.wait t.work_done t.mutex
      done;
      t.job <- None;
      Mutex.unlock t.mutex
    end;
    raise_first_failure job
  end

(* Joins the worker domains.  Idempotent.  The pool must not be used
   afterwards. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
