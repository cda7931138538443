module Metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Budget = Repro_obs.Budget
module Fault = Repro_obs.Fault

let regions_c = Metrics.counter "par.regions"
let tasks_c = Metrics.counter "par.tasks"
let jobs_g = Metrics.gauge "par.jobs"
let busy_ms_h = Metrics.histogram "par.domain_busy_ms"

let default_jobs () =
  match Sys.getenv_opt "WAVEMIN_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let requested_jobs : int option ref = ref None
let jobs () = match !requested_jobs with Some j -> j | None -> default_jobs ()

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs must be >= 1";
  requested_jobs := Some n

let with_jobs n f =
  if n < 1 then invalid_arg "Par.with_jobs: jobs must be >= 1";
  let saved = !requested_jobs in
  requested_jobs := Some n;
  Fun.protect ~finally:(fun () -> requested_jobs := saved) f

(* The pool is created lazily on the first parallel region and recycled
   when the requested job count changes.  Domains left running at
   process exit would abort the runtime, so an [at_exit] hook drains
   them. *)
let pool : Pool.t option ref = ref None

let shutdown () =
  match !pool with
  | Some p ->
    pool := None;
    Pool.shutdown p
  | None -> ()

let () = at_exit shutdown

let get_pool () =
  let want = jobs () in
  match !pool with
  | Some p when Pool.jobs p = want -> p
  | Some _ | None ->
    shutdown ();
    let p = Pool.create ~jobs:want in
    pool := Some p;
    p

let sequential () = jobs () = 1 || Pool.in_worker ()

(* Cumulative stats of the live pool, if any — the runtime sampler turns
   deltas of these into a busy-fraction gauge.  Does not force pool
   creation: a server that has not run a parallel region yet reports
   nothing rather than spawning domains for telemetry's sake. *)
let pool_stats () = Option.map Pool.stats !pool

(* Record the pool-stat delta of one parallel region into the metrics
   registry (observes only; never influences results). *)
let with_region label items f =
  let p = get_pool () in
  Trace.with_span
    ~name:("par." ^ label)
    ~attrs:
      [ ("jobs", string_of_int (Pool.jobs p));
        ("items", string_of_int items) ]
  @@ fun () ->
  let before = Pool.stats p in
  let result = f p in
  let after = Pool.stats p in
  Metrics.incr regions_c;
  Metrics.incr ~by:(after.Pool.tasks_run - before.Pool.tasks_run) tasks_c;
  Metrics.set jobs_g (float_of_int (Pool.jobs p));
  Array.iteri
    (fun i b ->
      let delta = after.Pool.busy_ns.(i) - b in
      if delta > 0 then Metrics.observe busy_ms_h (float_of_int delta /. 1e6))
    before.Pool.busy_ns;
  result

(* Budget checks and the pool-task fault seam wrap every task, on the
   sequential and pooled paths alike, but only when one of them is
   armed — the default path applies [f] untouched.  The ambient budget
   is thread-scoped, so it is captured here on the submitting thread
   and re-installed around each task: worker domains (and a caller
   participating in the batch) check the submitter's budget, never a
   budget installed by a concurrent executor thread. *)
let instrument label f =
  let budget = Budget.current () in
  if Fault.active () || budget <> None then (fun x ->
    match budget with
    | Some b ->
      Budget.with_current b (fun () ->
          Budget.check b;
          Fault.trip Fault.Pool_task ~site:("par." ^ label);
          f x)
    | None ->
      Fault.trip Fault.Pool_task ~site:("par." ^ label);
      f x)
  else f

let parallel_map ?(label = "map") f arr =
  let f = instrument label f in
  if Array.length arr = 0 then [||]
  else if sequential () then Array.map f arr
  else with_region label (Array.length arr) (fun p -> Pool.map p f arr)

(* Label-budget charges are kept per task and replayed in index order,
   so a label trip does not depend on scheduling. *)
let parallel_init ?(label = "init") n f =
  if n < 0 then invalid_arg "Par.parallel_init: negative length";
  Budget.ordered_tasks n f (fun task ->
      parallel_map ~label task (Array.init n Fun.id))

let parallel_map_reduce ?(label = "map_reduce") ~f ~reduce ~init arr =
  (* The reduction is an ordered left fold over the mapped array, so it
     is the same float-operation sequence for every job count. *)
  Array.fold_left reduce init (parallel_map ~label f arr)

let parallel_for ?(label = "for") ?chunk ~n body =
  if n < 0 then invalid_arg "Par.parallel_for: negative length"
  else if n = 0 then ()
  else if sequential () then begin
    if Fault.active () || Budget.current () <> None then begin
      Budget.check_current ();
      Fault.trip Fault.Pool_task ~site:("par." ^ label)
    end;
    for i = 0 to n - 1 do
      body i
    done
  end
  else begin
    let j = jobs () in
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some _ -> invalid_arg "Par.parallel_for: chunk must be >= 1"
      | None ->
        (* ~4 chunks per job bounds load imbalance without flooding the
           queue with tiny tasks. *)
        max 1 ((n + (4 * j) - 1) / (4 * j))
    in
    let num_chunks = (n + chunk - 1) / chunk in
    let ranges =
      Array.init num_chunks (fun c ->
          let lo = c * chunk in
          (lo, min n (lo + chunk)))
    in
    ignore
      (parallel_map ~label
         (fun (lo, hi) ->
           for i = lo to hi - 1 do
             body i
           done)
         ranges)
  end
