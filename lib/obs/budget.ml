module Verrors = Repro_util.Verrors

type t = {
  wall_ms : float option;
  deadline_ns : int64 option;  (* absolute, Clock.now_ns scale *)
  request_deadline_ns : int64 option;
      (* absolute end-to-end request deadline (Clock.now_ns scale);
         trips with Deadline_exceeded, not Budget_exhausted — the
         sender has given up, the work is doomed either way. *)
  max_labels : int option;
  labels : int Atomic.t;
  (* Sticky trip reason: set once by the first failing check; later
     checks re-raise without re-deriving, so a tripped budget cancels
     cooperating workers promptly. *)
  tripped : (string * Verrors.code) option Atomic.t;
  task : task option;  (* [Some] for one task's tally in {!ordered_tasks} *)
}

(* One parallel task's private label tally.  Its charges stay local so
   that the region can replay them in task order; its other limits are
   the parent's. *)
and task = {
  parent : t;
  index : int;
  room : int;  (* labels the parent had left when the region opened *)
  tallies : int Atomic.t array;  (* every task's [labels], by index *)
  mutable charges : int list;  (* local running totals, newest first *)
}

exception Task_stopped

let create ?wall_ms ?deadline_ns ?max_labels () =
  (match wall_ms with
  | Some ms when ms <= 0.0 -> invalid_arg "Budget.create: wall_ms <= 0"
  | _ -> ());
  (match max_labels with
  | Some n when n < 1 -> invalid_arg "Budget.create: max_labels < 1"
  | _ -> ());
  {
    wall_ms;
    deadline_ns =
      Option.map
        (fun ms -> Int64.add (Clock.now_ns ()) (Int64.of_float (ms *. 1e6)))
        wall_ms;
    request_deadline_ns = deadline_ns;
    max_labels;
    labels = Atomic.make 0;
    tripped = Atomic.make None;
    task = None;
  }

let labels_used t = Atomic.get t.labels

let tripped_with t =
  match Atomic.get t.tripped with
  | Some _ as r -> r
  | None ->
    let reason =
      match t.request_deadline_ns with
      | Some d when Clock.now_ns () > d ->
        Some ("request deadline exceeded", Verrors.Deadline_exceeded)
      | _ -> (
        match t.deadline_ns with
        | Some d when Clock.now_ns () > d ->
          Some
            ( Printf.sprintf "wall-clock budget of %.0f ms exhausted"
                (Option.value ~default:0.0 t.wall_ms),
              Verrors.Budget_exhausted )
        | _ -> (
          match t.max_labels with
          | Some cap when Atomic.get t.labels > cap ->
            Some
              ( Printf.sprintf
                  "label budget of %d exhausted (%d labels extended)" cap
                  (Atomic.get t.labels),
                Verrors.Budget_exhausted )
          | _ -> None))
    in
    (match reason with
    | Some (r, _) ->
      (* Flight-record the transition only (CAS: one event per trip even
         when racing domains notice simultaneously) — sticky re-raises
         during cooperative cancellation would flood the ring. *)
      if Atomic.compare_and_set t.tripped None reason then
        Flight.record
          (Flight.Budget_trip { reason = r; labels_used = Atomic.get t.labels })
    | None -> ());
    Atomic.get t.tripped

let exceeded t = Option.map fst (tripped_with t)

let rec check t =
  match t.task with
  | Some k -> check_task t k
  | None -> check_own t

and check_own t =
  match tripped_with t with
  | None -> ()
  | Some (reason, (Verrors.Deadline_exceeded as code)) ->
    Verrors.fail ~code ~stage:"budget"
      ~hints:
        [ "the client stopped waiting; raise deadline_ms or drop it for \
           unbounded requests" ]
      reason
  | Some (reason, code) ->
    Verrors.fail ~code ~stage:"budget"
      ~hints:
        [ "raise --budget-ms / the label budget, or accept the recorded \
           degradation" ]
      reason

(* A task stops once the lower-index tasks' tallies plus its own
   overrun the room the parent had.  Those tallies only grow, so the
   trip is then certain at or before this charge, and every higher task
   stops at its next check too.  At jobs 1 the lower tasks are finished
   and this is exactly where a sequential run trips. *)
and check_task t k =
  check k.parent;
  let used = ref (Atomic.get t.labels) in
  for j = 0 to k.index - 1 do
    used := !used + Atomic.get k.tallies.(j)
  done;
  if !used > k.room then raise Task_stopped

let charge_labels t n =
  if n > 0 then begin
    let total = Atomic.fetch_and_add t.labels n + n in
    match t.task with Some k -> k.charges <- total :: k.charges | None -> ()
  end;
  check t

(* ------------------------------------------------------------------ *)
(* Ambient budget                                                      *)

(* Thread-scoped, not process-wide: the daemon runs several executor
   threads concurrently, and a global slot would leak one request's
   budget into another request's solver checks.  The slot is keyed by
   (domain, thread); {!Repro_par.Par} captures the submitting thread's
   budget at region setup and re-installs it around each pool task, so
   worker domains still observe it.  [installed] counts live
   installations so that with no budget anywhere the ambient check
   stays a single atomic load. *)

let installed = Atomic.make 0
let tls : (int * int, t) Hashtbl.t = Hashtbl.create 16
let tls_mutex = Mutex.create ()
let tls_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current () =
  if Atomic.get installed = 0 then None
  else begin
    let k = tls_key () in
    Mutex.lock tls_mutex;
    let r = Hashtbl.find_opt tls k in
    Mutex.unlock tls_mutex;
    r
  end

let with_current t f =
  let k = tls_key () in
  Mutex.lock tls_mutex;
  let saved = Hashtbl.find_opt tls k in
  Hashtbl.replace tls k t;
  Mutex.unlock tls_mutex;
  Atomic.incr installed;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr installed;
      Mutex.lock tls_mutex;
      (match saved with
      | Some prev -> Hashtbl.replace tls k prev
      | None -> Hashtbl.remove tls k);
      Mutex.unlock tls_mutex)
    f

let check_current () =
  match current () with None -> () | Some t -> check t

let charge_labels_current n =
  match current () with None -> () | Some t -> charge_labels t n

(* ------------------------------------------------------------------ *)
(* Ordered label tallies for parallel tasks                            *)

let ordered_tasks n f fan_out =
  let unwrap =
    Array.map (function Some v -> v | None -> assert false (* tripped *))
  in
  match current () with
  | None | Some { max_labels = None; _ } | Some { task = Some _; _ } ->
    unwrap (fan_out (fun i -> Some (f i)))
  | Some ({ max_labels = Some cap; _ } as owner) ->
    let room = cap - Atomic.get owner.labels in
    let tallies = Array.init n (fun _ -> Atomic.make 0) in
    let tasks =
      Array.init n (fun index ->
          { owner with
            labels = tallies.(index);
            tripped = Atomic.make None;
            task = Some { parent = owner; index; room; tallies; charges = [] } })
    in
    (* Replay every task's charges in task order, as a sequential run
       would have made them, up to the first one past the cap. *)
    let settle () =
      let base = Atomic.get owner.labels in
      let rec replay prefix i =
        if i = n then prefix
        else
          let local =
            match tasks.(i).task with Some k -> List.rev k.charges | None -> []
          in
          match List.find_opt (fun c -> prefix + c > cap) local with
          | Some c -> prefix + c
          | None -> replay (prefix + Atomic.get tallies.(i)) (i + 1)
      in
      ignore (Atomic.fetch_and_add owner.labels (replay base 0 - base))
    in
    let run i =
      match with_current tasks.(i) (fun () -> check tasks.(i); f i) with
      | v -> Some v
      | exception Task_stopped -> None
    in
    let results =
      match fan_out run with
      | results -> settle (); results
      | exception e ->
        (* A fault or wall-clock trip must not lose the labels charged
           so far: the next fallback attempt starts from them. *)
        let bt = Printexc.get_raw_backtrace () in
        settle ();
        Printexc.raise_with_backtrace e bt
    in
    check owner;
    unwrap results
