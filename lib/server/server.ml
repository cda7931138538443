module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Clock = Repro_obs.Clock
module Trace = Repro_obs.Trace
module Metrics = Repro_obs.Metrics
module Prometheus = Repro_obs.Prometheus
module Rolling = Repro_obs.Rolling
module Runtime = Repro_obs.Runtime
module Report = Repro_obs.Report
module Par = Repro_par.Par
module Pool = Repro_par.Pool
module P = Protocol
module Flight = Repro_obs.Flight
module Log = (val Logs.src_log (Repro_obs.Log.src "wavemin.server"))

(* Executor lanes: executor K's request spans group under the synthetic
   Chrome-trace tid [1000 + K] regardless of which system thread runs
   them. *)
let executor_tid_base = 1000

(* ---- metrics ------------------------------------------------------ *)

let requests_c = Metrics.counter "server.requests"
let rejected_c = Metrics.counter "server.rejected"
let errors_c = Metrics.counter "server.errors"
let coalesced_c = Metrics.counter "server.coalesced"
let expired_c = Metrics.counter "server.expired"
let abandoned_c = Metrics.counter "server.abandoned"
let stalled_c = Metrics.counter "server.executor_stalled"
let queue_depth_g = Metrics.gauge "server.queue_depth"
let in_flight_g = Metrics.gauge "server.in_flight"
let latency_h = Metrics.histogram "server.latency_ms"
let queue_wait_h = Metrics.histogram "server.queue_wait_ms"

(* The status table: each way a data-plane request can end, as its
   access-log [status], its [stats] key, its drain-report key and its
   counter ([ok] has none of its own: admissions are [server.requests]).
   The per-server tallies, one per row and bumped only by [finish], feed
   [stats], the drain report and the drain log line. *)
let statuses =
  [| ("ok", "served", "requests_served", None);
     ("rejected", "rejected", "requests_rejected", Some rejected_c);
     ("error", "errors", "request_errors", Some errors_c);
     ("expired", "expired", "requests_expired", Some expired_c);
     ("abandoned", "abandoned", "requests_abandoned", Some abandoned_c) |]

(* ---- addresses ---------------------------------------------------- *)

type address = Unix_path of string | Tcp of { host : string; port : int }

let address_of_string s =
  let tcp spec =
    let of_port p host =
      match int_of_string_opt p with
      | Some port when port > 0 && port < 65536 -> Ok (Tcp { host; port })
      | _ -> Error (Printf.sprintf "invalid TCP port %S" p)
    in
    match String.rindex_opt spec ':' with
    | None -> of_port spec "127.0.0.1"
    | Some i ->
      of_port
        (String.sub spec (i + 1) (String.length spec - i - 1))
        (String.sub spec 0 i)
  in
  if String.length s = 0 then Error "empty address"
  else if String.starts_with ~prefix:"unix:" s then
    Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.starts_with ~prefix:"tcp:" s then
    tcp (String.sub s 4 (String.length s - 4))
  else Ok (Unix_path s)

let address_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let resolve ~stage = function
  | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp { host; port } ->
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          Verrors.fail ~code:Verrors.Io_error ~stage
            (Printf.sprintf "cannot resolve host %s" host)
        | { Unix.h_addr_list; _ } -> h_addr_list.(0))
    in
    (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

(* ---- configuration ------------------------------------------------ *)

type config = {
  address : address;
  queue_capacity : int;
  cache_capacity : int;
  cache_shards : int;
  executors : int;
  report_path : string option;
  access_log_path : string option;
  access_log_max_bytes : int option;
  access_log_keep : int;
  rolling_window_s : float;
  sample_period_s : float option;
  handle_signals : bool;
  readiness : out_channel option;
  flight_dir : string option;
  idle_timeout_s : float option;
  max_line_bytes : int;
  watchdog_period_s : float option;
  stall_after_s : float;
}

let default_config address =
  { address; queue_capacity = 16; cache_capacity = 8; cache_shards = 4;
    executors = 0;
    report_path = Some "BENCH_serve_drain.json"; access_log_path = None;
    access_log_max_bytes = None; access_log_keep = 3;
    rolling_window_s = 60.0; sample_period_s = Some 1.0;
    handle_signals = false; readiness = None; flight_dir = Some ".";
    idle_timeout_s = Some 300.0; max_line_bytes = 1 lsl 20;
    watchdog_period_s = Some 1.0; stall_after_s = 30.0 }

(* ---- state -------------------------------------------------------- *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  mutable open_ : bool;  (* guarded by [wmutex] *)
  pending : int Atomic.t;
      (* data-plane responses this connection is still owed (admitted
         leaders, coalesced followers).  The reader's idle guard only
         runs while this is 0: a client waiting on a queued or slow
         solve is not idling. *)
  mutable last_write_s : float;  (* guarded by [wmutex] *)
}

type item = {
  item_conn : conn;
  item_id : Json.t;
  item_rid : string;  (* server-assigned request/trace id *)
  item_req : P.request;
  item_key : string;  (* single-flight content key ({!P.canonical_key}) *)
  item_deadline_ns : int64 option;
      (* absolute end-to-end deadline, stamped by the reader at parse
         time; queue pop sheds entries already past it *)
  enqueued_s : float;
  enqueued_ns : int64;
}

(* How a data-plane request ended.  [Answered] carries a solve outcome,
   the leader's own or shared with a coalesced follower; no other
   ending executed anything. *)
type status =
  | Answered of (Json.t, Verrors.t * Repro_core.Flow.degradation list) result
  | Invalid of Verrors.t  (* unparseable request line *)
  | Rejected of Verrors.t  (* queue full, draining, or an abusive peer *)
  | Expired of Verrors.t  (* past its deadline before it ran *)
  | Abandoned  (* client gone before it ran: nobody left to answer *)

let status_row = function
  | Answered (Ok _) -> 0
  | Rejected _ -> 1
  | Answered (Error _) | Invalid _ -> 2
  | Expired _ -> 3
  | Abandoned -> 4

(* The one record of a finished request.  The tallies, histograms and
   rolling windows, [last], the access-log line, the black-box dump and
   the response line are all projections of it, written by [finish]. *)
type outcome = {
  rid : string;  (* server-assigned request/trace id *)
  id : Json.t;  (* the client's id, echoed *)
  conn : conn;
  kind : string;
  benchmark : string;
  status : status;
  cache : Session.cache_outcome;
  content_key : string option;
  queue_wait_ms : float;
  wall_ms : float;
}

(* One executor worker: a thread popping the shared bounded queue, with
   its own Chrome-trace lane and per-worker counters.  [ex_busy_ns] has
   a single writer (the worker itself); [ex_rid] is the request id being
   executed, [""] when the worker is idle blocking in pop. *)
type executor = {
  ex_id : int;
  ex_tid : int;  (* executor_tid_base + ex_id *)
  ex_requests : int Atomic.t;  (* responses written, followers included *)
  ex_busy_ns : int Atomic.t;
  ex_rid : string Atomic.t;
  (* Watchdog state, written by the worker at request start/end and read
     by the watchdog thread: the absolute time past which the request in
     flight counts as stalled (0L when idle / no limit), and the last
     rid already reported — one stall event per wedged request, not one
     per watchdog tick. *)
  ex_stall_ns : int64 Atomic.t;
  ex_stall_reported : string Atomic.t;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  queue : item Bqueue.t;
  session : Session.t;
  executors : executor array;
  sflight : item Sflight.t;
  coalesced : int Atomic.t;
  accepting : bool Atomic.t;
  conns : (int, conn * Thread.t) Hashtbl.t;
  conns_mutex : Mutex.t;
  next_cid : int Atomic.t;
  next_rid : int Atomic.t;
  started_s : float;
  started_cpu_s : float;
  tallies : int Atomic.t array;  (* one per [statuses] row *)
  stalls : int Atomic.t;  (* watchdog stall episodes *)
  in_flight : int Atomic.t;
  rolling_latency : Rolling.t;  (* total ms, enqueue to response written *)
  rolling_queue_wait : Rolling.t;  (* ms *)
  access : Access_log.t option;
  overload_dumped : bool Atomic.t;  (* one black-box dump per overload episode *)
  last : Json.t Atomic.t;  (* last completed data-plane request, or Null *)
  mutable sampler : Runtime.sampler option;
  mutable pool_prev : (float * int) option;  (* sampler-thread only *)
  mutable acceptor : Thread.t option;
  watchdog_stop : bool Atomic.t;
  mutable watchdog : Thread.t option;
}

let with_lock = Mutex.protect

let draining t = not (Atomic.get t.accepting)

(* (key, tally) per status row, named by [stats] or by the drain report. *)
let tallies t ~report =
  Array.to_list
    (Array.mapi
       (fun i (_, stats_key, report_key, _) ->
         ((if report then report_key else stats_key), Atomic.get t.tallies.(i)))
       statuses)

let initiate_drain t =
  if Atomic.compare_and_set t.accepting true false then begin
    Log.info (fun m -> m "drain initiated: finishing %d queued request(s)"
                 (Bqueue.length t.queue));
    Bqueue.close t.queue
  end

(* ---- connection writes -------------------------------------------- *)

(* One whole line per lock hold, so responses from the executor and
   control-plane responses from the reader thread never interleave
   mid-line.  A failed write marks the connection dead and shuts it
   down, waking the reader. *)
let write_json conn json =
  with_lock conn.wmutex (fun () ->
      if conn.open_ then
        try
          write_all conn.fd (P.line json);
          (* A response write is activity for the idle guard: the peer
             gets a full idle window to follow up after a long solve. *)
          conn.last_write_s <- Clock.now_s ()
        with Unix.Unix_error _ | Sys_error _ ->
          conn.open_ <- false;
          (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ()))

let overloaded_error ~stage ?subject message ~hints =
  Verrors.make ~code:Verrors.Overloaded ~stage ?subject message ~hints

(* ---- control plane ------------------------------------------------ *)

let health_json t =
  Json.Obj
    [ ("status", Json.Str (if draining t then "draining" else "serving"));
      ("queue_depth", Json.Num (float_of_int (Bqueue.length t.queue)));
      ("queue_capacity", Json.Num (float_of_int (Bqueue.capacity t.queue)));
      ("in_flight", Json.Num (float_of_int (Atomic.get t.in_flight)));
      ("executors", Json.Num (float_of_int (Array.length t.executors)));
      ("jobs", Json.Num (float_of_int (Par.jobs ()))) ]

(* [Metrics.histogram_stats_fields] without [sum] and [buckets]: finite
   JSON even for a histogram fed only non-finite samples. *)
let histogram_json h =
  let s = Metrics.histogram_stats h in
  Json.Obj
    (List.filter
       (fun (k, _) -> k <> "sum" && k <> "buckets")
       (Metrics.histogram_stats_fields s)
    @
    if s.Metrics.count = 0 then []
    else
      [ ("p50", Json.Num (Metrics.quantile h 0.5));
        ("p90", Json.Num (Metrics.quantile h 0.9)) ])

let busy_frac ~uptime_s ex =
  if uptime_s <= 0.0 then 0.0
  else
    Float.min 1.0 (float_of_int (Atomic.get ex.ex_busy_ns) /. (uptime_s *. 1e9))

(* Per-executor state for [stats] / `wavemin top`: lifetime busy
   fraction, responses written (followers included), and the request id
   currently executing (null when idle). *)
let executor_json ~uptime_s ex =
  Json.Obj
    [ ("id", Json.Num (float_of_int ex.ex_id));
      ("requests", Json.Num (float_of_int (Atomic.get ex.ex_requests)));
      ("busy_frac", Json.Num (busy_frac ~uptime_s ex));
      ( "rid",
        match Atomic.get ex.ex_rid with "" -> Json.Null | r -> Json.Str r ) ]

let stats_json t =
  let cache = Session.stats t.session in
  let uptime_s = Clock.now_s () -. t.started_s in
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    ([ ("status", Json.Str (if draining t then "draining" else "serving"));
       ("uptime_s", Json.Num uptime_s) ]
    @ List.map (fun (k, n) -> (k, num n)) (tallies t ~report:false)
    @ [ ("stalled", num (Atomic.get t.stalls));
        ("coalesced", num (Atomic.get t.coalesced));
        ("in_flight", num (Atomic.get t.in_flight));
        ("jobs", num (Par.jobs ()));
        ( "executors",
          Json.List
            (Array.to_list (Array.map (executor_json ~uptime_s) t.executors)) );
        ( "queue",
          Json.Obj
            [ ("depth", num (Bqueue.length t.queue));
              ("capacity", num (Bqueue.capacity t.queue)) ] );
        ( "cache",
          Json.Obj
            [ ("entries", num (List.length cache.Session.entries));
              ("capacity", num cache.Session.capacity);
              ("shards", num cache.Session.shards);
              ("hits", num cache.Session.hits);
              ("misses", num cache.Session.misses);
              ("evictions", num cache.Session.evictions);
              ( "warm",
                Json.Obj
                  [ ("entries", num cache.Session.warm_entries);
                    ("hits", num cache.Session.warm_hits);
                    ("stores", num cache.Session.warm_stores) ] );
              ( "keys",
                Json.List (List.map (fun k -> Json.Str k) cache.Session.entries)
              ) ] );
        ("latency_ms", histogram_json latency_h);
        ( "rolling",
          Json.Obj
            [ ("window_s", Json.Num (Rolling.window_seconds t.rolling_latency));
              ( "latency_ms",
                Rolling.stats_json (Rolling.stats t.rolling_latency) );
              ( "queue_wait_ms",
                Rolling.stats_json (Rolling.stats t.rolling_queue_wait) ) ] );
        ("last", Atomic.get t.last) ])

let metrics_json fmt =
  match fmt with
  | P.Text ->
    Json.Obj
      [ ("format", Json.Str "prometheus");
        ("body", Json.Str (Prometheus.expose ())) ]
  | P.Json_snapshot ->
    Json.Obj [ ("format", Json.Str "json"); ("metrics", Metrics.to_json ()) ]

let handle_control t conn id = function
  | P.Health -> write_json conn (P.ok_response ~id (health_json t))
  | P.Stats -> write_json conn (P.ok_response ~id (stats_json t))
  | P.Metrics fmt -> write_json conn (P.ok_response ~id (metrics_json fmt))
  | P.Flight ->
    (* Live snapshot of the flight ring — same document the black-box
       dump files carry, so `wavemin explain` renders both. *)
    write_json conn (P.ok_response ~id (Repro_obs.Flight.to_json ()))
  | P.Shutdown ->
    (* Drain first, ack second: once the client reads the ack,
       [draining] is observably true. *)
    initiate_drain t;
    write_json conn
      (P.ok_response ~id (Json.Obj [ ("draining", Json.Bool true) ]))
  | P.Run _ | P.Compare _ | P.Validate _ | P.Montecarlo _ -> assert false

let benchmark_of = function
  | P.Run { opts; _ } | P.Compare opts | P.Montecarlo { opts; _ } ->
    opts.P.benchmark
  | P.Validate { opts; all } -> if all then "*" else opts.P.benchmark
  | P.Stats | P.Metrics _ | P.Health | P.Flight | P.Shutdown -> ""

(* ---- flight dumps -------------------------------------------------- *)

(* Black-box style: when a request degrades, errors or is shed under
   overload, the flight ring is serialized to [<dir>/<rid>.flight.json]
   — the post-mortem `wavemin explain` consumes.  Best-effort by
   contract (a full disk must not take the request path down). *)
let dump_flight t ~rid ~why =
  match t.cfg.flight_dir with
  | None -> ()
  | Some dir -> (
    let path = Filename.concat dir (rid ^ ".flight.json") in
    match Repro_obs.Flight.write path with
    | Ok () ->
      Log.info (fun m -> m "flight dump (%s) written to %s" why path)
    | Error msg ->
      Log.warn (fun m -> m "cannot write flight dump %s: %s" path msg))

let fresh_rid t = Printf.sprintf "r%06d" (Atomic.fetch_and_add t.next_rid 1)

(* ---- request outcomes ---------------------------------------------- *)

let ended ~rid ~id conn ~kind ~benchmark status =
  { rid; id; conn; kind; benchmark; status; cache = Session.No_lookup;
    content_key = None; queue_wait_ms = 0.0; wall_ms = 0.0 }

let item_ended item status =
  ended ~rid:item.item_rid ~id:item.item_id item.item_conn
    ~kind:(P.request_kind item.item_req)
    ~benchmark:(benchmark_of item.item_req) status

(* One JSONL line per data-plane request (rejections and parse failures
   included) — the replayable record of a request's journey.  Strictly
   out-of-band: never read back by anything on the request path. *)
let access_fields o =
  let status, _, _, _ = statuses.(status_row o.status) in
  [ ("ts", Json.Num (Unix.gettimeofday ()));
    ("rid", Json.Str o.rid);
    ("id", o.id);
    ("conn", Json.Num (float_of_int o.conn.cid));
    ("type", Json.Str o.kind);
    ("benchmark", Json.Str o.benchmark);
    ("status", Json.Str status) ]
  @ (match o.status with
    | Answered (Ok _) | Abandoned -> []
    | Answered (Error (e, _)) | Invalid e | Rejected e | Expired e ->
      [ ("code", Json.Str (Verrors.code_name e.Verrors.code)) ])
  @ [ ("cache", Json.Str (Session.cache_outcome_name o.cache));
      ( "content_hash",
        match o.content_key with None -> Json.Null | Some k -> Json.Str k );
      ( "degradations",
        Json.List
          (match o.status with
          | Answered (Error (_, degs)) ->
            List.map
              (fun (d : Repro_core.Flow.degradation) ->
                Json.Str (Verrors.code_name d.error.Verrors.code))
              degs
          | _ -> []) );
      ("queue_wait_ms", Json.Num o.queue_wait_ms);
      ("wall_ms", Json.Num o.wall_ms);
      ("total_ms", Json.Num (o.queue_wait_ms +. o.wall_ms)) ]

(* The [last] block of [stats] projects the same fields, for
   `wavemin client --time` to correlate by id. *)
let last_keys =
  [ "id"; "rid"; "type"; "benchmark"; "status"; "cache"; "queue_wait_ms";
    "wall_ms" ]

let response o =
  match o.status with
  | Answered (Ok body) -> Some (P.ok_response ~id:o.id body)
  | Answered (Error (e, degs)) ->
    Some
      (P.error_response ~id:o.id
         ~degradations:(List.map Handlers.degradation_json degs)
         e)
  | Invalid e | Rejected e | Expired e -> Some (P.error_response ~id:o.id e)
  | Abandoned -> None

(* The only bookkeeping a request outcome gets, all of it done before
   the response line leaves: a client that has its answer sees itself
   in [stats] (and in [last]).  Executed requests feed the latency
   windows and [last]; a leader that failed or degraded leaves a
   black-box dump (followers share the very same solve). *)
let finish t o =
  let row = status_row o.status in
  let _, _, _, counter = statuses.(row) in
  Atomic.incr t.tallies.(row);
  Option.iter Metrics.incr counter;
  if o.cache = Session.Coalesced then begin
    Atomic.incr t.coalesced;
    Metrics.incr coalesced_c
  end;
  let fields = access_fields o in
  (match o.status with
  | Answered _ ->
    let total_ms = o.queue_wait_ms +. o.wall_ms in
    Metrics.observe latency_h total_ms;
    Rolling.observe t.rolling_latency total_ms;
    Metrics.observe queue_wait_h o.queue_wait_ms;
    Rolling.observe t.rolling_queue_wait o.queue_wait_ms;
    Atomic.set t.last
      (Json.Obj (List.map (fun k -> (k, List.assoc k fields)) last_keys))
  | Expired _ ->
    Flight.record
      (Flight.Note
         { name = "request-expired";
           attrs =
             [ ("rid", o.rid); ("type", o.kind);
               ("queued_ms", Printf.sprintf "%.0f" o.queue_wait_ms) ] })
  | Invalid _ | Rejected _ | Abandoned -> ());
  Option.iter (fun a -> Access_log.write a (Json.Obj fields)) t.access;
  (if o.cache <> Session.Coalesced then
     match o.status with
     | Answered (Error (e, _)) ->
       Log.warn (fun m ->
           m "%s %s failed: %s" o.kind o.benchmark
             (Verrors.code_name e.Verrors.code));
       dump_flight t ~rid:o.rid ~why:"faulted request"
     | Answered (Ok body) -> (
       match Json.member "degradations" body with
       | Some (Json.List (_ :: _)) ->
         dump_flight t ~rid:o.rid ~why:"degraded request"
       | _ -> ())
     | _ -> ());
  Option.iter (write_json o.conn) (response o)

(* ---- data plane: admission ---------------------------------------- *)

let reject t conn ~rid id req err =
  finish t
    (ended ~rid ~id conn ~kind:(P.request_kind req)
       ~benchmark:(benchmark_of req) (Rejected err))

let draining_error req =
  overloaded_error ~stage:"server.queue" ~subject:(P.request_kind req)
    "server is draining: no new work is accepted" ~hints:[]

(* Single-flight admission, decided on the reader thread: the first
   arrival for a content key takes a queue slot and becomes the leader;
   duplicates arriving while that flight is open attach as followers —
   no queue slot, no recomputation — and are answered by the leader's
   executor with their own request ids.  Works at any executor count
   (including 1) because joining happens before the queue, not at pop
   time. *)
let admit t conn ~rid ~deadline_ns id req =
  let key = P.canonical_key req in
  let item =
    { item_conn = conn; item_id = id; item_rid = rid; item_req = req;
      item_key = key; item_deadline_ns = deadline_ns;
      enqueued_s = Clock.now_s ();
      enqueued_ns = Clock.now_ns () }
  in
  let enqueue () =
    match Bqueue.push t.queue item with
    | `Ok -> Ok ()
    | (`Full | `Closed) as refusal -> Error refusal
  in
  (* Owed before admission, repaid when the response (or shed error) is
     written: incrementing first means the executor can never settle an
     item the reader has not yet counted. *)
  Atomic.incr conn.pending;
  match Sflight.admit t.sflight ~key item ~enqueue with
  | (`Led () | `Joined) as admitted ->
    Atomic.set t.overload_dumped false;
    Metrics.incr requests_c;
    Metrics.set queue_depth_g (float_of_int (Bqueue.length t.queue));
    if admitted = `Joined then
      Session.record t.session Session.Single_flight Session.Coalesced ~key
  | `Refused `Full ->
    Atomic.decr conn.pending;
    reject t conn ~rid id req
      (overloaded_error ~stage:"server.queue" ~subject:(P.request_kind req)
         (Printf.sprintf "request queue full (%d/%d): request rejected"
            (Bqueue.capacity t.queue) (Bqueue.capacity t.queue))
         ~hints:
           [ "retry with backoff";
             "raise the bound with `wavemin serve --queue N'" ]);
    (* One dump per overload episode: a flood would otherwise write one
       file per shed request; the flag re-arms when admission succeeds. *)
    if Atomic.compare_and_set t.overload_dumped false true then
      dump_flight t ~rid ~why:"overloaded"
  | `Refused `Closed ->
    Atomic.decr conn.pending;
    reject t conn ~rid id req (draining_error req)

let handle_line t conn line =
  let { P.id; deadline_ms; payload } = P.parse_request line in
  (* The absolute deadline is stamped here, at parse time: queue wait,
     execution and response writing all count against it. *)
  let deadline_ns =
    Option.map
      (fun ms -> Int64.add (Clock.now_ns ()) (Int64.of_float (ms *. 1e6)))
      deadline_ms
  in
  match payload with
  | Error e ->
    finish t
      (ended ~rid:(fresh_rid t) ~id conn ~kind:"invalid" ~benchmark:""
         (Invalid e))
  | Ok req ->
    if P.is_control req then handle_control t conn id req
    else
      let rid = fresh_rid t in
      if draining t then reject t conn ~rid id req (draining_error req)
      else admit t conn ~rid ~deadline_ns id req

(* ---- connections -------------------------------------------------- *)

let unregister t cid = with_lock t.conns_mutex (fun () -> Hashtbl.remove t.conns cid)

(* Structured rejection for a misbehaving peer (oversized request line,
   slowloris dribble): one error line on the wire, one access-log entry,
   then the caller closes the connection.  The peer may never read the
   response — that is its problem, not a parked reader thread's. *)
let reject_peer t conn ~kind err =
  finish t
    (ended ~rid:(fresh_rid t) ~id:Json.Null conn ~kind ~benchmark:""
       (Rejected err))

(* The connection reader: a bounded buffer fed by [Unix.read] under a
   [select] poll — never an unbounded [Buffer], never a read the drain
   cannot interrupt.  Caps and timeouts:

   - a line longer than [max_line_bytes] gets a structured
     [parse-error] rejection and the connection is closed (an attacker
     streaming an endless line previously grew a channel buffer without
     bound);
   - no complete line for [idle_timeout_s] — idle peer or slowloris
     dribble alike — gets a structured [io-error] rejection and the
     close (a byte-at-a-time sender previously parked this thread
     forever).  A connection still owed responses is exempt: waiting
     on a queued or slow solve is not idling;
   - EOF (client disconnect) exits quietly; queued work from this
     connection is detected dead at pop time and marked abandoned. *)
let conn_loop t conn =
  let max_line = max 1024 t.cfg.max_line_bytes in
  let chunk = Bytes.create 8192 in
  let acc = Buffer.create 256 in
  let last_line_s = ref (Clock.now_s ()) in
  let state = ref `Reading in
  let handle_buffered () =
    (* Split out every complete line; keep the unterminated tail (empty
       when the last byte was '\n').  A tail alone past the cap is
       already oversized — no need to wait for its newline. *)
    let s = Buffer.contents acc in
    let len = String.length s in
    let pos = ref 0 in
    let scanning = ref true in
    while !scanning && !state = `Reading do
      match String.index_from_opt s !pos '\n' with
      | Some nl ->
        let line = String.sub s !pos (nl - !pos) in
        last_line_s := Clock.now_s ();
        if String.trim line <> "" then handle_line t conn line;
        pos := nl + 1
      | None -> scanning := false
    done;
    Buffer.clear acc;
    if !state = `Reading && !pos < len then begin
      Buffer.add_substring acc s !pos (len - !pos);
      if Buffer.length acc > max_line then state := `Oversized
    end
  in
  let rec loop () =
    match !state with
    | `Oversized | `Timed_out | `Eof -> ()
    | `Reading ->
      let idle_left =
        match t.cfg.idle_timeout_s with
        | None -> infinity
        | Some limit ->
          (* A connection still owed responses is waiting on us, not
             idling: the clock is held at a full window while work is
             pending, and response writes count as activity, so a peer
             that queued a slow solve is never cut off mid-wait. *)
          if Atomic.get conn.pending > 0 then limit
          else
            let last_write =
              with_lock conn.wmutex (fun () -> conn.last_write_s)
            in
            limit -. (Clock.now_s () -. Float.max !last_line_s last_write)
      in
      if idle_left <= 0.0 then state := `Timed_out
      else begin
        (* Short poll slices keep drain prompt even against a silent
           peer; the idle budget spans slices via [last_line_s]. *)
        let tick = Float.min 0.25 idle_left in
        (match Unix.select [ conn.fd ] [] [] tick with
        | [], _, _ -> ()
        | _ :: _, _, _ -> (
          match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
          | 0 -> state := `Eof
          | n ->
            Buffer.add_subbytes acc chunk 0 n;
            handle_buffered ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            -> ()
          | exception (Unix.Unix_error _ | Sys_error _) -> state := `Eof)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ -> state := `Eof);
        if with_lock conn.wmutex (fun () -> not conn.open_) then state := `Eof;
        loop ()
      end
  in
  loop ();
  (match !state with
  | `Oversized ->
    reject_peer t conn ~kind:"oversized"
      (Verrors.make ~code:Verrors.Parse_error ~stage:"server.read"
         ~subject:"request-line"
         (Printf.sprintf
            "request line exceeds %d bytes: connection closed" max_line)
         ~hints:[ "split work into separate requests";
                  "raise the cap with `wavemin serve --max-line BYTES'" ])
  | `Timed_out ->
    reject_peer t conn ~kind:"idle"
      (Verrors.make ~code:Verrors.Io_error ~stage:"server.read"
         ~subject:"idle-timeout"
         (Printf.sprintf
            "no complete request line in %.0f s: connection closed"
            (Option.value ~default:0.0 t.cfg.idle_timeout_s))
         ~hints:[ "send each request as one newline-terminated line" ])
  | `Eof | `Reading -> ());
  with_lock conn.wmutex (fun () ->
      if conn.open_ then begin
        conn.open_ <- false;
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
      end);
  (* The reader is the only closer, so the descriptor is closed exactly
     once and never while another thread could still write to it (writes
     check [open_] under [wmutex]). *)
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  unregister t conn.cid

let spawn_conn t fd =
  let cid = Atomic.fetch_and_add t.next_cid 1 in
  let conn =
    { cid; fd; wmutex = Mutex.create (); open_ = true;
      pending = Atomic.make 0; last_write_s = 0.0 }
  in
  with_lock t.conns_mutex (fun () ->
      let thread = Thread.create (fun () -> conn_loop t conn) () in
      Hashtbl.replace t.conns cid (conn, thread))

(* Poll-based accept so drain needs no blocked-syscall tricks: the loop
   re-checks [accepting] at least every 250 ms. *)
let accept_loop t =
  let rec loop () =
    if Atomic.get t.accepting then begin
      (match Unix.select [ t.listener ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listener with
        | fd, _ ->
          if Atomic.get t.accepting then spawn_conn t fd
          else ( try Unix.close fd with Unix.Unix_error _ -> ())
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
          -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        Atomic.set t.accepting false);
      loop ()
    end
  in
  loop ()

(* ---- executors ---------------------------------------------------- *)

(* The admitted item's response (or shed error) is on the wire — or its
   client is gone.  Either way its connection is owed one response
   fewer, re-arming the reader's idle guard once nothing is pending. *)
let settle item = Atomic.decr item.item_conn.pending

(* Answer one coalesced follower with the leader's (deterministic)
   result under the follower's own request id, with a retroactive
   [server.coalesced] span covering its whole wait on the leader's
   executor lane. *)
let respond_follower t ex ~leader_rid ~result ~content_key ~exec_started_s f =
  let o = item_ended f (Answered result) in
  let queue_wait_ms =
    Float.max 0.0 ((exec_started_s -. f.enqueued_s) *. 1000.0)
  in
  let total_ms = Float.max 0.0 ((Clock.now_s () -. f.enqueued_s) *. 1000.0) in
  Trace.record ~name:"server.coalesced"
    ~attrs:
      [ ("request_id", o.rid); ("leader_rid", leader_rid); ("type", o.kind);
        ("benchmark", o.benchmark) ]
    ~tid:ex.ex_tid ~start_ns:f.enqueued_ns
    ~dur_ns:(Int64.sub (Clock.now_ns ()) f.enqueued_ns)
    ();
  finish t
    { o with cache = Session.Coalesced; content_key; queue_wait_ms;
      wall_ms = Float.max 0.0 (total_ms -. queue_wait_ms) };
  settle f

let opts_of = function
  | P.Run { opts; _ } | P.Compare opts | P.Validate { opts; _ }
  | P.Montecarlo { opts; _ } -> Some opts
  | P.Stats | P.Metrics _ | P.Health | P.Flight | P.Shutdown -> None

(* How long a request may run before the watchdog calls it stalled: a
   budgeted or deadlined request gets [stall_factor] × its tighter
   limit (a solve that cooperatively cancels never gets near that); an
   unbounded one gets the flat configured ceiling. *)
let stall_factor = 4.0

let stall_limit_ns t item ~now =
  let budget_s =
    match opts_of item.item_req with
    | Some o -> Option.map (fun ms -> ms /. 1000.0) o.P.budget_ms
    | None -> None
  in
  let deadline_s =
    Option.map
      (fun d -> Float.max 0.0 (Int64.to_float (Int64.sub d now) /. 1e9))
      item.item_deadline_ns
  in
  let tighter =
    match (budget_s, deadline_s) with
    | Some b, Some d -> Some (Float.min b d)
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None
  in
  let limit_s =
    match tighter with
    | Some s -> Float.max 0.05 (stall_factor *. s)
    | None -> t.cfg.stall_after_s
  in
  Int64.add now (Int64.of_float (limit_s *. 1e9))

(* [claimed]: followers already detached from the flight by [dispatch]
   (the original leader was shed and this item promoted); the flight no
   longer exists, so the mid-execution [Sflight.complete] must not run
   — a duplicate arriving meanwhile opens a fresh flight, which is
   harmless because responses are deterministic. *)
let process ?claimed t ex item =
  let kind = P.request_kind item.item_req in
  let benchmark = benchmark_of item.item_req in
  let rid = item.item_rid in
  let attrs = [ ("request_id", rid); ("type", kind); ("benchmark", benchmark) ] in
  Atomic.incr t.in_flight;
  Metrics.set in_flight_g (float_of_int (Atomic.get t.in_flight));
  Metrics.set queue_depth_g (float_of_int (Bqueue.length t.queue));
  Atomic.set ex.ex_stall_ns (stall_limit_ns t item ~now:(Clock.now_ns ()));
  let started_s = Clock.now_s () in
  let queue_wait_ms = (started_s -. item.enqueued_s) *. 1000.0 in
  (* Retroactive queue-wait span: enqueue was its start, pop its end. *)
  Trace.record ~name:"server.queue" ~attrs ~tid:ex.ex_tid
    ~start_ns:item.enqueued_ns
    ~dur_ns:(Int64.sub (Clock.now_ns ()) item.enqueued_ns)
    ();
  let meta = Handlers.create_meta () in
  Trace.with_span ~name:"server.request" ~attrs ~tid:ex.ex_tid (fun () ->
      let result =
        Trace.with_span ~name:"server.execute" ~attrs:[ ("request_id", rid) ]
          ~tid:ex.ex_tid (fun () ->
            (* Handlers never raise by contract; the guard is the
               last-ditch net that keeps the daemon alive if one does. *)
            match
              Verrors.guard ~stage:"server.request" (fun () ->
                  Handlers.execute ~meta ?deadline_ns:item.item_deadline_ns
                    t.session item.item_req)
            with
            | Ok result -> result
            | Error e -> Error (e, []))
      in
      let wall_ms = (Clock.now_s () -. started_s) *. 1000.0 in
      (* Close the flight before any response is written: a duplicate
         arriving after this point opens a fresh flight (so a failure is
         never memoized), and none can attach to a flight whose
         responses are already on the wire. *)
      let followers =
        match claimed with
        | Some fs -> fs
        | None -> Sflight.complete t.sflight ~key:item.item_key
      in
      Trace.with_span ~name:"server.respond" ~attrs:[ ("request_id", rid) ]
        ~tid:ex.ex_tid (fun () ->
          finish t
            { (item_ended item (Answered result)) with
              cache = meta.Handlers.cache;
              content_key = meta.Handlers.content_key;
              queue_wait_ms;
              wall_ms });
      settle item;
      List.iter
        (respond_follower t ex ~leader_rid:rid ~result
           ~content_key:meta.Handlers.content_key ~exec_started_s:started_s)
        followers;
      ignore
        (Atomic.fetch_and_add ex.ex_requests (1 + List.length followers)));
  Atomic.decr t.in_flight;
  Metrics.set in_flight_g (float_of_int (Atomic.get t.in_flight))

(* ---- shed work: expired and abandoned entries --------------------- *)

(* Answer one flight member that will never execute.  An expired entry
   owes its (still-listening) client a structured [deadline-exceeded]
   line; an abandoned one has nobody left to write to and is only
   accounted.  Either way the solve was skipped: no cache mutation, no
   solve span — the property tests pin exactly that. *)
let shed t item ~abandoned =
  let kind = P.request_kind item.item_req in
  let waited_ms =
    Float.max 0.0 ((Clock.now_s () -. item.enqueued_s) *. 1000.0)
  in
  let status =
    if abandoned then Abandoned
    else
      Expired
        (Verrors.make ~code:Verrors.Deadline_exceeded ~stage:"server.queue"
           ~subject:kind
           (Printf.sprintf
              "deadline exceeded after %.0f ms in queue: request was not \
               executed"
              waited_ms)
           ~hints:
             [ "raise deadline_ms, or drop it for best-effort requests";
               "shrink queueing with `wavemin serve --executors N'" ])
  in
  finish t { (item_ended item status) with queue_wait_ms = waited_ms };
  settle item

(* A popped leader can be dead on arrival: expired in the window
   between the pop-time sweep and here, or its client already gone.
   Claim the whole flight atomically, then triage per member — any live
   member still wants the (shared, deterministic) answer, so the solve
   proceeds with the first live member promoted to leader; with no live
   member left the solve is skipped entirely. *)
let item_expired it =
  match it.item_deadline_ns with
  | Some d -> Int64.compare (Clock.now_ns ()) d > 0
  | None -> false

let dispatch t ex item =
  let item_abandoned it =
    with_lock it.item_conn.wmutex (fun () -> not it.item_conn.open_)
  in
  if not (item_expired item || item_abandoned item) then process t ex item
  else begin
    let followers = Sflight.complete t.sflight ~key:item.item_key in
    let live, gone =
      List.partition
        (fun it -> not (item_expired it) && not (item_abandoned it))
        (item :: followers)
    in
    List.iter (fun it -> shed t it ~abandoned:(item_abandoned it)) gone;
    match live with
    | [] -> ()
    | leader :: claimed -> process t ex leader ~claimed
  end

(* ---- lifecycle ---------------------------------------------------- *)

let io_fail stage msg =
  Verrors.fail ~code:Verrors.Io_error ~stage msg

let listen_on address ~what =
  let domain, sockaddr = resolve ~stage:"server.bind" address in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  try
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sockaddr;
    Unix.listen fd 64;
    fd
  with Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    io_fail "server.bind"
      (Printf.sprintf "cannot bind %s: %s" what (Unix.error_message err))

let bind_listener address =
  match address with
  | Unix_path path ->
    if String.length path >= 104 then
      io_fail "server.bind"
        (Printf.sprintf "socket path too long (%d chars): %s"
           (String.length path) path);
    (* Stale-socket recovery: a SIGKILLed daemon leaves its socket file
       behind.  Probe before evicting — only a socket nobody answers is
       stale; a live daemon (or any non-socket file) must be refused,
       never unlinked out from under its owner. *)
    (match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK -> (
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let verdict =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> `Live
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          -> `Stale
        | exception Unix.Unix_error (err, _, _) -> `Unknown err
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      match verdict with
      | `Live ->
        io_fail "server.bind"
          (Printf.sprintf
             "%s: a live daemon already answers on this socket; refusing to \
              evict it"
             path)
      | `Stale ->
        Log.info (fun m -> m "removing stale socket %s (nobody answers)" path);
        (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | `Unknown err ->
        io_fail "server.bind"
          (Printf.sprintf "%s exists and cannot be probed (%s): not evicting"
             path (Unix.error_message err)))
    | _ ->
      io_fail "server.bind"
        (Printf.sprintf "%s exists and is not a socket: not evicting" path)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    | exception (Unix.Unix_error _ | Sys_error _) -> ());
    listen_on address ~what:path
  | Tcp { host; port } ->
    listen_on address ~what:(Printf.sprintf "%s:%d" host port)

(* SIGTERM/SIGINT → one byte down a self-pipe → a watcher thread runs
   the drain.  The handler itself takes no locks (it may interrupt code
   holding any of them). *)
let install_signal_handlers t =
  let r, w = Unix.pipe ~cloexec:true () in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let buf = Bytes.create 1 in
        (match Unix.read r buf 0 1 with
        | _ -> ()
        | exception (Unix.Unix_error _ | Sys_error _) -> ());
        Log.info (fun m -> m "signal received: draining");
        initiate_drain t)
      ()
  in
  let byte = Bytes.make 1 '!' in
  let handler =
    Sys.Signal_handle
      (fun _ ->
        try ignore (Unix.write w byte 0 1) with Unix.Unix_error _ -> ())
  in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

(* ---- runtime sampler ---------------------------------------------- *)

(* Extra gauges recorded by the periodic [Obs.Runtime] sampler: queue
   and executor state, the rolling percentiles (mirrored as gauges so a
   Prometheus scrape sees them), and the domain-pool busy fraction over
   the last sampling interval.  Runs on the sampler thread only. *)
let sampler_probe t () =
  let lat = Rolling.stats t.rolling_latency in
  let pool =
    match Par.pool_stats () with
    | None -> []
    | Some s ->
      let now = Clock.now_s () in
      let busy = Array.fold_left ( + ) 0 s.Pool.busy_ns in
      let frac =
        match t.pool_prev with
        | Some (t0, b0) when now > t0 ->
          let dt_ns = (now -. t0) *. 1e9 in
          Float.max 0.0
            (Float.min 1.0
               (float_of_int (busy - b0) /. (dt_ns *. float_of_int s.Pool.jobs)))
        | _ -> 0.0
      in
      t.pool_prev <- Some (now, busy);
      [ ("par.pool_busy_frac", frac) ]
  in
  let uptime_s = Clock.now_s () -. t.started_s in
  let per_executor =
    Array.to_list t.executors
    |> List.concat_map (fun ex ->
           [ ( Printf.sprintf "server.executor%d_busy_frac" ex.ex_id,
               busy_frac ~uptime_s ex );
             ( Printf.sprintf "server.executor%d_requests" ex.ex_id,
               float_of_int (Atomic.get ex.ex_requests) ) ])
  in
  [ ("server.queue_depth", float_of_int (Bqueue.length t.queue));
    ("server.in_flight", float_of_int (Atomic.get t.in_flight));
    ("server.rolling_latency_p50_ms", lat.Rolling.p50);
    ("server.rolling_latency_p95_ms", lat.Rolling.p95);
    ("server.rolling_latency_p99_ms", lat.Rolling.p99);
    ("server.rolling_throughput_rps", lat.Rolling.rate) ]
  @ per_executor @ pool

let flush_report t =
  match t.cfg.report_path with
  | None -> ()
  | Some path -> (
    let cache = Session.stats t.session in
    let builder =
      Report.create ~experiment:"serve-drain"
        ~config:
          [ ("queue_capacity", string_of_int t.cfg.queue_capacity);
            ("cache_capacity", string_of_int t.cfg.cache_capacity);
            ("cache_shards", string_of_int cache.Session.shards);
            ("executors", string_of_int (Array.length t.executors)) ]
        ~environment:
          ([ ("jobs", string_of_int (Par.jobs ()));
             ("address", address_to_string t.cfg.address);
             ( "uptime_s",
               Json.float_to_string (Clock.now_s () -. t.started_s) ) ]
          @ List.map
              (fun (k, n) -> (k, string_of_int n))
              (tallies t ~report:true)
          @ [ ("requests_coalesced", string_of_int (Atomic.get t.coalesced));
              ("executor_stalls", string_of_int (Atomic.get t.stalls));
              ("cache_hits", string_of_int cache.Session.hits);
              ("cache_misses", string_of_int cache.Session.misses);
              ("cache_evictions", string_of_int cache.Session.evictions) ])
        ()
    in
    Report.add_stage builder ~stage:"serve"
      ~wall_s:(Clock.now_s () -. t.started_s)
      ~cpu_s:(Clock.cpu_s () -. t.started_cpu_s);
    let report = Report.finalize builder in
    match
      Verrors.guard ~stage:"server.report" (fun () -> Report.write path report)
    with
    | Ok () -> Log.info (fun m -> m "wrote final run report to %s" path)
    | Error e ->
      (* Survive the report-writer fault seam: drain completed, the
         report is best-effort. *)
      Log.warn (fun m -> m "cannot write final report: %s" (Verrors.to_string e)))

let open_access_log cfg =
  match cfg.access_log_path with
  | None -> None
  | Some path ->
    Some
      (Access_log.create ?max_bytes:cfg.access_log_max_bytes
         ~keep:cfg.access_log_keep path)

let setup cfg =
  (* A dead client mid-write must be an EPIPE error, not a fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* The daemon records always: the ring is the black box whose dump
     explains the next degraded request.  Recording never influences
     responses (the bit-identity property runs with it enabled). *)
  Repro_obs.Flight.set_enabled true;
  let listener = bind_listener cfg.address in
  let n_executors = if cfg.executors <= 0 then Par.jobs () else cfg.executors in
  let t =
    { cfg;
      listener;
      queue = Bqueue.create ~capacity:cfg.queue_capacity;
      session =
        Session.create ~capacity:cfg.cache_capacity ~shards:cfg.cache_shards ();
      executors =
        Array.init n_executors (fun k ->
            { ex_id = k;
              ex_tid = executor_tid_base + k;
              ex_requests = Atomic.make 0;
              ex_busy_ns = Atomic.make 0;
              ex_rid = Atomic.make "";
              ex_stall_ns = Atomic.make 0L;
              ex_stall_reported = Atomic.make "" });
      sflight = Sflight.create ();
      coalesced = Atomic.make 0;
      accepting = Atomic.make true;
      conns = Hashtbl.create 16;
      conns_mutex = Mutex.create ();
      next_cid = Atomic.make 0;
      next_rid = Atomic.make 0;
      started_s = Clock.now_s ();
      started_cpu_s = Clock.cpu_s ();
      tallies = Array.map (fun _ -> Atomic.make 0) statuses;
      stalls = Atomic.make 0;
      in_flight = Atomic.make 0;
      rolling_latency = Rolling.create ~window_s:cfg.rolling_window_s ();
      rolling_queue_wait = Rolling.create ~window_s:cfg.rolling_window_s ();
      access = open_access_log cfg;
      overload_dumped = Atomic.make false;
      last = Atomic.make Json.Null;
      sampler = None;
      pool_prev = None;
      acceptor = None;
      watchdog_stop = Atomic.make false;
      watchdog = None }
  in
  Trace.set_process_name "wavemin-serve";
  Array.iter
    (fun ex ->
      Trace.set_thread_name ~tid:ex.ex_tid
        (Printf.sprintf "server-executor-%d" ex.ex_id))
    t.executors;
  (match cfg.sample_period_s with
  | None -> ()
  | Some period_s ->
    t.sampler <- Some (Runtime.start ~period_s ~probe:(sampler_probe t) ()));
  if cfg.handle_signals then install_signal_handlers t;
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  (match cfg.readiness with
  | None -> ()
  | Some oc ->
    Printf.fprintf oc
      "wavemin serve: listening on %s (jobs=%d, executors=%d, queue=%d, cache=%d)\n"
      (address_to_string cfg.address) (Par.jobs ())
      (Array.length t.executors) cfg.queue_capacity cfg.cache_capacity;
    flush oc);
  Log.info (fun m -> m "listening on %s" (address_to_string cfg.address));
  t

(* One executor worker: pop until the queue is closed and empty,
   tracking busy time and the request id in flight for [stats].  The
   expiry-sweeping pop skims entries that went stale while queued in
   one lock hold; each swept entry still goes through [dispatch], which
   owns the flight bookkeeping and the member-by-member triage. *)
let executor_loop t ex =
  let handle item =
    let t0 = Clock.now_ns () in
    Atomic.set ex.ex_rid item.item_rid;
    dispatch t ex item;
    Atomic.set ex.ex_rid "";
    Atomic.set ex.ex_stall_ns 0L;
    ignore
      (Atomic.fetch_and_add ex.ex_busy_ns
         (Int64.to_int (Int64.sub (Clock.now_ns ()) t0)))
  in
  let rec loop () =
    let live, swept = Bqueue.pop_live t.queue ~expired:item_expired in
    List.iter handle swept;
    match live with
    | Some item ->
      handle item;
      loop ()
    | None -> if swept <> [] then loop ()
  in
  loop ()

(* ---- watchdog ----------------------------------------------------- *)

(* Detects executors that stopped making progress: each worker
   publishes an absolute stall limit when it starts a request and
   clears it when done; a lane still past its limit at poll time gets
   one warning, one [server.executor_stalled] bump, one flight note and
   one black-box dump — per wedged request, not per tick.  Evidence for
   the operator only: there is no safe way to kill a wedged thread, the
   budget channel is the cooperative path. *)
let watchdog_loop t period_s =
  (* Sleep in short slices so drain never waits a full period. *)
  let rec nap left =
    if left > 0.0 && not (Atomic.get t.watchdog_stop) then begin
      let s = Float.min 0.05 left in
      Thread.delay s;
      nap (left -. s)
    end
  in
  while not (Atomic.get t.watchdog_stop) do
    Array.iter
      (fun ex ->
        let limit = Atomic.get ex.ex_stall_ns in
        let rid = Atomic.get ex.ex_rid in
        if
          (not (Int64.equal limit 0L))
          && rid <> ""
          && Int64.compare (Clock.now_ns ()) limit > 0
          && Atomic.get ex.ex_stall_reported <> rid
        then begin
          Atomic.set ex.ex_stall_reported rid;
          Atomic.incr t.stalls;
          Metrics.incr stalled_c;
          let overdue_ms =
            Int64.to_float (Int64.sub (Clock.now_ns ()) limit) /. 1e6
          in
          Log.warn (fun m ->
              m "executor %d stalled on %s (%.0f ms past its stall limit)"
                ex.ex_id rid overdue_ms);
          Flight.record
            (Flight.Note
               { name = "executor-stalled";
                 attrs =
                   [ ("rid", rid);
                     ("executor", string_of_int ex.ex_id);
                     ("overdue_ms", Printf.sprintf "%.0f" overdue_ms) ] });
          dump_flight t ~rid ~why:"stalled executor"
        end)
      t.executors;
    nap period_s
  done

let run t =
  (* The data plane: N executor workers pulling from the shared bounded
     queue; each request's solver internals still fan out across the
     Repro_par pool, so total parallelism is executors × per-request
     pool use.  Drain joins every worker before the (single) cleanup
     and final report below. *)
  let workers =
    Array.map
      (fun ex -> Thread.create (fun () -> executor_loop t ex) ())
      t.executors
  in
  (match t.cfg.watchdog_period_s with
  | None -> ()
  | Some period_s ->
    t.watchdog <- Some (Thread.create (fun () -> watchdog_loop t period_s) ()));
  Array.iter Thread.join workers;
  Atomic.set t.watchdog_stop true;
  (match t.watchdog with None -> () | Some th -> Thread.join th);
  t.watchdog <- None;
  (* Drained: stop the acceptor, wake and join the readers, release the
     socket, flush the final report. *)
  Atomic.set t.accepting false;
  (match t.acceptor with None -> () | Some th -> Thread.join th);
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (match t.cfg.address with
  | Unix_path path ->
    (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ());
  let conns =
    with_lock t.conns_mutex (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
  in
  List.iter
    (fun (conn, _) ->
      with_lock conn.wmutex (fun () ->
          if conn.open_ then begin
            conn.open_ <- false;
            try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ()
          end))
    conns;
  List.iter (fun (_, thread) -> Thread.join thread) conns;
  (* Stop the sampler, then take one final snapshot so the drain report
     captures end-of-life gauges. *)
  (match t.sampler with
  | None -> ()
  | Some s ->
    t.sampler <- None;
    Runtime.stop s;
    try Runtime.sample ~probe:(sampler_probe t) () with _ -> ());
  (match t.access with None -> () | Some a -> Access_log.close a);
  Log.info (fun m ->
      m "drained: %s"
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%d %s" n k)
              (tallies t ~report:false))));
  flush_report t

let serve cfg = run (setup cfg)

let serve_background cfg =
  let t = setup cfg in
  (t, Thread.create (fun () -> run t) ())
