(* The serve-mixed workload: the built `wavemin serve' as a child
   process, driven by a closed loop of two connections over a
   deterministic round-robin class mix.

   Every request of a deterministic class is checked byte for byte
   against an in-process [Handlers.execute] replay of the same mix on a
   private session; the warm class is checked by invariants only.  The
   daemon's own [stats] response, read before and after the measured
   window, gives the server-layer readings. *)

module J = Repro_util.Json
module P = Repro_server.Protocol
module Handlers = Repro_server.Handlers
module Session = Repro_server.Session
module Flow = Repro_core.Flow
module Rng = Repro_util.Rng
module Clock = Repro_obs.Clock

(* ---- the mix ------------------------------------------------------ *)

type check = Bytes | Warm | Control

type entry = { cls : string; check : check; request : P.request }

let hot = [ "s15850"; "s13207"; "ispd09f34" ]
let warm_design = "s13207"
let dup_design = "s15850"
let cold_design = "s15850"
let cold_variants = 16
let cache_capacity = 8
let cache_shards = 4

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let run_req ?(kappa = 20.0) ?(warm = false) benchmark algorithm =
  P.Run { opts = { (P.default_opts ~benchmark) with P.kappa }; algorithm; warm }

(* 16 distinct skew bounds in [21, 40] ps, drawn from the seed, four
   per session-cache shard: the cold tail cycles through them, one per
   cycle.  Four keys per shard are twice a shard's share of the cache,
   so each one has been evicted before it comes round again, and every
   shard sees the same eviction pressure whatever the seed. *)
let cold_kappas seed =
  let pool = Array.init 77 (fun i -> 21.0 +. (0.25 *. float_of_int i)) in
  shuffle (Rng.create ~seed) pool;
  let shards = Session.create ~capacity:cache_capacity ~shards:cache_shards () in
  let spec = Repro_cts.Benchmarks.find cold_design in
  let shard kappa =
    let params = { Repro_core.Context.default_params with Repro_core.Context.kappa } in
    Session.shard_index shards (Session.key ~spec ~params ~library:None)
  in
  let per_shard = cold_variants / cache_shards in
  let taken = Array.make cache_shards 0 in
  let picked =
    Array.to_list pool
    |> List.filter (fun k ->
           let s = shard k in
           taken.(s) < per_shard && (taken.(s) <- taken.(s) + 1; true))
  in
  Array.of_list (List.filteri (fun i _ -> i < cold_variants) picked)

(* The classes of cycle [k], grouped into units that stay together
   when a cycle is shuffled.  The shares follow the repo's stock
   bench-serve mix, [Loadgen.default_profile]: run-initial 3,
   run-wavemin 1, validate 1, stats 1.  ClkWaveMin itself is left out
   (Warburton is table5-wavemin's); its slot goes to each solve class
   of the mix at the same weight 1: run-wavemin-f, run-peakmin, the
   cold tail and the warm quench.  The duplicated SA is one pair, since
   single-flight needs two identical requests to coalesce.  These are
   the stock shares extended, not measured traffic.

   The three run-initial requests go one to each hot design; the other
   hot reads rotate over the hot set from cycle to cycle. *)
let units kappas k =
  let one cls check request = [ { cls; check; request } ] in
  let hot_at j = List.nth hot ((k + j) mod List.length hot) in
  List.map (fun d -> one "run-initial" Bytes (run_req d Flow.Initial)) hot
  @ [ one "run-wavemin-f" Bytes (run_req (hot_at 0) Flow.Wavemin_fast);
      one "run-peakmin" Bytes (run_req (hot_at 1) Flow.Peakmin);
      one "validate" Bytes
        (P.Validate { opts = P.default_opts ~benchmark:(hot_at 2); all = false });
      one "stats" Control P.Stats;
      one "cold-wavemin-f" Bytes
        (run_req ~kappa:kappas.(k mod cold_variants) cold_design Flow.Wavemin_fast);
      (* Two content-identical requests in adjacent slots: the two
         connections usually send them together, so single-flight can
         coalesce them. *)
      one "dup-sa" Bytes (run_req dup_design Flow.Sa)
      @ one "dup-sa" Bytes (run_req dup_design Flow.Sa);
      one "warm-sa" Warm (run_req ~warm:true warm_design Flow.Sa) ]

(* The schedule: entry [i] is slot [i mod n] of cycle [i / n].  Every
   cycle sends the same classes, each in its own seeded order, so which
   requests end up queued behind which averages out over a run instead
   of being fixed by the seed.  A pure function of [i], safe to call
   from both connection threads. *)
let schedule seed =
  let kappas = cold_kappas seed in
  let n = List.length (List.concat (units kappas 0)) in
  let entry i =
    let k = i / n in
    let us = Array.of_list (units kappas k) in
    shuffle (Rng.of_instance ~seed k) us;
    (Array.of_list (List.concat (Array.to_list us))).(i mod n)
  in
  (n, entry)

(* Requests sent to a fresh daemon (and to the replay session) before
   anything is measured: every hot read once, and a cold SA run that
   banks an assignment for the warm class. *)
let prewarm_requests () =
  List.concat_map
    (fun d -> List.map (run_req d) [ Flow.Initial; Flow.Wavemin_fast; Flow.Peakmin ])
    hot
  @ [ run_req warm_design Flow.Sa ]

(* ---- line client -------------------------------------------------- *)

(* Not [Repro_server.Client]: that one hands back parsed responses, and
   the byte-identity check needs each response line as sent. *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable lo : int; mutable hi : int }

let io_timeout_s = 60.0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout_s;
     Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.unsafe_of_string line in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* One response line including its '\n'.  A timeout surfaces as a
   [Unix_error] (EAGAIN), a closed peer as [End_of_file]. *)
let recv c =
  let out = Buffer.create 1024 in
  let rec go () =
    match Bytes.index_from_opt c.buf c.lo '\n' with
    | Some i when i < c.hi ->
      Buffer.add_subbytes out c.buf c.lo (i + 1 - c.lo);
      c.lo <- i + 1;
      Buffer.contents out
    | _ ->
      Buffer.add_subbytes out c.buf c.lo (c.hi - c.lo);
      c.lo <- 0;
      c.hi <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
      if c.hi = 0 then raise End_of_file;
      go ()
  in
  go ()

let call c ~id request =
  send c (P.line (P.request_to_json ~id:(J.Num (float_of_int id)) request));
  recv c

let ok_of line =
  match P.parse_response line with Ok r -> r.P.ok | Error _ -> false

(* ---- the daemon --------------------------------------------------- *)

type daemon = { pid : int; dir : string; socket : string }

let live : daemon list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let read_file path = Option.value ~default:"" (Probe.read_file path)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Spawn `wavemin serve' with its working directory in a fresh
   directory under [workdir]; the socket path handed to clients is
   relative, so it stays short however deep the checkout is. *)
let spawn ~wavemin ~workdir ~index =
  let dir = Filename.concat workdir (Printf.sprintf "daemon%d" index) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let script =
    Printf.sprintf
      "cd %s && exec %s serve --address unix:s.sock --jobs 1 --queue 16 \
       --cache %d --cache-shards %d --no-report --no-flight-dump \
       --log-level error >out.log 2>err.log"
      (Filename.quote dir) (Filename.quote wavemin) cache_capacity cache_shards
  in
  let pid =
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; script |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  let d = { pid; dir; socket = Filename.concat dir "s.sock" } in
  live := d :: !live;
  let deadline = Clock.now_s () +. 30.0 in
  let rec wait () =
    if contains (read_file (Filename.concat dir "out.log")) "listening on" then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid ->
        live := List.filter (fun x -> x.pid <> pid) !live;
        failwith ("daemon exited before listening: " ^ read_file (Filename.concat dir "err.log"))
      | _ ->
        if Clock.now_s () > deadline then failwith "daemon banner timeout";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  d

(* Drain and reap: a [shutdown] request, then SIGTERM, then SIGKILL,
   each given a bounded wait; the directory and socket go last. *)
let stop d =
  let exited within =
    let deadline = Clock.now_s () +. within in
    let rec poll () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | p, _ when p = d.pid -> true
      | _ ->
        if Clock.now_s () > deadline then false
        else begin
          Unix.sleepf 0.01;
          poll ()
        end
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    in
    poll ()
  in
  (try
     let c = connect d.socket in
     Fun.protect ~finally:(fun () -> close c) (fun () ->
         ignore (call c ~id:0 P.Shutdown))
   with _ -> ());
  if not (exited 10.0) then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (exited 5.0) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (exited 5.0)
    end
  end;
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  rm_rf d.dir

let stop_all () = List.iter stop !live

(* ---- measurement -------------------------------------------------- *)

type record = {
  index : int;  (** Schedule position; also the request id. *)
  t0 : float;
  t1 : float;
  line : string;  (** The raw response line ("" on transport failure). *)
}

let stats_of c =
  match P.parse_response (call c ~id:0 P.Stats) with
  | Ok r when r.P.ok -> r.P.body
  | _ -> failwith "stats request failed"

let setup ~wavemin ~workdir ~index =
  let t0 = Clock.now_s () in
  let d = spawn ~wavemin ~workdir ~index in
  let c = connect d.socket in
  Fun.protect ~finally:(fun () -> close c) (fun () ->
      List.iteri
        (fun i r ->
          if not (ok_of (call c ~id:(i + 1) r)) then failwith "pre-warm request failed")
        (prewarm_requests ()));
  (d, Clock.now_s () -. t0)

(* Closed loop: each connection sends its next request only once the
   previous reply is in.  Schedule entries are claimed from one shared
   counter, so the request sequence is the same however the two
   connections interleave. *)
let drive d entry ~connections ~seconds =
  let next = Atomic.make 0 in
  let start = Clock.now_s () in
  let stop_at = start +. seconds in
  let worker out () =
    let c = connect d.socket in
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    let rec loop () =
      if Clock.now_s () < stop_at then begin
        let i = Atomic.fetch_and_add next 1 in
        let request = (entry i).request in
        let t0 = Clock.now_s () in
        let line = try call c ~id:i request with _ -> "" in
        out := { index = i; t0; t1 = Clock.now_s (); line } :: !out;
        if line <> "" then loop ()
      end
    in
    loop ()
  in
  let outs = List.init connections (fun _ -> ref []) in
  let threads = List.map (fun o -> Thread.create (worker o) ()) outs in
  List.iter Thread.join threads;
  let records = List.concat_map (fun o -> !o) outs in
  (List.sort (fun a b -> compare a.index b.index) records, Clock.now_s () -. start)

(* ---- in-process replay -------------------------------------------- *)

(* Replay the schedule up to [upto] on a private session shaped like
   the daemon's, after the same pre-warm.  Returns the expected result
   body of every request content ([Protocol.canonical_key]) and, per
   class, the [Handlers.execute] wall times (spans in the traced run). *)
let replay entry ~upto =
  let session = Session.create ~capacity:cache_capacity ~shards:cache_shards () in
  List.iter (fun r -> ignore (Handlers.execute session r)) (prewarm_requests ());
  let expected = Hashtbl.create 64 in
  let times = Hashtbl.create 16 in
  for i = 0 to upto - 1 do
    let e = entry i in
    if e.check <> Control then begin
      let t0 = Clock.now_s () in
      let result =
        Span.with_group ~group:(Printf.sprintf "req%d" i)
          ("handlers.execute." ^ e.cls) (fun () -> Handlers.execute session e.request)
      in
      let ms = (Clock.now_s () -. t0) *. 1000.0 in
      Hashtbl.replace times e.cls
        (ms :: Option.value ~default:[] (Hashtbl.find_opt times e.cls));
      match result with
      | Ok body -> Hashtbl.replace expected (P.canonical_key e.request) body
      | Error _ -> ()
    end
  done;
  (expected, times)

let num_at path j =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
  |> Fun.flip Option.bind J.float_value
  |> Option.value ~default:nan

(* Checks one response.  Returns an error message, or None. *)
let check_response (e : entry) expected r =
  let id = J.Num (float_of_int r.index) in
  if r.line = "" then Some "transport failure"
  else
    match e.check with
    | Control -> if ok_of r.line then None else Some "stats failed"
    | Bytes -> (
      match Hashtbl.find_opt expected (P.canonical_key e.request) with
      | None -> Some "in-process replay failed"
      | Some body ->
        if String.equal r.line (P.line (P.ok_response ~id body)) then None
        else Some "response differs from in-process Handlers.execute")
    | Warm -> (
      match P.parse_response r.line with
      | Ok { P.ok = true; body; _ } ->
        let degradations = Option.bind (J.member "degradations" body) J.list_value in
        if num_at [ "quality"; "skew_ps" ] body <= 20.0 && degradations = Some [] then None
        else Some "warm response breaks an invariant (skew > kappa or degraded)"
      | _ -> Some "warm request failed")

(* Stats readings kept for the per-layer metrics. *)
let stats_fields stats =
  let executors =
    Option.value ~default:[] (Option.bind (J.member "executors" stats) J.list_value)
  in
  let uptime = num_at [ "uptime_s" ] stats in
  J.Obj
    [ ("uptime_s", J.Num uptime);
      ( "executor_busy_s",
        J.Num
          (List.fold_left (fun acc e -> acc +. (num_at [ "busy_frac" ] e *. uptime)) 0.0
             executors) );
      ("executors", J.Num (float_of_int (List.length executors)));
      ("served", J.Num (num_at [ "served" ] stats));
      ("coalesced", J.Num (num_at [ "coalesced" ] stats));
      ("hits", J.Num (num_at [ "cache"; "hits" ] stats));
      ("misses", J.Num (num_at [ "cache"; "misses" ] stats));
      ("evictions", J.Num (num_at [ "cache"; "evictions" ] stats));
      ("warm_hits", J.Num (num_at [ "cache"; "warm"; "hits" ] stats));
      (* The mean, not the p50: the rolling p50 is a histogram bucket
         bound and reads the same from run to run. *)
      ("queue_wait_mean_ms", J.Num (num_at [ "rolling"; "queue_wait_ms"; "mean" ] stats)) ]

(* Microbenchmarks of the wire layer on the run's own lines, in us per
   call: median of [rounds] timed batches. *)
let per_call_us f items =
  let rounds = 15 and reps = 20 in
  let samples =
    Array.init rounds (fun _ ->
        let t0 = Clock.now_s () in
        for _ = 1 to reps do
          List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items
        done;
        (Clock.now_s () -. t0) *. 1e6 /. float_of_int (reps * List.length items))
  in
  Array.sort compare samples;
  samples.(rounds / 2)

let run ~seed ~seconds ~traced ~setups ~wavemin ~workdir =
  let n, entry = schedule seed in
  Fun.protect ~finally:stop_all @@ fun () ->
  (* [setups] set-ups before the window (the last one's daemon is
     measured) and [setups] after the replay: the machine's speed
     drifts over seconds, and set-ups from both ends of the run see the
     same drift as the window does. *)
  let setup_before =
    List.init setups (fun index ->
        let d, s = setup ~wavemin ~workdir ~index in
        if index < setups - 1 then stop d;
        s)
  in
  let d = List.hd !live in
  let control = connect d.socket in
  let stats0, cpu0 = (stats_of control, Probe.cpu_s_of_pid d.pid) in
  let records, window_s = drive d entry ~connections:2 ~seconds in
  let stats1, cpu1 = (stats_of control, Probe.cpu_s_of_pid d.pid) in
  let health_rtt_ms =
    List.init 50 (fun i ->
        let t0 = Clock.now_s () in
        ignore (call control ~id:(i + 1) P.Health);
        J.Num ((Clock.now_s () -. t0) *. 1000.0))
  in
  close control;
  let max_rss_mb = Probe.vmhwm_mb (string_of_int d.pid) in
  stop d;
  (* The cold tail repeats every [cold_variants] cycles, and the hot
     reads every [List.length hot], so that many cycles of replay cover
     every request content sent. *)
  let upto = min (List.length records) (n * cold_variants) in
  Span.enabled := traced;
  let expected, times = replay entry ~upto in
  Span.enabled := false;
  let setup_after =
    List.init setups (fun i ->
        let d, s = setup ~wavemin ~workdir ~index:(setups + i) in
        stop d;
        s)
  in
  let rows =
    List.map
      (fun r ->
        let e = entry r.index in
        let error = check_response e expected r in
        J.Obj
          [ ("index", J.Num (float_of_int r.index));
            ("cls", J.Str e.cls);
            ("t0", J.Num r.t0);
            ("t1", J.Num r.t1);
            ("error", match error with None -> J.Null | Some e -> J.Str e) ])
      records
  in
  (* Golden quality of the deterministic run responses of the first
     rotation of the hot set.  The cold tail is left out: its kappas
     come from the seed. *)
  let quality =
    List.filter_map
      (fun i ->
        let e = entry i in
        match (e.request, Hashtbl.find_opt expected (P.canonical_key e.request)) with
        | P.Run { opts; _ }, Some body when e.check = Bytes && e.cls <> "cold-wavemin-f" ->
          Some
            (J.Obj
               [ ("cls", J.Str e.cls);
                 ("design", J.Str opts.P.benchmark);
                 ("peak_current_ma", J.Num (num_at [ "quality"; "peak_current_ma" ] body));
                 ("vdd_noise_mv", J.Num (num_at [ "quality"; "vdd_noise_mv" ] body));
                 ("gnd_noise_mv", J.Num (num_at [ "quality"; "gnd_noise_mv" ] body)) ])
        | _ -> None)
      (List.init (min (n * List.length hot) upto) Fun.id)
  in
  let wire =
    if not traced then []
    else
      let requests =
        List.init n (fun i ->
            P.line (P.request_to_json ~id:(J.Num (float_of_int i)) (entry i).request))
      in
      let responses =
        List.filter_map
          (fun r -> Result.to_option (J.of_string r.line))
          (List.filteri (fun i _ -> i < n) records)
      in
      [ ("parse_us", J.Num (per_call_us P.parse_request requests));
        ("line_us", J.Num (per_call_us P.line responses)) ]
  in
  [ ("setup_s", J.List (List.map (fun s -> J.Num s) (setup_before @ setup_after)));
    ("measured_s", J.Num window_s);
    ("jobs", J.Num 1.0);
    ("connections", J.Num 2.0);
    ("cycle", J.Num (float_of_int n));
    ("replayed", J.Num (float_of_int upto));
    ("requests", J.List rows);
    ("quality", J.List quality);
    ("daemon_cpu_s", J.Num (cpu1 -. cpu0));
    ("max_rss_mb", J.Num max_rss_mb);
    ("stats_before", stats_fields stats0);
    ("stats_after", stats_fields stats1);
    ("health_rtt_ms", J.List health_rtt_ms);
    ( "handlers_ms",
      J.Obj
        (Hashtbl.fold
           (fun cls ms acc -> (cls, J.List (List.map (fun m -> J.Num m) ms)) :: acc)
           times []) ) ]
  @ wire
