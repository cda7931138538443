module Json = Repro_util.Json
module Stats = Repro_util.Stats
module Verrors = Repro_util.Verrors
module Rng = Repro_util.Rng
module Clock = Repro_obs.Clock
module Rolling = Repro_obs.Rolling
module Report = Repro_obs.Report
module P = Protocol

(* The bench-serve load generator: N client threads drive a live daemon
   with a mixed request-class profile and the results land in a
   BENCH_serve.json via the Report builder, so the regression gate's
   ratio+slack runtime rules apply to service latency exactly as they do
   to solver runtime.

   The schedule is a fixed round-robin expansion of the class weights
   claimed through one atomic counter: in count mode the per-class
   request counts are deterministic regardless of connection count or
   interleaving, which keeps the gate's Missing_in_new rule safe — every
   class always appears in the report. *)

type klass = { k_name : string; k_request : P.request }

type config = {
  address : Server.address;
  connections : int;
  total : int option;  (* count budget *)
  duration_s : float option;  (* wall budget; stops at whichever is first *)
  profile : (klass * int) list;  (* (class, weight), weights >= 1 *)
  window_s : float;  (* rolling window width for the reported p50/95/99 *)
  retries : int;  (* per-request re-attempts on overloaded / transport loss *)
  retry_backoff_ms : float;  (* base of the jittered exponential backoff *)
}

let default_profile ~benchmark =
  let opts = P.default_opts ~benchmark in
  [ ({ k_name = "run-initial";
       k_request = P.Run { opts; algorithm = Repro_core.Flow.Initial; warm = false } },
     3);
    ({ k_name = "run-wavemin";
       k_request = P.Run { opts; algorithm = Repro_core.Flow.Wavemin; warm = false } },
     1);
    ({ k_name = "validate";
       k_request = P.Validate { opts; all = false } },
     1);
    ({ k_name = "stats"; k_request = P.Stats }, 1) ]

let default_config address ~benchmark =
  { address; connections = 4; total = Some 64; duration_s = None;
    profile = default_profile ~benchmark; window_s = 60.0;
    retries = 0; retry_backoff_ms = 50.0 }

(* Duplicate-heavy profile: the default mix plus one heavy class whose
   every request is content-identical (same benchmark, same kappa), so
   concurrent connections hit the server's single-flight layer.  The
   weight is chosen so the duplicate class is ~[fraction] of the
   schedule: w / (6 + w) = fraction. *)
let dup_profile ~benchmark ~fraction =
  let fraction = Float.max 0.0 (Float.min 0.9 fraction) in
  let weight =
    max 1 (int_of_float (Float.round (6.0 *. fraction /. (1.0 -. fraction))))
  in
  let opts = { (P.default_opts ~benchmark) with P.kappa = 25.0 } in
  default_profile ~benchmark
  @ [ ({ k_name = "dup-wavemin";
         k_request = P.Run { opts; algorithm = Repro_core.Flow.Wavemin; warm = false } },
       weight) ]

(* The server's lifetime coalesce counter, via one extra stats probe —
   sampled before and after the load so the result can report the
   delta.  Best-effort: a daemon predating the counter yields [None]. *)
let coalesced_count address =
  match Client.connect address with
  | Error _ -> None
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.request c P.Stats with
        | Ok resp when resp.P.ok ->
          Option.map int_of_float
            (Option.bind (Json.member "coalesced" resp.P.body) Json.float_value)
        | Ok _ | Error _ -> None)

(* Growable per-class latency sample buffer (mutex-guarded). *)
type samples = {
  s_mutex : Mutex.t;
  mutable arr : float array;
  mutable n : int;
  mutable errors : int;
}

let samples_create () =
  { s_mutex = Mutex.create (); arr = Array.make 64 0.0; n = 0; errors = 0 }

let samples_push s v =
  Mutex.lock s.s_mutex;
  if s.n = Array.length s.arr then begin
    let bigger = Array.make (2 * s.n) 0.0 in
    Array.blit s.arr 0 bigger 0 s.n;
    s.arr <- bigger
  end;
  s.arr.(s.n) <- v;
  s.n <- s.n + 1;
  Mutex.unlock s.s_mutex

let samples_error s =
  Mutex.lock s.s_mutex;
  s.errors <- s.errors + 1;
  Mutex.unlock s.s_mutex

type class_stats = {
  name : string;
  count : int;
  errors : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

type result = {
  wall_s : float;
  total_requests : int;
  total_errors : int;
  total_retries : int;  (* backoff re-attempts spent across all workers *)
  coalesced : int option;  (* server-side coalesce delta over the run *)
  throughput_rps : float;
  rolling : Rolling.stats;  (* the rolling-window view, ms *)
  overall : class_stats;  (* exact percentiles over every sample *)
  classes : class_stats list;
}

let class_stats_of name (s : samples) =
  let latencies = Array.sub s.arr 0 s.n in
  if s.n = 0 then
    { name; count = 0; errors = s.errors; mean_ms = 0.0; p50_ms = 0.0;
      p95_ms = 0.0; p99_ms = 0.0; max_ms = 0.0 }
  else
    { name;
      count = s.n;
      errors = s.errors;
      mean_ms = Stats.mean latencies;
      p50_ms = Stats.percentile latencies ~p:50.0;
      p95_ms = Stats.percentile latencies ~p:95.0;
      p99_ms = Stats.percentile latencies ~p:99.0;
      max_ms = snd (Stats.min_max latencies) }

let run cfg =
  if cfg.connections < 1 then
    Verrors.error ~code:Verrors.Invalid_params ~stage:"bench-serve"
      "connections must be >= 1"
  else if cfg.profile = [] then
    Verrors.error ~code:Verrors.Invalid_params ~stage:"bench-serve"
      "empty request profile"
  else if cfg.total = None && cfg.duration_s = None then
    Verrors.error ~code:Verrors.Invalid_params ~stage:"bench-serve"
      "either a request count or a duration budget is required"
  else begin
    (* Retrying workers write into connections a restarting daemon may
       have reset: that must surface as a retryable io-error, never
       SIGPIPE the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let schedule =
      Array.of_list
        (List.concat_map
           (fun (k, w) ->
             if w < 1 then
               Verrors.fail ~code:Verrors.Invalid_params ~stage:"bench-serve"
                 (Printf.sprintf "class %s has weight %d (must be >= 1)"
                    k.k_name w)
             else List.init w (fun _ -> k))
           cfg.profile)
    in
    let per_class =
      List.map (fun (k, _) -> (k.k_name, samples_create ())) cfg.profile
    in
    let all = samples_create () in
    let rolling = Rolling.create ~window_s:cfg.window_s () in
    let next = Atomic.make 0 in
    let started_s = Clock.now_s () in
    let deadline =
      Option.map (fun d -> started_s +. d) cfg.duration_s
    in
    let budget_left i =
      (match cfg.total with Some n -> i < n | None -> true)
      && match deadline with Some d -> Clock.now_s () < d | None -> true
    in
    let retries_total = Atomic.make 0 in
    let worker w () =
      (* Per-worker deterministic jitter stream: the load schedule stays
         reproducible for a given (connections, retries) config. *)
      let rng = Rng.create ~seed:(0xb0ff + w) in
      (* [None] after a transport casualty; the next attempt reconnects
         (the daemon may have restarted meanwhile). *)
      let client = ref None in
      let close_client () =
        Option.iter Client.close !client;
        client := None
      in
      (* The connection stays warm across successful requests, so
         retries stay the exceptional path. *)
      let attempt_once req () =
        let resp =
          match !client with
          | Some c -> Client.request c req
          | None -> (
            match Client.connect cfg.address with
            | Error e -> Error e
            | Ok c ->
              client := Some c;
              Client.request c req)
        in
        if Result.is_error resp then close_client ();
        resp
      in
      let exec k =
        Client.retry ~retries:cfg.retries ~backoff_ms:cfg.retry_backoff_ms ~rng
          ~on_retry:(fun ~attempt:_ ~why:_ ~delay_ms:_ ->
            Atomic.incr retries_total)
          ~response:Fun.id (attempt_once k.k_request)
      in
      Fun.protect ~finally:close_client (fun () ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if budget_left i then begin
              let k = schedule.(i mod Array.length schedule) in
              let cs = List.assoc k.k_name per_class in
              let t0 = Clock.now_s () in
              match exec k with
              | Ok resp ->
                let ms = (Clock.now_s () -. t0) *. 1000.0 in
                if resp.P.ok then begin
                  samples_push cs ms;
                  samples_push all ms;
                  Rolling.observe rolling ms
                end
                else samples_error cs;
                loop ()
              | Error e ->
                (* Retries exhausted: record and retire this worker —
                   the shared counter lets the others finish the
                   budget. *)
                samples_error cs;
                Error e
            end
            else Ok ()
          in
          loop ())
    in
    let coalesced_before = coalesced_count cfg.address in
    let results = Array.make cfg.connections (Ok ()) in
    let threads =
      Array.init cfg.connections (fun i ->
          Thread.create (fun () -> results.(i) <- worker i ()) ())
    in
    Array.iter Thread.join threads;
    let wall_s = Clock.now_s () -. started_s in
    let coalesced =
      match (coalesced_before, coalesced_count cfg.address) with
      | Some before, Some after -> Some (after - before)
      | _ -> None
    in
    (* A dead daemon should fail loudly, not report an all-error run:
       surface the first transport failure if nothing at all was
       measured. *)
    let first_error =
      Array.fold_left
        (fun acc r -> match (acc, r) with None, Error e -> Some e | _ -> acc)
        None results
    in
    match first_error with
    | Some e when all.n = 0 -> Error e
    | _ ->
      let classes =
        List.map (fun (name, s) -> class_stats_of name s) per_class
      in
      let overall = class_stats_of "overall" all in
      let total_errors =
        List.fold_left (fun acc c -> acc + c.errors) 0 classes
      in
      Ok
        { wall_s;
          total_requests = overall.count + total_errors;
          total_errors;
          total_retries = Atomic.get retries_total;
          coalesced;
          throughput_rps =
            (if wall_s > 0.0 then float_of_int overall.count /. wall_s
             else 0.0);
          rolling = Rolling.stats rolling;
          overall;
          classes }
  end

(* BENCH_serve.json: every latency/count number rides in [runtime] (the
   ratio+slack-gated section — only slowdowns can fail the gate), while
   error counts go to the non-gated environment block so a flaky
   network burp cannot hard-fail CI through an exact-match rule. *)
let to_report cfg r =
  let builder =
    Report.create ~experiment:"serve"
      ~config:
        ([ ("connections", string_of_int cfg.connections);
           ( "profile",
             String.concat ","
               (List.map
                  (fun (k, w) -> Printf.sprintf "%s:%d" k.k_name w)
                  cfg.profile) );
           ("window_s", Json.float_to_string cfg.window_s) ]
        @ (match cfg.total with
          | Some n -> [ ("total", string_of_int n) ]
          | None -> [])
        @
        match cfg.duration_s with
        | Some d -> [ ("duration_s", Json.float_to_string d) ]
        | None -> [])
      ~environment:
        ([ ("address", Server.address_to_string cfg.address);
           ("errors", string_of_int r.total_errors);
           ("retries", string_of_int r.total_retries) ]
        @
        match r.coalesced with
        | Some n -> [ ("coalesced", string_of_int n) ]
        | None -> [])
      ()
  in
  let add_class (c : class_stats) =
    let runtime =
      [ ("requests", float_of_int c.count);
        ("latency_mean_ms", c.mean_ms);
        ("latency_p50_ms", c.p50_ms);
        ("latency_p95_ms", c.p95_ms);
        ("latency_p99_ms", c.p99_ms);
        ("latency_max_ms", c.max_ms) ]
    in
    let runtime =
      if c.name <> "overall" then runtime
      else
        runtime
        @ [ ("wall_s", r.wall_s);
            ("throughput_rps", r.throughput_rps);
            ("rolling_p50_ms", r.rolling.Rolling.p50);
            ("rolling_p95_ms", r.rolling.Rolling.p95);
            ("rolling_p99_ms", r.rolling.Rolling.p99);
            ("rolling_rate_rps", r.rolling.Rolling.rate) ]
    in
    Report.add_sample builder ~benchmark:"serve" ~algorithm:c.name ~runtime ()
  in
  add_class r.overall;
  List.iter add_class r.classes;
  Report.add_stage builder ~stage:"bench-serve" ~wall_s:r.wall_s
    ~cpu_s:(Clock.cpu_s ());
  (* The load generator's own metrics registry holds nothing but zeros:
     the daemon's numbers live in the daemon. *)
  Report.finalize ~registry:[] builder
