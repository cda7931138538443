(* The live-telemetry layer: rolling-window histogram rotation and
   percentiles (with injected clocks, including skewed ones), Prometheus
   text exposition parsed back line by line (cumulative buckets,
   +Inf == count), the finite-JSON guarantee for empty/degenerate
   histogram snapshots, the process-runtime sampler, and the flight
   recorder (ring semantics, versioned dump, explain rendering). *)

module Json = Repro_util.Json
module Metrics = Repro_obs.Metrics
module Rolling = Repro_obs.Rolling
module Prometheus = Repro_obs.Prometheus
module Runtime = Repro_obs.Runtime
module Flight = Repro_obs.Flight
module Explain = Repro_obs.Explain

(* ---- rolling windows ---------------------------------------------- *)

let test_rolling_empty () =
  let r = Rolling.create ~window_s:60.0 () in
  let s = Rolling.stats ~now:123.0 r in
  Alcotest.(check int) "count" 0 s.Rolling.count;
  Alcotest.(check int) "total" 0 s.Rolling.total;
  Alcotest.(check (float 0.0)) "p50" 0.0 s.Rolling.p50;
  Alcotest.(check (float 0.0)) "p99" 0.0 s.Rolling.p99;
  Alcotest.(check (float 0.0)) "rate" 0.0 s.Rolling.rate;
  Alcotest.(check (float 0.0)) "mean" 0.0 s.Rolling.mean;
  Alcotest.(check (float 0.0)) "min" 0.0 s.Rolling.min;
  Alcotest.(check (float 0.0)) "max" 0.0 s.Rolling.max

let test_rolling_percentile_accuracy () =
  (* Quarter-octave buckets: a quantile comes back as a bucket upper
     bound, at most 2**0.25 (~19%) above the exact value. *)
  let r = Rolling.create ~window_s:60.0 () in
  let now = 1000.0 in
  for v = 1 to 1000 do
    Rolling.observe ~now r (float_of_int v)
  done;
  let s = Rolling.stats ~now r in
  Alcotest.(check int) "count" 1000 s.Rolling.count;
  let within name exact got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f within quarter-octave of %.1f" name got exact)
      true
      (got >= exact *. 0.999 && got <= exact *. 1.2)
  in
  within "p50" 500.0 s.Rolling.p50;
  within "p90" 900.0 s.Rolling.p90;
  within "p99" 990.0 s.Rolling.p99;
  Alcotest.(check (float 1e-9)) "min exact" 1.0 s.Rolling.min;
  Alcotest.(check (float 1e-9)) "max exact" 1000.0 s.Rolling.max;
  Alcotest.(check (float 1e-6)) "mean" 500.5 s.Rolling.mean

let test_rolling_rotation () =
  (* 60 s window in 5 s slots: a sample is visible until the window
     has fully passed it, then ages out without any explicit tick. *)
  let r = Rolling.create ~window_s:60.0 ~slots:12 () in
  Rolling.observe ~now:0.0 r 100.0;
  Alcotest.(check int) "visible at once" 1
    (Rolling.stats ~now:0.0 r).Rolling.count;
  Alcotest.(check int) "visible at 59.9" 1
    (Rolling.stats ~now:59.9 r).Rolling.count;
  Alcotest.(check int) "expired at 60" 0
    (Rolling.stats ~now:60.0 r).Rolling.count;
  Rolling.observe ~now:30.0 r 200.0;
  Alcotest.(check int) "mixed ages" 1
    (Rolling.stats ~now:65.0 r).Rolling.count;
  Alcotest.(check (float 1e-9)) "only the young sample"
    200.0
    (Rolling.stats ~now:65.0 r).Rolling.max;
  Alcotest.(check int) "all expired far out" 0
    (Rolling.stats ~now:500.0 r).Rolling.count;
  Alcotest.(check int) "total is lifetime" 2
    (Rolling.stats ~now:500.0 r).Rolling.total

let test_rolling_slot_reuse () =
  (* A sample one full window later lands in the same ring slot; the
     stale contents must be dropped, not merged. *)
  let r = Rolling.create ~window_s:60.0 ~slots:12 () in
  Rolling.observe ~now:1.0 r 100.0;
  Rolling.observe ~now:61.0 r 7.0;
  let s = Rolling.stats ~now:61.0 r in
  Alcotest.(check int) "old slot contents dropped" 1 s.Rolling.count;
  Alcotest.(check (float 1e-9)) "only the new sample" 7.0 s.Rolling.max;
  Alcotest.(check int) "lifetime total keeps both" 2 s.Rolling.total

let test_rolling_clock_skew () =
  (* A timestamp older than what its ring slot already holds (an NTP
     step back, or a cross-thread `now` sampled before a rotation) must
     not resurrect the stale period: that used to clear the slot,
     silently wiping newer samples sharing the ring index.  The late
     sample folds forward into the newer slot instead. *)
  let r = Rolling.create ~window_s:60.0 ~slots:12 () in
  Rolling.observe ~now:300.0 r 100.0;
  (* period 0 and period 60 share ring index 0 *)
  Rolling.observe ~now:1.0 r 7.0;
  let s = Rolling.stats ~now:300.0 r in
  Alcotest.(check int) "newer sample survives, late one folds in" 2
    s.Rolling.count;
  Alcotest.(check (float 1e-9)) "max kept" 100.0 s.Rolling.max;
  Alcotest.(check (float 1e-9)) "late sample visible" 7.0 s.Rolling.min;
  Alcotest.(check int) "lifetime total" 2 s.Rolling.total;
  (* Querying with a stale clock is merely empty, never corrupt. *)
  let back = Rolling.stats ~now:1.0 r in
  Alcotest.(check int) "stale query sees nothing" 0 back.Rolling.count;
  Alcotest.(check int) "stale query keeps total" 2 back.Rolling.total;
  (* ...and the window still ages out normally afterwards. *)
  Alcotest.(check int) "expires on schedule" 0
    (Rolling.stats ~now:400.0 r).Rolling.count

let rolling_clock_skew_prop =
  (* Arbitrary interleavings of forward and backward timestamps: stats
     at the latest observed time must stay finite and bounded — at
     least every sample that is in-window by its own timestamp (skew
     only ever folds samples forward), at most the lifetime total. *)
  QCheck.Test.make ~count:300 ~name:"rolling stats sane under clock skew"
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 1000) (int_bound 99)))
    (fun ops ->
      let r = Rolling.create ~window_s:60.0 ~slots:12 () in
      List.iter
        (fun (now, v) ->
          Rolling.observe ~now:(float_of_int now) r (float_of_int (v + 1)))
        ops;
      let q = List.fold_left (fun acc (now, _) -> Stdlib.max acc now) 0 ops in
      let s = Rolling.stats ~now:(float_of_int q) r in
      let period x = int_of_float (Float.floor (float_of_int x /. 5.0)) in
      let in_window =
        List.length (List.filter (fun (now, _) -> period now > period q - 12) ops)
      in
      s.Rolling.count >= in_window
      && s.Rolling.count <= List.length ops
      && s.Rolling.total = List.length ops
      && List.for_all Float.is_finite
           [ s.Rolling.mean; s.Rolling.min; s.Rolling.max; s.Rolling.p50;
             s.Rolling.p95; s.Rolling.p99; s.Rolling.rate ]
      && (s.Rolling.count = 0 || s.Rolling.min <= s.Rolling.max))

let rolling_matches_metrics_prop =
  (* One grid, one quantile: the same samples at one timestamp give a
     fresh Metrics histogram and a Rolling window the same count and
     extrema and bit-equal percentiles, including zero, negative,
     non-finite and off-grid samples. *)
  let sample =
    QCheck.Gen.(
      frequency
        [ (8, map (fun e -> 2.0 ** e) (float_range (-25.0) 35.0));
          (1, return 0.0);
          (1, map Float.neg (float_range 0.0 100.0));
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]) ])
  in
  QCheck.Test.make ~count:300 ~name:"rolling window == metrics histogram"
    QCheck.(
      make ~print:Print.(list float) Gen.(list_size (1 -- 60) sample))
    (fun samples ->
      Metrics.reset ();
      let h = Metrics.histogram "telemetry.test.agree" in
      let r = Rolling.create ~window_s:60.0 () in
      List.iter
        (fun v ->
          Metrics.observe h v;
          Rolling.observe ~now:50.0 r v)
        samples;
      let s = Metrics.histogram_stats h and w = Rolling.stats ~now:50.0 r in
      let finite v = if Float.is_finite v then v else 0.0 in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      w.Rolling.count = s.Metrics.count
      && same w.Rolling.min (finite s.Metrics.min)
      && same w.Rolling.max (finite s.Metrics.max)
      && same w.Rolling.p50 (Metrics.quantile h 0.5)
      && same w.Rolling.p90 (Metrics.quantile h 0.9)
      && same w.Rolling.p99 (Metrics.quantile h 0.99))

let test_rolling_rate () =
  let r = Rolling.create ~window_s:60.0 ~slots:12 () in
  for i = 0 to 29 do
    Rolling.observe ~now:(float_of_int i) r 1.0
  done;
  let s = Rolling.stats ~now:30.0 r in
  (* 30 samples over a ~30 s covered span: about 1/s. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate %.2f near 1.0" s.Rolling.rate)
    true
    (s.Rolling.rate > 0.5 && s.Rolling.rate < 2.0)

let test_rolling_reset_and_nonfinite () =
  let r = Rolling.create ~window_s:60.0 () in
  Rolling.observe ~now:0.0 r 5.0;
  Rolling.observe ~now:0.0 r Float.infinity;
  Rolling.observe ~now:0.0 r Float.nan;
  let s = Rolling.stats ~now:0.0 r in
  Alcotest.(check (float 1e-9)) "extrema ignore non-finite" 5.0 s.Rolling.max;
  (match Rolling.stats_json s with
  | Json.Obj fields ->
    List.iter
      (fun (k, v) ->
        match v with
        | Json.Num x ->
          Alcotest.(check bool) (k ^ " finite") true (Float.is_finite x)
        | _ -> Alcotest.failf "%s not a number" k)
      fields
  | _ -> Alcotest.fail "stats_json not an object");
  Rolling.reset r;
  Alcotest.(check int) "reset clears" 0 (Rolling.stats ~now:0.0 r).Rolling.count;
  Alcotest.(check int) "reset clears total" 0
    (Rolling.stats ~now:0.0 r).Rolling.total

(* ---- Prometheus exposition ---------------------------------------- *)

let lines_of s = String.split_on_char '\n' s

let find_value lines name =
  (* "name 42" -> Some 42. *)
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
        float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    lines

let test_prometheus_names () =
  Alcotest.(check string) "sanitized" "wavemin_server_latency_ms"
    (Prometheus.metric_name "server.latency_ms");
  Alcotest.(check string) "dashes too" "wavemin_a_b_c"
    (Prometheus.metric_name "a.b-c")

let test_prometheus_parse_back () =
  let snapshot =
    [ ("test.requests", Metrics.Counter_value 5);
      ("test.depth", Metrics.Gauge_value 2.5);
      ( "test.latency",
        Metrics.Histogram_value
          { Metrics.count = 3; sum = 4.5; mean = 1.5; min = 0.5; max = 2.0;
            buckets = [ (1.0, 2); (2.0, 1) ] } ) ]
  in
  let text = Prometheus.expose ~snapshot () in
  let lines = lines_of text in
  Alcotest.(check bool) "counter TYPE line" true
    (List.mem "# TYPE wavemin_test_requests_total counter" lines);
  Alcotest.(check (option (float 0.0))) "counter value" (Some 5.0)
    (find_value lines "wavemin_test_requests_total");
  Alcotest.(check bool) "gauge TYPE line" true
    (List.mem "# TYPE wavemin_test_depth gauge" lines);
  Alcotest.(check (option (float 0.0))) "gauge value" (Some 2.5)
    (find_value lines "wavemin_test_depth");
  Alcotest.(check bool) "histogram TYPE line" true
    (List.mem "# TYPE wavemin_test_latency histogram" lines);
  let bucket le =
    find_value lines (Printf.sprintf "wavemin_test_latency_bucket{le=\"%s\"}" le)
  in
  (* Buckets must be cumulative and +Inf must equal _count. *)
  Alcotest.(check (option (float 0.0))) "le=1" (Some 2.0) (bucket "1");
  Alcotest.(check (option (float 0.0))) "le=2 cumulative" (Some 3.0)
    (bucket "2");
  Alcotest.(check (option (float 0.0))) "+Inf" (Some 3.0) (bucket "+Inf");
  Alcotest.(check (option (float 0.0))) "count" (Some 3.0)
    (find_value lines "wavemin_test_latency_count");
  Alcotest.(check (option (float 1e-9))) "sum" (Some 4.5)
    (find_value lines "wavemin_test_latency_sum")

let test_prometheus_empty_histogram_finite () =
  (* The empty-histogram sentinels (min=+inf, max=-inf) must never
     reach the exposition or the JSON snapshot. *)
  let empty =
    { Metrics.count = 0; sum = 0.0; mean = 0.0; min = Float.infinity;
      max = Float.neg_infinity; buckets = [] }
  in
  let text =
    Prometheus.expose ~snapshot:[ ("test.empty", Metrics.Histogram_value empty) ] ()
  in
  let lines = lines_of text in
  Alcotest.(check (option (float 0.0))) "+Inf bucket present" (Some 0.0)
    (find_value lines "wavemin_test_empty_bucket{le=\"+Inf\"}");
  Alcotest.(check (option (float 0.0))) "count 0" (Some 0.0)
    (find_value lines "wavemin_test_empty_count");
  Alcotest.(check (option (float 0.0))) "sum 0" (Some 0.0)
    (find_value lines "wavemin_test_empty_sum");
  (* The one legitimate "Inf" is the +Inf bucket label; every other
     line must be finite. *)
  let contains_inf l =
    let low = String.lowercase_ascii l in
    let n = String.length low in
    let rec scan i =
      i + 3 <= n && (String.sub low i 3 = "inf" || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun l ->
      if not (String.contains l '{') then
        Alcotest.(check bool) ("finite line: " ^ l) false (contains_inf l))
    lines;
  let fields = Metrics.histogram_stats_fields empty in
  Alcotest.(check bool) "min omitted" true
    (not (List.mem_assoc "min" fields));
  Alcotest.(check bool) "max omitted" true
    (not (List.mem_assoc "max" fields));
  let rendered = Json.to_string (Json.Obj fields) in
  (match Json.of_string rendered with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "snapshot JSON not round-trippable: %s" msg)

let test_metrics_degenerate_histogram_json () =
  (* A histogram fed only non-finite samples has count > 0 with the
     sentinel extrema — exactly the shape that used to serialize as
     null min/max.  The canonical fields must stay finite JSON. *)
  let h = Metrics.histogram "telemetry.test.nonfinite" in
  Metrics.observe h Float.infinity;
  Metrics.observe h Float.nan;
  let s = Metrics.histogram_stats h in
  Alcotest.(check bool) "degenerate shape" true
    (s.Metrics.count > 0 && not (Float.is_finite s.Metrics.min));
  let fields = Metrics.histogram_stats_fields s in
  Alcotest.(check bool) "min omitted" true
    (not (List.mem_assoc "min" fields));
  Alcotest.(check bool) "max omitted" true
    (not (List.mem_assoc "max" fields));
  List.iter
    (fun (k, v) ->
      match v with
      | Json.Num x ->
        Alcotest.(check bool) (k ^ " finite") true (Float.is_finite x)
      | _ -> ())
    fields;
  match Json.of_string (Json.to_string (Json.Obj fields)) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "degenerate snapshot not parseable: %s" msg

(* ---- runtime sampler ---------------------------------------------- *)

let test_runtime_sample () =
  Runtime.sample ~probe:(fun () -> [ ("test.probe_gauge", 7.5) ]) ();
  Alcotest.(check bool) "gc heap gauge set" true
    (Metrics.gauge_value (Metrics.gauge "runtime.gc_heap_bytes") > 0.0);
  Alcotest.(check bool) "minor collections monotone" true
    (Metrics.gauge_value (Metrics.gauge "runtime.gc_minor_collections") >= 0.0);
  Alcotest.(check (float 1e-9)) "probe gauge recorded" 7.5
    (Metrics.gauge_value (Metrics.gauge "test.probe_gauge"));
  (match Sys.file_exists "/proc/self/statm" with
  | true ->
    Alcotest.(check bool) "rss sampled" true
      (Metrics.gauge_value (Metrics.gauge "runtime.rss_bytes") > 0.0)
  | false -> ())

let test_runtime_sampler_thread () =
  let hits = Atomic.make 0 in
  let s =
    Runtime.start ~period_s:0.02
      ~probe:(fun () ->
        Atomic.incr hits;
        if Atomic.get hits = 2 then failwith "probe hiccup" (* swallowed *)
        else [ ("test.sampler_gauge", float_of_int (Atomic.get hits)) ])
      ()
  in
  Thread.delay 0.15;
  Runtime.stop s;
  let n = Atomic.get hits in
  Alcotest.(check bool)
    (Printf.sprintf "sampled repeatedly (%d)" n)
    true (n >= 3);
  Alcotest.check_raises "positive period enforced"
    (Invalid_argument "Runtime.start: period_s <= 0") (fun () ->
      ignore (Runtime.start ~period_s:0.0 ()))

(* ---- flight recorder ---------------------------------------------- *)

let with_flight ?(capacity = 64) f =
  (* The recorder is a process-wide singleton: isolate each test and
     restore the disabled default so nothing leaks across cases. *)
  Flight.set_capacity capacity;
  Flight.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_enabled false;
      Flight.set_capacity 4096)
    f

let note name = Flight.Note { name; attrs = [] }

let test_flight_disabled_is_noop () =
  Flight.set_enabled false;
  Flight.clear ();
  Flight.record (note "dropped");
  Alcotest.(check int) "nothing recorded" 0 (Flight.recorded ());
  Alcotest.(check int) "ring empty" 0 (List.length (Flight.events ()))

let test_flight_ring_wrap () =
  with_flight ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Flight.record (note (string_of_int i))
      done;
      Alcotest.(check int) "all recorded" 20 (Flight.recorded ());
      let events = Flight.events () in
      Alcotest.(check int) "ring holds capacity" 8 (List.length events);
      let seqs = List.map (fun e -> e.Flight.seq) events in
      Alcotest.(check (list int)) "oldest overwritten, order kept"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ] seqs;
      match Flight.to_json () with
      | Json.Obj fields ->
        Alcotest.(check (option string)) "schema"
          (Some "wavemin-flight")
          (Option.bind (List.assoc_opt "schema" fields) Json.string_value);
        Alcotest.(check bool) "version" true
          (List.assoc_opt "version" fields
          = Some (Json.Num (float_of_int Flight.schema_version)));
        Alcotest.(check bool) "dropped counted" true
          (List.assoc_opt "dropped" fields = Some (Json.Num 12.0));
        (match List.assoc_opt "events" fields with
        | Some (Json.List l) ->
          Alcotest.(check int) "events serialized" 8 (List.length l)
        | _ -> Alcotest.fail "no events list");
        (* The dump must round-trip through the JSON printer/parser. *)
        (match Json.of_string (Json.to_string (Flight.to_json ())) with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "dump does not round-trip: %s" msg)
      | _ -> Alcotest.fail "dump not an object")

let test_flight_write_and_clear () =
  with_flight (fun () ->
      Flight.record (note "persisted");
      let path = Filename.temp_file "wm-flight" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (match Flight.write path with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "write failed: %s" msg);
          let ic = open_in_bin path in
          let text =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Json.of_string text with
          | Error msg -> Alcotest.failf "written dump unparseable: %s" msg
          | Ok dump ->
            Alcotest.(check (option string)) "file carries the schema"
              (Some "wavemin-flight")
              (Option.bind (Json.member "schema" dump) Json.string_value));
      (match Flight.write "/nonexistent-dir/x/y.json" with
      | Ok () -> Alcotest.fail "write into a missing directory succeeded"
      | Error _ -> ());
      Flight.clear ();
      Alcotest.(check int) "clear resets recorded" 0 (Flight.recorded ());
      Alcotest.(check bool) "enable flag survives clear" true
        (Flight.enabled ()))

(* ---- explain rendering -------------------------------------------- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
  in
  scan 0

let test_explain_synthetic_dump () =
  with_flight (fun () ->
      Flight.record
        (Flight.Solve_start { benchmark = "s99"; algorithm = "ClkWaveMin" });
      Flight.record
        (Flight.Window
           { kappa_ps = 16.0; feasible = 3; min_width_ps = 2.5;
             earliest_leaf = 4; earliest_ps = 140.0; latest_leaf = 9;
             latest_ps = 142.5 });
      Flight.record (Flight.Zone_start { cls = 0; zone = 1; sinks = 5 });
      Flight.record
        (Flight.Label_row { row = 0; extended = 8; kept = 4; pruned = 3;
                            capped = 1 });
      Flight.record
        (Flight.Zone_end
           { cls = 0; zone = 1; peak_ua = 1234.5; capped = true;
             memo = false; wall_ms = 3.25 });
      Flight.record (Flight.Zone_start { cls = 1; zone = 1; sinks = 5 });
      Flight.record
        (Flight.Zone_end
           { cls = 1; zone = 1; peak_ua = 1234.5; capped = true;
             memo = true; wall_ms = 0.01 });
      Flight.record
        (Flight.Class_skip
           { cls = 2; zone = 1; peak_ua = 1234.5; best_ua = 1200.0 });
      Flight.record
        (Flight.Budget_trip { reason = "label budget of 4 exhausted";
                              labels_used = 8 });
      Flight.record
        (Flight.Solve_end
           { benchmark = "s99"; algorithm = "ClkWaveMin"; ok = false;
             wall_ms = 9.0 });
      Flight.record
        (Flight.Fallback
           { from_alg = "ClkWaveMin"; to_alg = Some "ClkPeakMin";
             code = "budget-exhausted"; message = "label budget exhausted" });
      Flight.record
        (Flight.Cache { cache = "session"; outcome = "hit"; key = "k" });
      Flight.record
        (Flight.Contention { resource = "session.lock"; wait_ms = 0.4 });
      match Explain.render (Flight.to_json ()) with
      | Error msg -> Alcotest.failf "render failed: %s" msg
      | Ok report ->
        List.iter
          (fun needle ->
            Alcotest.(check bool) ("report mentions " ^ needle) true
              (contains_sub report needle))
          [ "solve timeline"; "ClkWaveMin"; "FAILED";
            "falling back to ClkPeakMin"; "budget-exhausted"; "skew window";
            "binding sinks"; "leaf 4"; "leaf 9"; "zones by wall time";
            "class 0 zone 1"; "label-capped"; "labels/row: 4*";
            "class 1 zone 1"; "memo hit, label-capped";
            "zone memo: 1 of 2 zone results reused";
            "classes skipped by the cut-off (1)";
            "class 2: zone 1 memoized peak 1234.5 uA >= best class peak \
             1200.0 uA";
            "budget trips"; "caches"; "session"; "contention";
            "session.lock" ])

(* ClkPeakMin reports its polarity-balance objective where the other
   solvers report the zone peak: the zone table and the cut-off lines
   name each value after the algorithm of the solve-start enclosing
   the event that carried it. *)
let test_explain_names_peakmin_balance () =
  let solve algorithm =
    Flight.record (Flight.Solve_start { benchmark = "s99"; algorithm });
    List.iter
      (fun cls ->
        Flight.record (Flight.Zone_start { cls; zone = 2; sinks = 6 });
        Flight.record
          (Flight.Zone_end
             { cls; zone = 2; peak_ua = 2847.4; capped = false;
               memo = cls > 0; wall_ms = 0.1 }))
      [ 0; 1 ];
    Flight.record
      (Flight.Class_skip { cls = 3; zone = 2; peak_ua = 2847.4; best_ua = 2753.8 });
    Flight.record
      (Flight.Solve_end { benchmark = "s99"; algorithm; ok = true; wall_ms = 1.0 })
  in
  let report solves =
    Flight.clear ();
    List.iter solve solves;
    match Explain.render (Flight.to_json ()) with
    | Error msg -> Alcotest.failf "render failed: %s" msg
    | Ok report -> report
  in
  let mentions report needle =
    Alcotest.(check bool) ("report mentions " ^ needle) true
      (contains_sub report needle)
  in
  with_flight (fun () ->
      let wavemin = report [ "ClkWaveMin" ] in
      mentions wavemin "6 sinks, peak 2847.4 uA";
      mentions wavemin "memoized peak 2847.4 uA >= best class peak 2753.8 uA";
      (* A fallback chain ending in ClkPeakMin: the zone table shows the
         last value recorded per (class, zone), PeakMin's balance. *)
      let chain = report [ "ClkWaveMin"; "ClkPeakMin" ] in
      mentions chain "6 sinks, balance 2847.4 uA";
      mentions chain "memoized peak 2847.4 uA >= best class peak 2753.8 uA";
      mentions chain
        "memoized balance 2847.4 uA >= best class balance 2753.8 uA";
      Alcotest.(check bool) "no zone balance called a peak" false
        (contains_sub chain "6 sinks, peak"))

let test_explain_rejects_non_dumps () =
  let expect_error name dump =
    match Explain.render dump with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  expect_error "bare object" (Json.Obj []);
  expect_error "wrong schema"
    (Json.Obj [ ("schema", Json.Str "bogus"); ("version", Json.Num 1.0) ]);
  expect_error "future version"
    (Json.Obj
       [ ("schema", Json.Str "wavemin-flight");
         ("version", Json.Num (float_of_int (Flight.schema_version + 1)));
         ("events", Json.List []) ]);
  expect_error "not an object" (Json.Str "nope");
  (* Unknown event kinds are skipped, not fatal: dumps from a newer
     minor revision still render. *)
  match
    Explain.render
      (Json.Obj
         [ ("schema", Json.Str "wavemin-flight");
           ("version", Json.Num (float_of_int Flight.schema_version));
           ("recorded", Json.Num 1.0); ("dropped", Json.Num 0.0);
           ( "events",
             Json.List
               [ Json.Obj
                   [ ("seq", Json.Num 0.0); ("t_ms", Json.Num 0.0);
                     ("domain", Json.Num 0.0);
                     ("kind", Json.Str "from-the-future") ] ] ) ])
  with
  | Ok report ->
    Alcotest.(check bool) "unknown kind surfaced" true
      (contains_sub report "from-the-future")
  | Error msg -> Alcotest.failf "unknown kind was fatal: %s" msg

let () =
  Alcotest.run "telemetry"
    [ ( "rolling",
        [ Alcotest.test_case "empty window" `Quick test_rolling_empty;
          Alcotest.test_case "percentile accuracy" `Quick
            test_rolling_percentile_accuracy;
          Alcotest.test_case "rotation" `Quick test_rolling_rotation;
          Alcotest.test_case "slot reuse" `Quick test_rolling_slot_reuse;
          Alcotest.test_case "clock skew" `Quick test_rolling_clock_skew;
          Alcotest.test_case "rate" `Quick test_rolling_rate;
          Alcotest.test_case "reset + non-finite" `Quick
            test_rolling_reset_and_nonfinite;
          QCheck_alcotest.to_alcotest rolling_clock_skew_prop;
          QCheck_alcotest.to_alcotest rolling_matches_metrics_prop ] );
      ( "flight",
        [ Alcotest.test_case "disabled is a no-op" `Quick
            test_flight_disabled_is_noop;
          Alcotest.test_case "ring wrap + versioned dump" `Quick
            test_flight_ring_wrap;
          Alcotest.test_case "write + clear" `Quick
            test_flight_write_and_clear ] );
      ( "explain",
        [ Alcotest.test_case "synthetic dump renders" `Quick
            test_explain_synthetic_dump;
          Alcotest.test_case "ClkPeakMin balance named" `Quick
            test_explain_names_peakmin_balance;
          Alcotest.test_case "rejects non-dumps" `Quick
            test_explain_rejects_non_dumps ] );
      ( "prometheus",
        [ Alcotest.test_case "name mapping" `Quick test_prometheus_names;
          Alcotest.test_case "parse-back" `Quick test_prometheus_parse_back;
          Alcotest.test_case "empty histogram stays finite" `Quick
            test_prometheus_empty_histogram_finite;
          Alcotest.test_case "degenerate histogram JSON" `Quick
            test_metrics_degenerate_histogram_json ] );
      ( "runtime",
        [ Alcotest.test_case "one sample" `Quick test_runtime_sample;
          Alcotest.test_case "sampler thread" `Quick
            test_runtime_sampler_thread ] ) ]
