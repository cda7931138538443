(* The observability subsystem: span nesting and ordering, metrics
   semantics, Chrome trace-event export well-formedness, and the
   must-hold invariant that observing a run never changes its result. *)

module Clock = Repro_obs.Clock
module Trace = Repro_obs.Trace
module Metrics = Repro_obs.Metrics
module Context = Repro_core.Context
module Clk_wavemin = Repro_core.Clk_wavemin
module Flow = Repro_core.Flow
module Golden = Repro_core.Golden
module Rng = Repro_util.Rng

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0);
  Alcotest.(check bool) "seconds consistent" true (Clock.now_s () > 0.0)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)

let with_tracing f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let test_span_nesting () =
  with_tracing (fun () ->
      Trace.with_span ~name:"outer" (fun () ->
          Trace.with_span ~name:"inner_a" (fun () -> ());
          Trace.with_span ~name:"inner_b" ~attrs:[ ("k", "v") ] (fun () ->
              Trace.with_span ~name:"leaf" (fun () -> ()))));
  let spans = Trace.spans () in
  Alcotest.(check (list string))
    "start order, parents first"
    [ "outer"; "inner_a"; "inner_b"; "leaf" ]
    (List.map (fun s -> s.Trace.name) spans);
  Alcotest.(check (list int))
    "depths" [ 0; 1; 1; 2 ]
    (List.map (fun s -> s.Trace.depth) spans);
  let find name = List.find (fun s -> s.Trace.name = name) spans in
  let outer = find "outer" and leaf = find "leaf" in
  Alcotest.(check bool) "child starts after parent" true
    (Int64.compare leaf.Trace.start_ns outer.Trace.start_ns >= 0);
  let ends s = Int64.add s.Trace.start_ns s.Trace.dur_ns in
  Alcotest.(check bool) "child ends before parent" true
    (Int64.compare (ends leaf) (ends outer) <= 0);
  Alcotest.(check bool) "attrs preserved" true
    ((find "inner_b").Trace.attrs = [ ("k", "v") ])

let test_span_survives_exception () =
  with_tracing (fun () ->
      (try
         Trace.with_span ~name:"root" (fun () ->
             Trace.with_span ~name:"raiser" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Trace.with_span ~name:"after" (fun () -> ()));
  let spans = Trace.spans () in
  Alcotest.(check (list string))
    "both spans recorded, depth restored"
    [ "root"; "raiser"; "after" ]
    (List.map (fun s -> s.Trace.name) spans);
  Alcotest.(check int) "after is a root" 0
    (List.nth spans 2).Trace.depth

let test_disabled_records_nothing () =
  Trace.reset ();
  Trace.set_enabled false;
  let r = Trace.with_span ~name:"ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "transparent" 42 r;
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans ()))

let test_text_tree_indents () =
  with_tracing (fun () ->
      Trace.with_span ~name:"a" (fun () ->
          Trace.with_span ~name:"b" (fun () -> ())));
  let tree = Trace.to_text_tree () in
  Alcotest.(check bool) "outer at column 0" true
    (String.length tree > 0 && tree.[0] = 'a');
  let lines = String.split_on_char '\n' tree in
  let b_line = List.find (fun l -> String.length l > 2 && l.[2] = 'b') lines in
  Alcotest.(check string) "inner indented" "  b" (String.sub b_line 0 3)

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — enough to verify the Chrome export is
   well-formed and to read back names/timestamps. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= len && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= len then fail "bad escape");
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 >= len then fail "bad \\u";
          let hex = String.sub s (!pos + 1) 4 in
          let code = int_of_string ("0x" ^ hex) in
          (* ASCII range only — all the exporter emits *)
          Buffer.add_char buf (Char.chr (code land 0x7f));
          pos := !pos + 4
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      advance ()
    done;
    if start = !pos then fail "expected number";
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_lit "true" (Bool true)
    | Some 'f' -> parse_lit "false" (Bool false)
    | Some 'n' -> parse_lit "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let test_chrome_json_parses_back () =
  with_tracing (fun () ->
      Trace.with_span ~name:"outer \"quoted\"\n" (fun () ->
          Trace.with_span ~name:"inner" ~attrs:[ ("benchmark", "s13207") ]
            (fun () -> ())));
  let json = Trace.to_chrome_json () in
  match parse_json json with
  | Obj fields ->
    let all_events =
      match List.assoc "traceEvents" fields with
      | Arr evs -> evs
      | _ -> Alcotest.fail "traceEvents not an array"
    in
    let phase ev =
      match ev with
      | Obj f -> (match List.assoc "ph" f with Str p -> p | _ -> "?")
      | _ -> "?"
    in
    (* metadata events label the process and each thread lane *)
    let meta = List.filter (fun ev -> phase ev = "M") all_events in
    Alcotest.(check bool) "has metadata events" true (List.length meta >= 2);
    let meta_names =
      List.map
        (fun ev ->
          match ev with
          | Obj f -> (match List.assoc "name" f with Str n -> n | _ -> "?")
          | _ -> "?")
        meta
    in
    Alcotest.(check bool) "process_name present" true
      (List.mem "process_name" meta_names);
    Alcotest.(check bool) "thread_name present" true
      (List.mem "thread_name" meta_names);
    let events = List.filter (fun ev -> phase ev = "X") all_events in
    Alcotest.(check int) "two span events" 2 (List.length events);
    List.iter
      (fun ev ->
        match ev with
        | Obj f ->
          Alcotest.(check string) "complete event" "X"
            (match List.assoc "ph" f with Str p -> p | _ -> "?");
          (match (List.assoc "ts" f, List.assoc "dur" f) with
          | Num ts, Num dur ->
            Alcotest.(check bool) "sane timestamps" true
              (ts >= 0.0 && dur >= 0.0)
          | _ -> Alcotest.fail "ts/dur not numbers")
        | _ -> Alcotest.fail "event not an object")
      events;
    let names =
      List.map
        (fun ev ->
          match ev with
          | Obj f -> (match List.assoc "name" f with Str n -> n | _ -> "?")
          | _ -> "?")
        events
    in
    Alcotest.(check (list string))
      "names round-trip through escaping"
      [ "outer \"quoted\"\n"; "inner" ]
      names
  | _ -> Alcotest.fail "top level not an object"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_counter_semantics () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Metrics.value c);
  let c' = Metrics.counter "test.counter" in
  Alcotest.(check int) "get-or-create shares state" 42 (Metrics.value c');
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes, handle survives" 0 (Metrics.value c);
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c)

let test_gauge_semantics () =
  Metrics.reset ();
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 3.5;
  Metrics.set g 2.25;
  Alcotest.(check (float 1e-12)) "last write wins" 2.25 (Metrics.gauge_value g)

let test_histogram_semantics () =
  Metrics.reset ();
  let h = Metrics.histogram "test.histogram" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 100.0 ];
  let s = Metrics.histogram_stats h in
  Alcotest.(check int) "count" 4 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 107.0 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "mean" 26.75 s.Metrics.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
  (* buckets are on the quarter-octave grid; the total must equal the
     count *)
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 s.Metrics.buckets in
  Alcotest.(check int) "buckets cover all samples" 4 total;
  List.iter
    (fun (bound, _) ->
      let quarters = 4.0 *. Float.log2 bound in
      Alcotest.(check bool) "bound on the quarter-octave grid" true
        (bound = 0.0 || Float.abs (quarters -. Float.round quarters) < 1e-9))
    s.Metrics.buckets;
  (* log-scale quantile clamped to the extrema: p100 -> the max *)
  Alcotest.(check (float 1e-9)) "q=1 hits top bucket" 100.0
    (Metrics.quantile h 1.0);
  Alcotest.(check bool) "median within range" true
    (Metrics.quantile h 0.5 >= 1.0 && Metrics.quantile h 0.5 <= 128.0)

let test_kind_mismatch_rejected () =
  Metrics.reset ();
  ignore (Metrics.counter "test.kind");
  Alcotest.(check bool) "re-registering as gauge raises" true
    (try
       ignore (Metrics.gauge "test.kind");
       false
     with Invalid_argument _ -> true)

let test_dump_lists_instruments () =
  Metrics.reset ();
  Metrics.incr (Metrics.counter "test.dump.counter");
  Metrics.observe (Metrics.histogram "test.dump.histogram") 5.0;
  let dump = Metrics.dump () in
  let contains sub =
    let n = String.length sub and m = String.length dump in
    let rec go i = i + n <= m && (String.sub dump i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter listed" true (contains "test.dump.counter");
  Alcotest.(check bool) "histogram listed" true (contains "test.dump.histogram")

(* ------------------------------------------------------------------ *)
(* Observability must not perturb optimization results                 *)

let small_tree () =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed:515)
      (Repro_cts.Placement.square_die 150.0) ~count:16 ()
  in
  Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:516) sinks ~internals:5

let params =
  { Context.default_params with Context.num_slots = 24; max_interval_classes = 6 }

let solve_small ?(algorithm = Flow.Wavemin) () =
  match
    Flow.run (Flow.prepare ~params ~name:"obs" (small_tree ()))
      (Flow.Single algorithm)
  with
  | Ok r -> r
  | Error (e, _) -> Alcotest.fail (Repro_util.Verrors.to_string e)

(* Every solver, each on its own zone fan-out of the shared class
   search, gives the same result traced and untraced. *)
let test_tracing_does_not_change_results () =
  List.iter
    (fun (algorithm, zone_span) ->
      let run () = solve_small ~algorithm () in
      Trace.set_enabled false;
      Metrics.reset ();
      let plain = run () in
      (* observed run: tracing on, metrics live, logging sources active *)
      let observed = with_tracing run in
      Alcotest.(check bool) "spans were recorded" true
        (List.length (Trace.spans ()) > 0);
      Alcotest.(check (float 0.0)) "peak current bit-identical"
        plain.Flow.metrics.Golden.peak_current_ma
        observed.Flow.metrics.Golden.peak_current_ma;
      Alcotest.(check (float 0.0)) "VDD noise bit-identical"
        plain.Flow.metrics.Golden.vdd_noise_mv
        observed.Flow.metrics.Golden.vdd_noise_mv;
      Alcotest.(check (float 0.0)) "GND noise bit-identical"
        plain.Flow.metrics.Golden.gnd_noise_mv
        observed.Flow.metrics.Golden.gnd_noise_mv;
      Alcotest.(check (float 0.0)) "skew bit-identical"
        plain.Flow.metrics.Golden.skew_ps observed.Flow.metrics.Golden.skew_ps;
      Alcotest.(check (float 0.0)) "predicted peak bit-identical"
        plain.Flow.predicted_peak_ua observed.Flow.predicted_peak_ua;
      Alcotest.(check int) "leaf inverters identical"
        plain.Flow.num_leaf_inverters observed.Flow.num_leaf_inverters;
      Alcotest.(check bool) "approximate flag identical"
        plain.Flow.approximate observed.Flow.approximate;
      Alcotest.(check bool) (zone_span ^ " spans recorded") true
        (List.exists (fun s -> s.Trace.name = zone_span) (Trace.spans ())))
    [ (Flow.Wavemin, "context.zone_solve");
      (Flow.Peakmin, "peakmin.zone_solve");
      (Flow.Sa, "clk_sa.zone_solve") ]

let test_pipeline_metrics_populated () =
  Metrics.reset ();
  let _ = solve_small () in
  let solves = Metrics.value (Metrics.counter "warburton.solves") in
  Alcotest.(check bool) "warburton ran" true (solves > 0);
  let labels = Metrics.histogram "warburton.labels_per_row" in
  Alcotest.(check bool) "per-row label counts recorded" true
    ((Metrics.histogram_stats labels).Metrics.count > 0);
  Alcotest.(check bool) "waveform pulses counted" true
    (Metrics.value (Metrics.counter "waveforms.node_pulses") > 0)

let test_label_cap_reported () =
  (* A tiny cap must both truncate and mark the outcome approximate. *)
  Metrics.reset ();
  let tight = { params with Context.max_labels = 1; epsilon = 0.0 } in
  let ctx = Context.create ~params:tight (small_tree ()) ~cells:(Flow.leaf_library ()) in
  let o = Clk_wavemin.optimize ctx in
  Alcotest.(check bool) "outcome marked approximate" true o.Context.approximate;
  Alcotest.(check bool) "capped counter incremented" true
    (Metrics.value (Metrics.counter "warburton.labels_capped") > 0)

let () =
  Alcotest.run "repro_obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_survives_exception;
          Alcotest.test_case "disabled is free" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "text tree" `Quick test_text_tree_indents;
          Alcotest.test_case "chrome json round-trips" `Quick
            test_chrome_json_parses_back;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "dump" `Quick test_dump_lists_instruments;
        ] );
      ( "non-interference",
        [
          Alcotest.test_case "tracing does not change results" `Quick
            test_tracing_does_not_change_results;
          Alcotest.test_case "pipeline metrics populated" `Quick
            test_pipeline_metrics_populated;
          Alcotest.test_case "label cap reported" `Quick
            test_label_cap_reported;
        ] );
    ]
