(* The robustness contract under fault injection: with any seam armed
   the pipeline returns a solution, a diagnosed degradation or a
   structured error — never an uncaught exception.  Plus unit tests for
   the fault-spec parser, budgets, and parser/report fuzzing. *)

module Fault = Repro_obs.Fault
module Budget = Repro_obs.Budget
module Verrors = Repro_util.Verrors
module Json = Repro_util.Json
module Report = Repro_obs.Report
module Flow = Repro_core.Flow
module Liberty = Repro_cell.Liberty
module Library = Repro_cell.Library
module Rng = Repro_util.Rng

(* Every test that arms a seam must disarm it, also on failure; global
   fault state leaking across tests would poison the rest of the run. *)
let with_spec spec f =
  match Fault.set_spec spec with
  | Error msg -> Alcotest.failf "set_spec %S: %s" spec msg
  | Ok () -> Fun.protect ~finally:Fault.clear f

let small_tree ~seed =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed)
      (Repro_cts.Placement.square_die 150.0) ~count:8 ()
  in
  Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:(seed + 1)) sinks
    ~internals:3

(* ---- spec parsing -------------------------------------------------- *)

let test_spec_parsing () =
  List.iter
    (fun spec ->
      match Fault.set_spec spec with
      | Ok () -> Fault.clear ()
      | Error msg -> Alcotest.failf "spec %S rejected: %s" spec msg)
    [ ""; "parser"; "parser:1"; "noise-table:0.25,seed:42";
      "parser:0.5,waveform-cache:0.5,pool-task:1,report-writer:0,seed:7" ];
  List.iter
    (fun spec ->
      match Fault.set_spec spec with
      | Error _ -> ()
      | Ok () ->
        Fault.clear ();
        Alcotest.failf "malformed spec %S accepted" spec)
    [ "bogus-seam"; "parser:nan"; "parser:1.5"; "parser:-0.1"; "seed:xyz" ]

let test_spec_activation () =
  Fault.clear ();
  Alcotest.(check bool) "inert when cleared" false (Fault.active ());
  with_spec "parser:1" (fun () ->
      Alcotest.(check bool) "active" true (Fault.active ()));
  Alcotest.(check bool) "inert again" false (Fault.active ())

let test_seam_names_roundtrip () =
  List.iter
    (fun seam ->
      Alcotest.(check bool)
        (Fault.seam_name seam ^ " resolves")
        true
        (Fault.seam_of_name (Fault.seam_name seam) = Some seam))
    Fault.all_seams

(* ---- tripping ------------------------------------------------------ *)

let test_parser_seam_trips () =
  with_spec "parser:1" (fun () ->
      let before = Fault.trips () in
      match Liberty.parse (Liberty.to_string [ Library.buf 8 ]) with
      | _ -> Alcotest.fail "armed parser seam must raise"
      | exception Verrors.Error e ->
        Alcotest.(check string)
          "code" "fault-injected"
          (Verrors.code_name e.Verrors.code);
        Alcotest.(check bool) "trips counted" true (Fault.trips () > before))

let test_zero_probability_never_trips () =
  with_spec "parser:0" (fun () ->
      match Liberty.parse (Liberty.to_string [ Library.buf 8 ]) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "parse error: %a" Liberty.pp_error e)

let test_report_writer_seam () =
  let b =
    Report.create ~experiment:"fault-test" ~suite:[] ~seeds:[] ~config:[] ()
  in
  let report = Report.finalize b in
  let path = Filename.temp_file "wavemin_fault" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      with_spec "report-writer:1" (fun () ->
          match Report.write path report with
          | _ -> Alcotest.fail "armed report-writer seam must raise"
          | exception Verrors.Error e ->
            Alcotest.(check string)
              "code" "fault-injected"
              (Verrors.code_name e.Verrors.code));
      (* Disarmed, the same write succeeds and round-trips. *)
      Report.write path report;
      match Report.read path with
      | Ok r -> Alcotest.(check bool) "roundtrip" true (Report.equal r report)
      | Error msg -> Alcotest.failf "read back: %s" msg)

(* ---- the headline contract: the flow never raises ------------------ *)

let flow_never_raises ~spec ~seed =
  with_spec spec (fun () ->
      let tree = small_tree ~seed in
      match
        Flow.run (Flow.prepare ~name:"fault-test" tree) (Flow.Chain Flow.Wavemin)
      with
      | Ok _ -> true
      | Error (e, degs) ->
        (* Exhausted chain: the last link must record the exhaustion. *)
        ignore (Verrors.to_string e);
        (match List.rev degs with
        | last :: _ -> last.Flow.to_alg = None
        | [] -> false))

let test_flow_survives_every_seam () =
  List.iter
    (fun seam ->
      Alcotest.(check bool)
        (Fault.seam_name seam ^ " survived")
        true
        (flow_never_raises
           ~spec:(Printf.sprintf "%s:1" (Fault.seam_name seam))
           ~seed:11))
    Fault.all_seams

let prop_flow_survives_random_faults =
  QCheck.Test.make ~count:12 ~name:"flow survives probabilistic faults"
    QCheck.(pair (int_range 1 1000) (int_bound 100))
    (fun (seed, pct) ->
      let spec =
        Printf.sprintf
          "waveform-cache:%.2f,noise-table:%.2f,pool-task:%.2f,seed:%d"
          (float_of_int pct /. 100.0)
          (float_of_int pct /. 100.0)
          (float_of_int pct /. 100.0)
          seed
      in
      flow_never_raises ~spec ~seed)

let test_no_faults_no_degradations () =
  Fault.clear ();
  let tree = small_tree ~seed:5 in
  match Flow.run (Flow.prepare ~name:"clean" tree) (Flow.Chain Flow.Wavemin) with
  | Ok r ->
    Alcotest.(check int) "no degradations" 0 (List.length r.Flow.degradations);
    Alcotest.(check string) "ran the requested algorithm" "ClkWaveMin"
      (Flow.algorithm_name r.Flow.algorithm)
  | Error (e, _) -> Alcotest.failf "clean run failed: %s" (Verrors.to_string e)

(* ---- budgets ------------------------------------------------------- *)

let test_budget_label_cap () =
  let b = Budget.create ~max_labels:10 () in
  Budget.charge_labels b 5;
  Alcotest.(check int) "labels tallied" 5 (Budget.labels_used b);
  Alcotest.(check bool) "within budget" true (Budget.exceeded b = None);
  (match Budget.charge_labels b 6 with
  | _ -> Alcotest.fail "over-cap charge must raise"
  | exception Verrors.Error e ->
    Alcotest.(check string)
      "code" "budget-exhausted"
      (Verrors.code_name e.Verrors.code));
  (* Sticky: once tripped, every later check raises too. *)
  match Budget.check b with
  | _ -> Alcotest.fail "tripped budget must stay tripped"
  | exception Verrors.Error _ ->
    Alcotest.(check bool) "exceeded reported" true (Budget.exceeded b <> None)

let test_budget_invalid_limits () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "non-positive limit must be rejected"
      | exception Invalid_argument _ -> ())
    [ (fun () -> Budget.create ~wall_ms:0.0 ());
      (fun () -> Budget.create ~max_labels:0 ()) ]

let test_budget_ambient_scoping () =
  Alcotest.(check bool) "no ambient budget" true (Budget.current () = None);
  Budget.check_current ();
  let b = Budget.create ~max_labels:1000 () in
  Budget.with_current b (fun () ->
      Alcotest.(check bool) "installed" true (Budget.current () = Some b);
      Budget.charge_labels_current 3);
  Alcotest.(check int) "ambient charges reached it" 3 (Budget.labels_used b);
  Alcotest.(check bool) "restored" true (Budget.current () = None)

let test_budget_degrades_flow () =
  (* A label budget too small for ClkWaveMin: the robust runner must
     fall back down the chain and still produce a result, recording the
     budget-exhausted link.  Label counts are deterministic, so this
     does not depend on machine speed. *)
  let tree = small_tree ~seed:3 in
  let budget = Budget.create ~max_labels:1 () in
  match
    Flow.run ~budget (Flow.prepare ~name:"budgeted" tree) (Flow.Chain Flow.Wavemin)
  with
  | Error (e, _) ->
    Alcotest.failf "chain must not exhaust: %s" (Verrors.to_string e)
  | Ok r ->
    Alcotest.(check bool) "degraded" true (r.Flow.degradations <> []);
    let first = List.hd r.Flow.degradations in
    Alcotest.(check string)
      "first failure is the budget" "budget-exhausted"
      (Verrors.code_name first.Flow.error.Verrors.code);
    Alcotest.(check bool) "did not run ClkWaveMin" true
      (r.Flow.algorithm <> Flow.Wavemin)

let prop_label_trip_independent_of_jobs =
  (* Parallel zone solves replay their label charges in zone order, so
     which attempt trips, and the count in its message, is the same at
     every job count. *)
  let tree = Repro_cts.Benchmarks.(synthesize (find "s15850")) in
  QCheck.Test.make ~count:6 ~name:"label-budget trip identical at jobs 1/2/4"
    QCheck.(int_range 1 1500)
    (fun cap ->
      let degradations jobs =
        Repro_par.Par.with_jobs jobs (fun () ->
            let budget = Budget.create ~max_labels:cap () in
            let degs =
              match
                Flow.run ~budget (Flow.prepare ~name:"jobs" tree)
                  (Flow.Chain Flow.Wavemin)
              with
              | Ok r -> r.Flow.degradations
              | Error (_, degs) -> degs
            in
            List.map
              (fun (d : Flow.degradation) -> Verrors.to_string d.Flow.error)
              degs)
      in
      let d1 = degradations 1 in
      d1 = degradations 2 && d1 = degradations 4)

let test_label_trip_sequential_work () =
  (* At jobs 1 a tripped run does exactly the Warburton work of a plain
     sequential zone loop: zones past the trip never start.  The
     expected (solves, rows) pairs are those of the shared-tally loop
     this replaced. *)
  let module M = Repro_obs.Metrics in
  let tree = small_tree ~seed:3 in
  List.iter
    (fun (cap, solves, rows) ->
      M.reset ();
      let budget = Budget.create ~max_labels:cap () in
      (match
         Repro_par.Par.with_jobs 1 (fun () ->
             Flow.run ~budget (Flow.prepare ~name:"work" tree)
               (Flow.Single Flow.Wavemin))
       with
      | Ok _ -> Alcotest.failf "cap %d must trip" cap
      | Error (e, _) ->
        Alcotest.(check string) "tripped" "budget-exhausted"
          (Verrors.code_name e.Verrors.code));
      Alcotest.(check (pair int int))
        (Printf.sprintf "cap %d: solves, rows" cap)
        (solves, rows)
        ( M.value (M.counter "warburton.solves"),
          (M.histogram_stats (M.histogram "warburton.labels_per_row")).M.count
        ))
    [ (10, 3, 2); (50, 5, 6); (200, 23, 30) ]

let test_labels_kept_on_task_error () =
  (* A task failing for another reason still leaves the labels charged
     before it on the budget. *)
  let budget = Budget.create ~max_labels:100 () in
  (match
     Repro_par.Par.with_jobs 1 (fun () ->
         Budget.with_current budget (fun () ->
             Repro_par.Par.parallel_init 4 (fun i ->
                 Budget.charge_labels_current 10;
                 if i = 2 then failwith "boom")))
   with
  | _ -> Alcotest.fail "task error must propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "labels of tasks 0..2" 30 (Budget.labels_used budget)

(* ---- fuzzing ------------------------------------------------------- *)

(* Json.parse must be total: any byte string yields Ok or Error. *)
let prop_json_of_string_never_raises =
  QCheck.Test.make ~count:500 ~name:"Json.of_string total on random bytes"
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

(* ... including near-miss inputs: a valid report document with one
   byte flipped. *)
let prop_json_total_on_mutated_report =
  let b =
    Report.create ~experiment:"fuzz" ~suite:[ "s1" ] ~seeds:[ ("s1", 1) ]
      ~config:[ ("kappa", "20.") ] ()
  in
  Report.add_sample b ~benchmark:"s1" ~algorithm:"ClkWaveMin"
    ~quality:[ ("peak_current_ma", 1.25) ]
    ~runtime:[ ("wall_s", 0.5) ] ();
  Report.add_degradation b
    { Report.benchmark = "s1"; algorithm = "ClkWaveMin";
      from_alg = "ClkWaveMin"; to_alg = Some "ClkPeakMin";
      code = "budget-exhausted"; detail = "wall clock budget exhausted" };
  let doc = Report.to_string (Report.finalize b) in
  QCheck.Test.make ~count:300 ~name:"Json.of_string total on mutated report"
    QCheck.(pair (int_bound (String.length doc - 1)) (int_bound 255))
    (fun (at, byte) ->
      let mutated = Bytes.of_string doc in
      Bytes.set mutated at (Char.chr byte);
      match Json.of_string (Bytes.to_string mutated) with
      | Ok _ | Error _ -> true)

(* Report.read on a truncated file is an Error, never an exception. *)
let prop_truncated_report_rejected =
  let b =
    Report.create ~experiment:"trunc" ~suite:[ "s1" ] ~seeds:[ ("s1", 1) ]
      ~config:[] ()
  in
  Report.add_sample b ~benchmark:"s1" ~algorithm:"ClkWaveMin"
    ~quality:[ ("peak_current_ma", 1.0) ] ();
  let doc = Report.to_string (Report.finalize b) in
  QCheck.Test.make ~count:50 ~name:"Report.read rejects truncated files"
    QCheck.(int_bound (String.length doc - 1))
    (fun len ->
      let path = Filename.temp_file "wavemin_trunc" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin path in
          output_string oc (String.sub doc 0 len);
          close_out oc;
          match Report.read path with Error _ -> true | Ok _ -> false))

(* Degradations round-trip through the JSON schema. *)
let test_report_degradations_roundtrip () =
  let b =
    Report.create ~experiment:"degs" ~suite:[ "s1" ] ~seeds:[] ~config:[] ()
  in
  Report.add_degradation b
    { Report.benchmark = "s1"; algorithm = "ClkWaveMin";
      from_alg = "ClkWaveMin"; to_alg = None; code = "fault-injected";
      detail = "seam pool-task" };
  let r = Report.finalize b in
  match Report.of_string (Report.to_string r) with
  | Error msg -> Alcotest.failf "roundtrip: %s" msg
  | Ok r' ->
    Alcotest.(check bool) "equal" true (Report.equal r r');
    Alcotest.(check int) "one degradation" 1 (List.length r'.Report.degradations)

let () =
  Alcotest.run "repro_fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parsing" `Quick test_spec_parsing;
          Alcotest.test_case "activation" `Quick test_spec_activation;
          Alcotest.test_case "seam names" `Quick test_seam_names_roundtrip;
        ] );
      ( "seams",
        [
          Alcotest.test_case "parser trips" `Quick test_parser_seam_trips;
          Alcotest.test_case "zero probability" `Quick
            test_zero_probability_never_trips;
          Alcotest.test_case "report writer" `Quick test_report_writer_seam;
        ] );
      ( "contract",
        Alcotest.test_case "flow survives every seam" `Quick
          test_flow_survives_every_seam
        :: Alcotest.test_case "no faults, no degradations" `Quick
             test_no_faults_no_degradations
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_flow_survives_random_faults ] );
      ( "budget",
        [
          Alcotest.test_case "label cap" `Quick test_budget_label_cap;
          Alcotest.test_case "invalid limits" `Quick test_budget_invalid_limits;
          Alcotest.test_case "ambient scoping" `Quick test_budget_ambient_scoping;
          Alcotest.test_case "degrades the flow" `Quick test_budget_degrades_flow;
          QCheck_alcotest.to_alcotest prop_label_trip_independent_of_jobs;
          Alcotest.test_case "trip work at jobs 1" `Quick
            test_label_trip_sequential_work;
          Alcotest.test_case "labels kept on task error" `Quick
            test_labels_kept_on_task_error;
        ] );
      ( "fuzz",
        Alcotest.test_case "degradations roundtrip" `Quick
          test_report_degradations_roundtrip
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_json_of_string_never_raises;
               prop_json_total_on_mutated_report;
               prop_truncated_report_rejected;
             ] );
    ]
