(* End-to-end integration: the full flow (synthesize -> optimize ->
   golden evaluate) on real benchmark specs, asserting the system-level
   claims rather than module behaviour. *)

module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Benchmarks = Repro_cts.Benchmarks
module Tree = Repro_clocktree.Tree

(* Cheap parameters keep the whole suite fast; shapes do not depend on
   the slot budget beyond |S| >= ~16. *)
let params =
  { Context.default_params with Context.num_slots = 16; max_interval_classes = 8 }

let specs = [ "s13207"; "s15850"; "ispd09f34" ]

let run spec_name algo tree =
  match Flow.run (Flow.prepare ~params ~name:spec_name tree) (Flow.Single algo) with
  | Ok r -> r
  | Error (e, _) ->
    Alcotest.failf "%s: %s" spec_name (Repro_util.Verrors.to_string e)

let test_benchmarks_improve () =
  List.iter
    (fun name ->
      let spec = Benchmarks.find name in
      let tree = Benchmarks.synthesize spec in
      let initial = run name Flow.Initial tree in
      List.iter
        (fun algo ->
          let r = run name algo tree in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s beats initial" name (Flow.algorithm_name algo))
            true
            (r.Flow.metrics.Golden.peak_current_ma
            < initial.Flow.metrics.Golden.peak_current_ma);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s respects kappa" name (Flow.algorithm_name algo))
            true
            (r.Flow.metrics.Golden.skew_ps <= params.Context.kappa +. 1e-6))
        [ Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast ])
    specs

let test_benchmark_structure_matches_paper () =
  List.iter
    (fun spec ->
      let tree = Benchmarks.synthesize spec in
      Alcotest.(check int) (spec.Benchmarks.name ^ " n")
        spec.Benchmarks.num_nodes (Tree.size tree);
      Alcotest.(check int)
        (spec.Benchmarks.name ^ " |L|")
        spec.Benchmarks.num_leaves (Tree.num_leaves tree))
    Benchmarks.all

let test_wavemin_not_much_worse_than_greedy_anywhere () =
  (* System-level sanity: with the admissible-completion beam, the
     approximation never trails the greedy badly on the golden metric. *)
  List.iter
    (fun name ->
      let spec = Benchmarks.find name in
      let tree = Benchmarks.synthesize spec in
      let wm = run name Flow.Wavemin tree in
      let wf = run name Flow.Wavemin_fast tree in
      Alcotest.(check bool)
        (name ^ " wavemin within 10% of greedy")
        true
        (wm.Flow.metrics.Golden.peak_current_ma
        <= 1.10 *. wf.Flow.metrics.Golden.peak_current_ma))
    specs

let test_deterministic_across_runs () =
  let name = "s15850" in
  let spec = Benchmarks.find name in
  let r1 = run name Flow.Wavemin (Benchmarks.synthesize spec) in
  let r2 = run name Flow.Wavemin (Benchmarks.synthesize spec) in
  Alcotest.(check (float 1e-9)) "same peak"
    r1.Flow.metrics.Golden.peak_current_ma r2.Flow.metrics.Golden.peak_current_ma;
  Alcotest.(check int) "same inverters" r1.Flow.num_leaf_inverters
    r2.Flow.num_leaf_inverters

let test_predicted_tracks_golden_direction () =
  (* The estimate and the golden metric must agree on the ordering
     initial vs optimized (not on absolute values). *)
  let name = "s13207" in
  let spec = Benchmarks.find name in
  let tree = Benchmarks.synthesize spec in
  let env = Repro_clocktree.Timing.nominal () in
  let ctx = Context.create ~params ~env tree ~cells:(Flow.leaf_library ()) in
  let o = Repro_core.Clk_wavemin.optimize ctx in
  let initial_choice_peak =
    (* Estimate of the all-default choice in the same tables: candidate
       0 is BUF_X8 = the default leaf cell. *)
    Array.fold_left
      (fun acc table ->
        let n = Array.length table.Repro_core.Noise_table.sinks in
        Float.max acc
          (Repro_core.Noise_table.zone_objective table ~choices:(Array.make n 0)))
      0.0 ctx.Context.tables
  in
  Alcotest.(check bool) "estimate improves over default" true
    (o.Context.predicted_peak_ua < initial_choice_peak)

let () =
  Alcotest.run "repro_integration"
    [
      ( "integration",
        [
          Alcotest.test_case "benchmarks improve" `Slow test_benchmarks_improve;
          Alcotest.test_case "structure matches paper" `Slow
            test_benchmark_structure_matches_paper;
          Alcotest.test_case "wavemin vs greedy" `Slow
            test_wavemin_not_much_worse_than_greedy_anywhere;
          Alcotest.test_case "deterministic" `Quick test_deterministic_across_runs;
          Alcotest.test_case "estimate tracks golden" `Quick
            test_predicted_tracks_golden_direction;
        ] );
    ]
