module Context = Repro_core.Context
module Clk_wavemin = Repro_core.Clk_wavemin
module Clk_wavemin_f = Repro_core.Clk_wavemin_f
module Clk_peakmin = Repro_core.Clk_peakmin
module Noise_table = Repro_core.Noise_table
module Intervals = Repro_core.Intervals
module Golden = Repro_core.Golden
module Flow = Repro_core.Flow
module Tree = Repro_clocktree.Tree
module Timing = Repro_clocktree.Timing
module Assignment = Repro_clocktree.Assignment
module Library = Repro_cell.Library
module Cell = Repro_cell.Cell
module Rng = Repro_util.Rng

let tree ?(seed = 515) ?(leaves = 16) ?(internals = 5) () =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed)
      (Repro_cts.Placement.square_die 150.0) ~count:leaves ()
  in
  Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:(seed + 1)) sinks ~internals

let cells = Flow.leaf_library ()

let small_params =
  { Context.default_params with Context.num_slots = 24; max_interval_classes = 6 }

let context ?(params = small_params) () =
  Context.create ~params (tree ()) ~cells

(* ------------------------------------------------------------------ *)
(* Context                                                             *)

let test_context_feasible () =
  let ctx = context () in
  Alcotest.(check bool) "feasible" true (Context.feasible ctx)

let test_context_classes_sorted_by_dof () =
  let ctx = context () in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "descending DoF" true
        (a.Context.degree_of_freedom >= b.Context.degree_of_freedom);
      check rest
    | [ _ ] | [] -> ()
  in
  check ctx.Context.classes

let test_context_rejects_empty_cells () =
  Alcotest.check_raises "cells" (Invalid_argument "Context.create: empty cell library")
    (fun () -> ignore (Context.create (tree ()) ~cells:[]))

let test_context_infeasible_kappa () =
  let params = { small_params with Context.kappa = 0.01 } in
  let ctx = Context.create ~params (tree ()) ~cells in
  Alcotest.(check bool) "infeasible" false (Context.feasible ctx);
  (* The failure is now a structured error: code [Infeasible_window],
     with a diagnosis (binding sinks, the minimum feasible window width,
     the effective kappa) in the message; assert its load-bearing pieces
     rather than the exact prose. *)
  match Clk_wavemin.optimize ctx with
  | _ -> Alcotest.fail "solve must fail on an infeasible kappa"
  | exception Repro_util.Verrors.Error e ->
    Alcotest.(check string)
      "code" "infeasible-window"
      (Repro_util.Verrors.code_name e.Repro_util.Verrors.code);
    let msg = e.Repro_util.Verrors.message in
    let contains needle =
      let n = String.length needle and h = String.length msg in
      let rec go i =
        i + n <= h && (String.sub msg i n = needle || go (i + 1))
      in
      Alcotest.(check bool) ("message mentions " ^ needle) true (go 0)
    in
    contains "no feasible interval";
    contains "kappa";
    contains "leaf "

(* ------------------------------------------------------------------ *)
(* Skew safety: every algorithm's output must respect kappa            *)

let skew_of ctx asg =
  let timing =
    Timing.analyze ctx.Context.tree asg ctx.Context.env
      ~edge:Repro_cell.Electrical.Rising
  in
  Timing.skew ctx.Context.tree timing

let check_skew name optimize =
  let ctx = context () in
  let outcome = optimize ctx in
  let skew = skew_of ctx outcome.Context.assignment in
  Alcotest.(check bool)
    (name ^ " respects kappa")
    true
    (skew <= ctx.Context.params.Context.kappa +. 1e-6)

let test_wavemin_skew () = check_skew "wavemin" Clk_wavemin.optimize
let test_wavemin_f_skew () = check_skew "wavemin-f" Clk_wavemin_f.optimize
let test_peakmin_skew () = check_skew "peakmin" Clk_peakmin.optimize

(* ------------------------------------------------------------------ *)
(* Quality relations                                                   *)

let test_wavemin_predicts_leq_greedy () =
  (* The approximation search cannot be worse than the greedy under the
     same model (both pick from the same classes/zones; wavemin
     minimizes the zone estimate that greedy also reports). *)
  let ctx = context () in
  let a = Clk_wavemin.optimize ctx in
  let b = Clk_wavemin_f.optimize ctx in
  Alcotest.(check bool) "estimate ordering" true
    (a.Context.predicted_peak_ua <= b.Context.predicted_peak_ua +. 1e-6)

let test_optimized_beats_initial_golden () =
  let t = tree ~leaves:24 ~internals:7 () in
  let env = Timing.nominal () in
  let initial = Assignment.default t ~num_modes:1 in
  let m0 = Golden.evaluate t initial env in
  let ctx = Context.create ~params:small_params ~env t ~cells in
  let o = Clk_wavemin.optimize ctx in
  let m1 = Golden.evaluate t o.Context.assignment env in
  Alcotest.(check bool) "peak reduced" true
    (m1.Golden.peak_current_ma < m0.Golden.peak_current_ma)

let test_polarity_mix_produced () =
  let ctx = context () in
  let o = Clk_wavemin.optimize ctx in
  let inv =
    Assignment.count_leaves o.Context.assignment ctx.Context.tree
      ~pred:(fun c -> Cell.polarity c = Cell.Negative)
  in
  let total = Tree.num_leaves ctx.Context.tree in
  Alcotest.(check bool) "some inverters" true (inv > 0);
  Alcotest.(check bool) "some buffers" true (inv < total)

let test_zone_choices_are_available () =
  let ctx = context () in
  let cls = List.hd ctx.Context.classes in
  Array.iter
    (fun table ->
      let avail =
        Array.map
          (fun row -> cls.Context.avail.(row))
          table.Noise_table.sink_rows
      in
      List.iter
        (fun (name, solver) ->
          let choices, _ = solver ctx table ~avail in
          Array.iteri
            (fun zi ci ->
              Alcotest.(check bool) (name ^ " picks available") true avail.(zi).(ci))
            choices)
        [ ("wavemin", Clk_wavemin.zone_solver);
          ("greedy", Clk_wavemin_f.zone_solver);
          ("peakmin", Clk_peakmin.zone_solver) ])
    ctx.Context.tables

let test_peakmin_balances_rails () =
  (* On a uniform zone, PeakMin must split polarities roughly in half. *)
  let ctx = context () in
  let o = Clk_peakmin.optimize ctx in
  let inv =
    Assignment.count_leaves o.Context.assignment ctx.Context.tree
      ~pred:(fun c -> Cell.polarity c = Cell.Negative)
  in
  let total = Tree.num_leaves ctx.Context.tree in
  Alcotest.(check bool) "roughly half" true
    (inv >= total / 4 && inv <= 3 * total / 4)

let test_peakmin_balance_objective () =
  let ctx = context () in
  let table = ctx.Context.tables.(0) in
  let n = Array.length table.Noise_table.sinks in
  let choices = Array.make n 0 in
  (* all BUF_X8: everything on the positive rail *)
  let all_pos = Clk_peakmin.zone_balance_objective table ~choices in
  let manual =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun zi _ -> table.Noise_table.cand_peak.(zi).(0)) choices)
  in
  Alcotest.(check (float 1e-9)) "sum" manual all_pos

let test_mosp_encoding_rejects_empty_row () =
  let ctx = context () in
  let table = ctx.Context.tables.(0) in
  let n = Array.length table.Noise_table.sinks in
  let avail = Array.make_matrix n 4 false in
  Alcotest.check_raises "empty row"
    (Invalid_argument "Clk_wavemin.to_mosp: sink without available candidate")
    (fun () -> ignore (Clk_wavemin.to_mosp table ~avail))

let test_mosp_encoding_structure () =
  let ctx = context () in
  let table = ctx.Context.tables.(0) in
  let cls = List.hd ctx.Context.classes in
  let avail =
    Array.map (fun row -> cls.Context.avail.(row)) table.Noise_table.sink_rows
  in
  let graph, mapping = Clk_wavemin.to_mosp table ~avail in
  Alcotest.(check int) "rows = sinks"
    (Array.length table.Noise_table.sinks)
    (Repro_mosp.Layered.num_rows graph);
  Alcotest.(check int) "dim = slots"
    (Array.length table.Noise_table.nonleaf)
    (Repro_mosp.Layered.dimension graph);
  Array.iteri
    (fun row admitted ->
      Array.iter
        (fun ci -> Alcotest.(check bool) "mapping valid" true avail.(row).(ci))
        admitted)
    mapping

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)

let test_flow_run_tree () =
  let t = tree () in
  let r =
    match
      Flow.run (Flow.prepare ~params:small_params ~name:"toy" t)
        (Flow.Single Flow.Wavemin_fast)
    with
    | Ok r -> r
    | Error (e, _) -> Alcotest.fail (Repro_util.Verrors.to_string e)
  in
  Alcotest.(check string) "name" "toy" r.Flow.benchmark;
  Alcotest.(check bool) "skew bound" true
    (r.Flow.metrics.Golden.skew_ps <= small_params.Context.kappa +. 1e-6);
  Alcotest.(check bool) "positive metrics" true
    (r.Flow.metrics.Golden.peak_current_ma > 0.0)

let context_creates f =
  Repro_obs.Trace.reset ();
  Repro_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Repro_obs.Trace.set_enabled false)
    (fun () ->
      f ();
      List.length
        (List.filter
           (fun s -> s.Repro_obs.Trace.name = "context.create")
           (Repro_obs.Trace.spans ())))

let test_flow_context_built_once () =
  (* Concurrent runs of different solvers on one prepared design share
     a single context build.  The tree is big enough that a build spans
     a thread switch, so an unguarded memo would build more than once. *)
  let prep =
    Flow.prepare ~params:small_params ~name:"once"
      (tree ~leaves:160 ~internals:16 ())
  in
  let algorithms =
    List.concat_map
      (fun alg -> [ alg; alg ])
      [ Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast; Flow.Sa ]
  in
  let results = Array.make (List.length algorithms) None in
  let creates =
    context_creates (fun () ->
        List.mapi
          (fun i alg ->
            Thread.create
              (fun () -> results.(i) <- Some (Flow.run prep (Flow.Single alg)))
              ())
          algorithms
        |> List.iter Thread.join)
  in
  Array.iter
    (function
      | Some (Ok _) -> ()
      | Some (Error (e, _)) -> Alcotest.fail (Repro_util.Verrors.to_string e)
      | None -> Alcotest.fail "thread did not finish")
    results;
  Alcotest.(check int) "one context.create" 1 creates

let test_flow_failed_context_not_memoized () =
  let prep = Flow.prepare ~params:small_params ~name:"retry" (tree ()) in
  let run () = Flow.run prep (Flow.Single Flow.Wavemin_fast) in
  let creates =
    context_creates (fun () ->
        (match Repro_obs.Fault.set_spec "noise-table:1" with
        | Error msg -> Alcotest.fail msg
        | Ok () -> ());
        let faulted =
          Fun.protect ~finally:Repro_obs.Fault.clear (fun () -> run ())
        in
        Alcotest.(check bool) "faulted build fails" true (Result.is_error faulted);
        Alcotest.(check bool) "next run retries" true (Result.is_ok (run ()));
        Alcotest.(check bool) "then reuses" true (Result.is_ok (run ())))
  in
  Alcotest.(check int) "failed build + one successful build" 2 creates

let test_flow_improvement_pct () =
  Alcotest.(check (float 1e-9)) "pos" 50.0
    (Flow.improvement_pct ~baseline:10.0 ~value:5.0);
  Alcotest.(check (float 1e-9)) "neg" (-50.0)
    (Flow.improvement_pct ~baseline:10.0 ~value:15.0);
  Alcotest.(check (float 1e-9)) "zero baseline" 0.0
    (Flow.improvement_pct ~baseline:0.0 ~value:5.0)

let test_flow_names () =
  Alcotest.(check string) "wavemin" "ClkWaveMin" (Flow.algorithm_name Flow.Wavemin);
  Alcotest.(check string) "fast" "ClkWaveMin-f" (Flow.algorithm_name Flow.Wavemin_fast);
  Alcotest.(check string) "baseline" "ClkPeakMin" (Flow.algorithm_name Flow.Peakmin);
  Alcotest.(check string) "initial" "Initial" (Flow.algorithm_name Flow.Initial)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_all_solvers_respect_kappa =
  QCheck.Test.make ~name:"solver outputs respect kappa" ~count:8
    QCheck.(int_range 1 10000)
    (fun seed ->
      let t = tree ~seed ~leaves:10 ~internals:3 () in
      let ctx = Context.create ~params:small_params t ~cells in
      (not (Context.feasible ctx))
      || List.for_all
           (fun optimize ->
             let o = optimize ctx in
             skew_of ctx o.Context.assignment
             <= small_params.Context.kappa +. 1e-6)
           [ Clk_wavemin.optimize; Clk_wavemin_f.optimize; Clk_peakmin.optimize ])

let () =
  Alcotest.run "repro_core_solvers"
    [
      ( "context",
        [
          Alcotest.test_case "feasible" `Quick test_context_feasible;
          Alcotest.test_case "classes sorted" `Quick
            test_context_classes_sorted_by_dof;
          Alcotest.test_case "rejects empty cells" `Quick
            test_context_rejects_empty_cells;
          Alcotest.test_case "infeasible kappa" `Quick test_context_infeasible_kappa;
        ] );
      ( "skew safety",
        [
          Alcotest.test_case "wavemin" `Quick test_wavemin_skew;
          Alcotest.test_case "wavemin-f" `Quick test_wavemin_f_skew;
          Alcotest.test_case "peakmin" `Quick test_peakmin_skew;
        ] );
      ( "quality",
        [
          Alcotest.test_case "wavemin <= greedy estimate" `Quick
            test_wavemin_predicts_leq_greedy;
          Alcotest.test_case "beats initial (golden)" `Quick
            test_optimized_beats_initial_golden;
          Alcotest.test_case "polarity mix" `Quick test_polarity_mix_produced;
          Alcotest.test_case "choices available" `Quick test_zone_choices_are_available;
          Alcotest.test_case "peakmin balances" `Quick test_peakmin_balances_rails;
          Alcotest.test_case "peakmin objective" `Quick test_peakmin_balance_objective;
          Alcotest.test_case "mosp rejects empty row" `Quick
            test_mosp_encoding_rejects_empty_row;
          Alcotest.test_case "mosp structure (Algorithm 1)" `Quick
            test_mosp_encoding_structure;
        ] );
      ( "flow",
        [
          Alcotest.test_case "run tree" `Quick test_flow_run_tree;
          Alcotest.test_case "context built once" `Quick
            test_flow_context_built_once;
          Alcotest.test_case "failed context not memoized" `Quick
            test_flow_failed_context_not_memoized;
          Alcotest.test_case "improvement pct" `Quick test_flow_improvement_pct;
          Alcotest.test_case "names" `Quick test_flow_names;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_all_solvers_respect_kappa ] );
    ]
