(* Cross-module edge cases and failure injection: minimal trees, extreme
   parameters, and boundary inputs that the main suites don't reach. *)

module Tree = Repro_clocktree.Tree
module Wire = Repro_clocktree.Wire
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell
module Library = Repro_cell.Library
module Electrical = Repro_cell.Electrical
module Context = Repro_core.Context
module Flow = Repro_core.Flow
module Golden = Repro_core.Golden
module Rng = Repro_util.Rng

(* The smallest legal optimizable tree: one internal driver, two leaves. *)
let minimal_tree () =
  let node id parent children kind x y wire_len sink_cap cell =
    { Tree.id; parent; children; kind; x; y;
      wire = Wire.of_length wire_len; sink_cap; default_cell = cell }
  in
  Tree.create
    [|
      node 0 None [ 1; 2 ] Tree.Internal 10.0 10.0 0.0 0.0 (Library.buf 16);
      node 1 (Some 0) [] Tree.Leaf 5.0 5.0 8.0 12.0 (Library.buf 8);
      node 2 (Some 0) [] Tree.Leaf 15.0 15.0 8.0 14.0 (Library.buf 8);
    |]

let test_minimal_tree_full_flow () =
  let t = minimal_tree () in
  List.iter
    (fun algo ->
      match Flow.run (Flow.prepare ~name:"minimal" t) (Flow.Single algo) with
      | Ok r ->
        Alcotest.(check bool)
          (Flow.algorithm_name algo ^ " works")
          true
          (r.Flow.metrics.Golden.peak_current_ma > 0.0)
      | Error (e, _) -> Alcotest.fail (Repro_util.Verrors.to_string e))
    [ Flow.Initial; Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast ]

let test_single_leaf_tree () =
  (* A root-only leaf is legal; timing and golden still work. *)
  let t =
    Tree.create
      [|
        {
          Tree.id = 0; parent = None; children = []; kind = Tree.Leaf;
          x = 1.0; y = 1.0; wire = Wire.zero; sink_cap = 10.0;
          default_cell = Library.buf 8;
        };
      |]
  in
  let asg = Assignment.default t ~num_modes:1 in
  let m = Golden.evaluate t asg (Timing.nominal ()) in
  Alcotest.(check bool) "positive peak" true (m.Golden.peak_current_ma > 0.0);
  Alcotest.(check (float 1e-9)) "zero skew" 0.0 m.Golden.skew_ps

let test_every_leaf_its_own_zone () =
  (* Tiny zones: every leaf alone; the solvers degenerate to per-leaf
     choices and must still respect the skew bound. *)
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed:99)
      (Repro_cts.Placement.square_die 400.0) ~count:10 ()
  in
  let t = Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:98) sinks ~internals:3 in
  let params =
    { Context.default_params with Context.zone_side = 1.0; num_slots = 8 }
  in
  let ctx = Context.create ~params t ~cells:(Flow.leaf_library ()) in
  Alcotest.(check int) "one leaf per zone" (Tree.num_leaves t)
    (Repro_core.Zones.num_zones ctx.Context.zones);
  let o = Repro_core.Clk_wavemin.optimize ctx in
  let timing =
    Timing.analyze t o.Context.assignment ctx.Context.env ~edge:Electrical.Rising
  in
  Alcotest.(check bool) "skew ok" true
    (Timing.skew t timing <= params.Context.kappa +. 1e-6)

let test_one_giant_zone () =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed:97)
      (Repro_cts.Placement.square_die 100.0) ~count:8 ()
  in
  let t = Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:96) sinks ~internals:3 in
  let params =
    { Context.default_params with Context.zone_side = 10000.0; num_slots = 8 }
  in
  let ctx = Context.create ~params t ~cells:(Flow.leaf_library ()) in
  Alcotest.(check int) "single zone" 1 (Repro_core.Zones.num_zones ctx.Context.zones);
  let o = Repro_core.Clk_wavemin.optimize ctx in
  Alcotest.(check bool) "positive estimate" true (o.Context.predicted_peak_ua > 0.0)

let test_golden_worst_over_modes_empty () =
  let t = minimal_tree () in
  let asg = Assignment.default t ~num_modes:1 in
  Alcotest.check_raises "no modes"
    (Invalid_argument "Golden.worst_over_modes: no modes") (fun () ->
      ignore (Golden.worst_over_modes t asg [||]))

let test_liberty_empty_input () =
  match Repro_cell.Liberty.parse "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "expected empty library"
  | Error e -> Alcotest.failf "unexpected error: %a" Repro_cell.Liberty.pp_error e

let test_pwl_extreme_shift () =
  let module Pwl = Repro_waveform.Pwl in
  let w = Pwl.triangle ~start:0.0 ~peak_time:1.0 ~finish:2.0 ~height:5.0 in
  let s = Pwl.shift w 1e9 in
  Alcotest.(check (float 1e-6)) "peak preserved" 5.0 (Pwl.peak s);
  Alcotest.(check (float 1e-6)) "old position empty" 0.0 (Pwl.eval s 1.0)

let test_grid_minimal_2x2 () =
  let module Grid = Repro_powergrid.Grid in
  let g = Grid.create ~die_side:10.0 ~nx:2 ~ny:2 () in
  (* With pad_stride 8 on a 2x2 mesh, every node is a boundary pad. *)
  let v = Grid.solve g ~injection:[| 100.0; 100.0; 100.0; 100.0 |] in
  Array.iter (fun d -> Alcotest.(check (float 1e-9)) "all pads" 0.0 d) v

let test_montecarlo_single_instance () =
  let t = minimal_tree () in
  let asg = Assignment.default t ~num_modes:1 in
  let config =
    { Repro_core.Montecarlo.default_config with
      Repro_core.Montecarlo.instances = 1;
      noise_instances = 1 }
  in
  let r = Repro_core.Montecarlo.run ~config t asg in
  Alcotest.(check bool) "yield is 0 or 1" true
    (r.Repro_core.Montecarlo.skew_yield = 0.0
    || r.Repro_core.Montecarlo.skew_yield = 1.0)

let test_adjustable_in_single_mode_context () =
  (* ADBs in the single-mode library: the expanded step candidates must
     be applied back into the assignment on selection. *)
  let t = minimal_tree () in
  let params = { Context.default_params with Context.num_slots = 8; kappa = 40.0 } in
  let ctx =
    Context.create ~params t ~cells:[ Library.buf 8; Library.adb 8 ]
  in
  let o = Repro_core.Clk_wavemin.optimize ctx in
  Array.iter
    (fun nd ->
      let c = Assignment.cell o.Context.assignment nd.Tree.id in
      let extra = Assignment.extra_delay o.Context.assignment ~mode:0 nd.Tree.id in
      if not (Cell.is_adjustable c) then
        Alcotest.(check (float 1e-12)) "fixed cells have no extra" 0.0 extra)
    (Tree.leaves t)

(* ------------------------------------------------------------------ *)
(* Preflight validation: degenerate inputs must be diagnosed, with the
   right error code, instead of crashing (or worse, solving).           *)

module Preflight = Repro_core.Preflight
module Verrors = Repro_util.Verrors

let raw_node id parent children kind x y wire sink_cap =
  { Tree.id; parent; children; kind; x; y; wire; sink_cap;
    default_cell = Library.buf 8 }

(* The minimal tree as a raw node array, for corruption before
   Tree.create's own validation would reject it. *)
let valid_nodes () =
  [|
    raw_node 0 None [ 1; 2 ] Tree.Internal 10.0 10.0 Wire.zero 0.0;
    raw_node 1 (Some 0) [] Tree.Leaf 5.0 5.0 (Wire.of_length 8.0) 12.0;
    raw_node 2 (Some 0) [] Tree.Leaf 15.0 15.0 (Wire.of_length 8.0) 14.0;
  |]

let codes ds = List.map (fun d -> Verrors.code_name d.Verrors.code) ds

let check_all_code name code ds =
  Alcotest.(check bool) (name ^ " diagnosed") true (ds <> []);
  List.iter
    (fun c -> Alcotest.(check string) (name ^ " code") code c)
    (codes ds)

let test_preflight_clean () =
  let ds =
    Preflight.check ~params:Context.default_params (minimal_tree ())
      ~cells:(Flow.leaf_library ())
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length ds);
  Alcotest.(check string) "to_string" "preflight: ok" (Preflight.to_string ds)

let test_preflight_dangling_parent () =
  let nodes = valid_nodes () in
  nodes.(1) <- { nodes.(1) with Tree.parent = Some 99 };
  check_all_code "dangling parent" "invalid-tree" (Preflight.check_nodes nodes)

let test_preflight_zero_leaf_tree () =
  let nodes =
    [| raw_node 0 None [] Tree.Internal 0.0 0.0 Wire.zero 0.0 |]
  in
  check_all_code "internal without children" "invalid-tree"
    (Preflight.check_nodes nodes)

let test_preflight_negative_wire () =
  let nodes = valid_nodes () in
  nodes.(2) <-
    { nodes.(2) with Tree.wire = { Wire.length = -8.0; res = 0.1; cap = 0.2 } };
  check_all_code "negative wire" "invalid-tree" (Preflight.check_nodes nodes)

let test_preflight_nonpositive_sink_cap () =
  let nodes = valid_nodes () in
  nodes.(1) <- { nodes.(1) with Tree.sink_cap = -3.0 };
  check_all_code "negative sink cap" "invalid-tree"
    (Preflight.check_nodes nodes)

let test_preflight_bad_params () =
  let ds =
    Preflight.check_params
      { Context.default_params with Context.kappa = 0.0; max_labels = 0 }
  in
  check_all_code "bad params" "invalid-params" ds;
  Alcotest.(check bool) "both reported" true (List.length ds >= 2)

let test_preflight_bad_library () =
  check_all_code "empty library" "invalid-library" (Preflight.check_library []);
  (* Buffers only: polarity assignment is vacuous without an inverter. *)
  check_all_code "one polarity" "invalid-library"
    (Preflight.check_library [ Library.buf 8; Library.buf 16 ])

let test_preflight_bad_modes () =
  let dup = Timing.nominal ~mode:0 () in
  check_all_code "duplicate mode ids" "invalid-modes"
    (Preflight.check_modes [| dup; dup |]);
  check_all_code "no modes" "invalid-modes" (Preflight.check_modes [||])

let test_preflight_narrow_window () =
  (* One leaf behind a 500 um wire: its arrival lags the near leaf by
     far more than the window under every cell candidate, so a 5 ps
     kappa (structurally valid — the params check passes) cannot be
     met.  Preflight must say so, and why, before any solver runs. *)
  let node id parent children kind x y wire_len sink_cap cell =
    { Tree.id; parent; children; kind; x; y;
      wire = Wire.of_length wire_len; sink_cap; default_cell = cell }
  in
  let tree =
    Tree.create
      [|
        node 0 None [ 1; 2 ] Tree.Internal 10.0 10.0 0.0 0.0 (Library.buf 16);
        node 1 (Some 0) [] Tree.Leaf 5.0 5.0 1.0 5.0 (Library.buf 8);
        node 2 (Some 0) [] Tree.Leaf 15.0 15.0 500.0 80.0 (Library.buf 8);
      |]
  in
  let params = { Context.default_params with Context.kappa = 5.0 } in
  let ds = Preflight.check ~params tree ~cells:(Flow.leaf_library ()) in
  check_all_code "narrow window" "infeasible-window" ds

let test_preflight_too_narrow_params () =
  (* A kappa below the sibling guard is flagged by the params check
     itself (the effective window would clamp), before feasibility. *)
  let ds =
    Preflight.check
      ~params:{ Context.default_params with Context.kappa = 0.01 }
      (minimal_tree ()) ~cells:(Flow.leaf_library ())
  in
  check_all_code "clamped window" "invalid-params" ds

(* Property: whatever single corruption we apply to a valid node array,
   check_nodes never raises and pins the damage on Invalid_tree. *)
let prop_preflight_catches_corruption =
  let corruptions =
    [ (fun n i -> n.(i) <- { n.(i) with Tree.parent = Some 1000 });
      (fun n i -> n.(i) <- { n.(i) with Tree.parent = Some i });
      (fun n i -> n.(i) <- { n.(i) with Tree.children = [ 77 ] });
      (fun n i -> n.(i) <- { n.(i) with Tree.x = Float.nan });
      (fun n i ->
        n.(i) <-
          { n.(i) with
            Tree.wire = { Wire.length = -1.0; res = -1.0; cap = -1.0 } });
      (fun n i ->
        n.(i) <-
          (match n.(i).Tree.kind with
          | Tree.Leaf -> { n.(i) with Tree.sink_cap = -.n.(i).Tree.sink_cap }
          | Tree.Internal -> { n.(i) with Tree.sink_cap = 5.0 }));
    ]
  in
  QCheck.Test.make ~count:100 ~name:"preflight catches corrupted nodes"
    QCheck.(pair (int_bound (List.length corruptions - 1)) (int_bound 2))
    (fun (which, at) ->
      let nodes = valid_nodes () in
      (List.nth corruptions which) nodes at;
      match Preflight.check_nodes nodes with
      | [] -> QCheck.Test.fail_report "corruption not diagnosed"
      | ds -> List.for_all (fun c -> c = "invalid-tree") (codes ds))

let test_report_contains_sections () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let t = minimal_tree () in
  let report =
    Repro_core.Report.for_tree ~name:"toy" t
      ~algorithms:[ Flow.Initial; Flow.Wavemin_fast ]
  in
  Alcotest.(check bool) "title" true (contains report "# WaveMin report");
  Alcotest.(check bool) "tree section" true (contains report "## Clock tree");
  Alcotest.(check bool) "results" true (contains report "ClkWaveMin-f");
  (* Each row's power columns come from the run's own assignment. *)
  List.iter
    (fun algo ->
      match Flow.run (Flow.prepare ~name:"toy" t) (Flow.Single algo) with
      | Error (e, _) -> Alcotest.fail (Repro_util.Verrors.to_string e)
      | Ok r ->
        let m = r.Flow.metrics in
        let p = Repro_core.Power.analyze t r.Flow.assignment (Timing.nominal ()) in
        let row =
          Printf.sprintf "| %s | %.2f | %.2f | %.2f | %.2f | %d | %.1f | %.1f | "
            (Flow.algorithm_name algo) m.Golden.peak_current_ma
            m.Golden.vdd_noise_mv m.Golden.gnd_noise_mv m.Golden.skew_ps
            r.Flow.num_leaf_inverters p.Repro_core.Power.avg_power_uw
            p.Repro_core.Power.peak_to_average
        in
        Alcotest.(check bool) (row ^ " in report") true (contains report row))
    [ Flow.Initial; Flow.Wavemin_fast ]

let () =
  Alcotest.run "repro_robustness"
    [
      ( "robustness",
        [
          Alcotest.test_case "minimal tree full flow" `Quick
            test_minimal_tree_full_flow;
          Alcotest.test_case "single leaf tree" `Quick test_single_leaf_tree;
          Alcotest.test_case "leaf per zone" `Quick test_every_leaf_its_own_zone;
          Alcotest.test_case "one giant zone" `Quick test_one_giant_zone;
          Alcotest.test_case "worst over modes empty" `Quick
            test_golden_worst_over_modes_empty;
          Alcotest.test_case "liberty empty" `Quick test_liberty_empty_input;
          Alcotest.test_case "pwl extreme shift" `Quick test_pwl_extreme_shift;
          Alcotest.test_case "grid 2x2 all pads" `Quick test_grid_minimal_2x2;
          Alcotest.test_case "montecarlo single instance" `Quick
            test_montecarlo_single_instance;
          Alcotest.test_case "adjustable in single mode" `Quick
            test_adjustable_in_single_mode_context;
          Alcotest.test_case "report sections" `Quick test_report_contains_sections;
        ] );
      ( "preflight",
        [
          Alcotest.test_case "clean input" `Quick test_preflight_clean;
          Alcotest.test_case "dangling parent" `Quick
            test_preflight_dangling_parent;
          Alcotest.test_case "zero-leaf tree" `Quick test_preflight_zero_leaf_tree;
          Alcotest.test_case "negative wire" `Quick test_preflight_negative_wire;
          Alcotest.test_case "non-positive sink cap" `Quick
            test_preflight_nonpositive_sink_cap;
          Alcotest.test_case "bad params" `Quick test_preflight_bad_params;
          Alcotest.test_case "bad library" `Quick test_preflight_bad_library;
          Alcotest.test_case "bad modes" `Quick test_preflight_bad_modes;
          Alcotest.test_case "narrow window" `Quick test_preflight_narrow_window;
          Alcotest.test_case "clamped window params" `Quick
            test_preflight_too_narrow_params;
          QCheck_alcotest.to_alcotest prop_preflight_catches_corruption;
        ] );
    ]
