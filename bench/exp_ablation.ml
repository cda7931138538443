(* Ablations on the design choices DESIGN.md calls out:
   - zone size (Sec. VII-A: larger zones optimize jointly but saturate);
   - skew bound kappa (more slack, more sizing freedom, lower peak);
   - Warburton epsilon (coarser approximation vs quality). *)

module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Table = Repro_util.Table

let spec () = Repro_cts.Benchmarks.find "s38584"

let run () =
  let tree = Repro_cts.Benchmarks.synthesize (spec ()) in
  let name = "s38584" in

  Bench_common.section "Ablation — zone side (um) on s38584 (ClkWaveMin)";
  let t = Table.create ~headers:[ "zone side"; "peak (mA)"; "time (s)" ] in
  List.iter
    (fun zone_side ->
      let params = { Context.default_params with Context.zone_side } in
      let r = Bench_common.solve (Flow.prepare ~params ~name tree) Flow.Wavemin in
      Table.add_row t
        [ Table.cell_f ~decimals:0 zone_side;
          Table.cell_f r.Flow.metrics.Golden.peak_current_ma;
          Table.cell_f ~decimals:2 r.Flow.elapsed_s ])
    [ 25.0; 50.0; 100.0; 200.0 ];
  print_string (Table.render t);

  Bench_common.section "Ablation — skew bound kappa (ps) on s38584 (ClkWaveMin)";
  let t = Table.create ~headers:[ "kappa"; "peak (mA)"; "skew (ps)" ] in
  List.iter
    (fun kappa ->
      let params = { Context.default_params with Context.kappa } in
      match
        Flow.run (Flow.prepare ~params ~name tree) (Flow.Single Flow.Wavemin)
      with
      | Ok r ->
        Table.add_row t
          [ Table.cell_f ~decimals:0 kappa;
            Table.cell_f r.Flow.metrics.Golden.peak_current_ma;
            Table.cell_f r.Flow.metrics.Golden.skew_ps ]
      | Error _ ->
        Table.add_row t [ Table.cell_f ~decimals:0 kappa; "infeasible"; "-" ])
    [ 8.0; 12.0; 20.0; 40.0 ];
  print_string (Table.render t);

  Bench_common.section "Ablation — Warburton epsilon on s38584 (ClkWaveMin)";
  let t = Table.create ~headers:[ "epsilon"; "peak (mA)"; "time (s)" ] in
  List.iter
    (fun epsilon ->
      let params = { Context.default_params with Context.epsilon } in
      let r = Bench_common.solve (Flow.prepare ~params ~name tree) Flow.Wavemin in
      Table.add_row t
        [ Table.cell_f ~decimals:3 epsilon;
          Table.cell_f r.Flow.metrics.Golden.peak_current_ma;
          Table.cell_f ~decimals:2 r.Flow.elapsed_s ])
    [ 0.001; 0.01; 0.1; 0.5 ];
  print_string (Table.render t)
