(* Table V: ClkPeakMin [27] vs ClkWaveMin on the seven benchmarks,
   kappa = 20 ps, epsilon = 0.01, |S| = 158.  Columns: V_DD noise, Gnd
   noise (power-grid mV) and peak current (mA), with improvement
   percentages and averages.  Paper averages: +3.4% VDD, -11.8% GND,
   +15.6% peak. *)

module Flow = Repro_core.Flow
module Golden = Repro_core.Golden
module Table = Repro_util.Table

let run () =
  Bench_common.section
    "Table V — ClkPeakMin [27] vs ClkWaveMin (kappa = 20 ps, eps = 0.01, |S| = 158)";
  let t =
    Table.create
      ~headers:
        [ "circuit"; "n"; "|L|"; "PM VDD"; "PM GND"; "PM peak"; "WM VDD";
          "WM GND"; "WM peak"; "dVDD%"; "dGND%"; "dPeak%" ]
  in
  let sums = Array.make 3 0.0 in
  let count = ref 0 in
  List.iter
    (fun spec ->
      let name = spec.Repro_cts.Benchmarks.name in
      let pm, wm =
        Bench_common.report_stage name (fun () ->
            let tree = Repro_cts.Benchmarks.synthesize spec in
            let pm = Bench_common.solve (Flow.prepare ~name tree) Flow.Peakmin in
            let wm = Bench_common.solve (Flow.prepare ~name tree) Flow.Wavemin in
            (pm, wm))
      in
      Bench_common.record_run pm;
      Bench_common.record_run wm;
      let dv =
        Flow.improvement_pct ~baseline:pm.Flow.metrics.Golden.vdd_noise_mv
          ~value:wm.Flow.metrics.Golden.vdd_noise_mv
      in
      let dg =
        Flow.improvement_pct ~baseline:pm.Flow.metrics.Golden.gnd_noise_mv
          ~value:wm.Flow.metrics.Golden.gnd_noise_mv
      in
      let dp =
        Flow.improvement_pct ~baseline:pm.Flow.metrics.Golden.peak_current_ma
          ~value:wm.Flow.metrics.Golden.peak_current_ma
      in
      sums.(0) <- sums.(0) +. dv;
      sums.(1) <- sums.(1) +. dg;
      sums.(2) <- sums.(2) +. dp;
      incr count;
      Bench_common.record ~benchmark:name ~algorithm:"improvement"
        ~quality:
          [ ("d_vdd_pct", dv); ("d_gnd_pct", dg); ("d_peak_pct", dp) ]
        ();
      Table.add_row t
        [ name;
          Table.cell_i spec.Repro_cts.Benchmarks.num_nodes;
          Table.cell_i spec.Repro_cts.Benchmarks.num_leaves;
          Table.cell_f pm.Flow.metrics.Golden.vdd_noise_mv;
          Table.cell_f pm.Flow.metrics.Golden.gnd_noise_mv;
          Table.cell_f pm.Flow.metrics.Golden.peak_current_ma;
          Table.cell_f wm.Flow.metrics.Golden.vdd_noise_mv;
          Table.cell_f wm.Flow.metrics.Golden.gnd_noise_mv;
          Table.cell_f wm.Flow.metrics.Golden.peak_current_ma;
          Table.cell_pct dv; Table.cell_pct dg; Table.cell_pct dp ])
    Bench_common.table5_suite;
  print_string (Table.render t);
  let n = float_of_int !count in
  Bench_common.record ~benchmark:"average" ~algorithm:"improvement"
    ~quality:
      [ ("d_vdd_pct", sums.(0) /. n); ("d_gnd_pct", sums.(1) /. n);
        ("d_peak_pct", sums.(2) /. n) ]
    ();
  Bench_common.note
    "averages: VDD %.2f%%, GND %.2f%%, peak %.2f%%  (paper: 3.42%%, -11.78%%, 15.62%%)"
    (sums.(0) /. n) (sums.(1) /. n) (sums.(2) /. n)
