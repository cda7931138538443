(* Table VI: effect of the number of time sampling points.  ClkPeakMin,
   ClkWaveMin with |S| in {4, 8, 158}, and ClkWaveMin-f (|S| = 158);
   golden peak current and optimizer execution time per circuit.  The
   paper's shape: more sampling points never hurt, and ClkWaveMin-f is
   close in quality at a fraction of the runtime (occasionally even
   better under golden evaluation, which the paper attributes to the
   noise-model/HSPICE mismatch). *)

module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Table = Repro_util.Table

let with_slots n = { Context.default_params with Context.num_slots = n }

let run () =
  Bench_common.section
    "Table VI — sampling granularity and the fast algorithm (kappa = 20 ps)";
  let t =
    Table.create
      ~headers:
        [ "circuit"; "PM peak"; "PM t(s)"; "WM4 peak"; "WM4 t(s)"; "WM8 peak";
          "WM8 t(s)"; "WM158 peak"; "WM158 t(s)"; "WMf peak"; "WMf t(s)" ]
  in
  List.iter
    (fun spec ->
      let name = spec.Repro_cts.Benchmarks.name in
      Bench_common.report_stage name @@ fun () ->
      let tree = Repro_cts.Benchmarks.synthesize spec in
      (* A fresh prepare per cell: each time column counts context
         construction. *)
      let cell ?suffix ?params algorithm =
        let r = Bench_common.solve (Flow.prepare ?params ~name tree) algorithm in
        Bench_common.record_run ?algorithm_suffix:suffix r;
        ( Table.cell_f r.Flow.metrics.Golden.peak_current_ma,
          Table.cell_f ~decimals:3 r.Flow.elapsed_s )
      in
      let pm_p, pm_t = cell Flow.Peakmin in
      let w4_p, w4_t = cell ~suffix:"@s4" ~params:(with_slots 4) Flow.Wavemin in
      let w8_p, w8_t = cell ~suffix:"@s8" ~params:(with_slots 8) Flow.Wavemin in
      let w158_p, w158_t = cell Flow.Wavemin in
      let wf_p, wf_t = cell Flow.Wavemin_fast in
      Table.add_row t
        [ name; pm_p; pm_t; w4_p; w4_t; w8_p; w8_t; w158_p; w158_t; wf_p; wf_t ])
    Bench_common.table5_suite;
  print_string (Table.render t);
  Bench_common.note
    "shape: |S|=158 <= |S|=8 <= |S|=4 on peak (mostly); ClkWaveMin-f ~ClkWaveMin quality, far faster"
