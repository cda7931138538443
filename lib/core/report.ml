module Tree = Repro_clocktree.Tree
module Tree_stats = Repro_clocktree.Tree_stats
module Timing = Repro_clocktree.Timing

let buf_add = Buffer.add_string

let for_tree ?(params = Context.default_params) ~name tree ~algorithms =
  let b = Buffer.create 4096 in
  let env = Timing.nominal () in
  buf_add b (Printf.sprintf "# WaveMin report — %s\n\n" name);
  (* Tree section. *)
  let stats = Tree_stats.compute tree in
  buf_add b "## Clock tree\n\n";
  buf_add b
    (Printf.sprintf
       "- %d buffering nodes: %d leaves, %d internal (depth %d)\n"
       stats.Tree_stats.num_nodes stats.Tree_stats.num_leaves
       stats.Tree_stats.num_internal stats.Tree_stats.max_depth);
  buf_add b
    (Printf.sprintf "- wire: %.0f um (%.1f fF); sink load %.1f fF\n"
       stats.Tree_stats.total_wirelength stats.Tree_stats.total_wire_cap
       stats.Tree_stats.total_sink_cap);
  buf_add b
    (Printf.sprintf "- fanout: max %d, mean %.2f\n" stats.Tree_stats.max_fanout
       stats.Tree_stats.mean_fanout);
  let zones = Zones.partition tree ~side:params.Context.zone_side in
  buf_add b
    (Printf.sprintf "- zones (%.0f um): %d, mean %.1f leaves/zone\n\n"
       params.Context.zone_side (Zones.num_zones zones)
       (Zones.mean_leaves_per_zone zones));
  (* Parameters. *)
  buf_add b "## Parameters\n\n";
  buf_add b
    (Printf.sprintf
       "kappa = %.0f ps, |S| = %d, epsilon = %.3g, zone side = %.0f um\n\n"
       params.Context.kappa params.Context.num_slots params.Context.epsilon
       params.Context.zone_side);
  (* Results. *)
  buf_add b "## Results\n\n";
  buf_add b
    "| algorithm | peak (mA) | VDD (mV) | GND (mV) | skew (ps) | #inv | \
     power (uW) | peak/avg | time (s) |\n";
  buf_add b "|---|---|---|---|---|---|---|---|---|\n";
  List.iter
    (fun algo ->
      let r =
        match Flow.run (Flow.prepare ~params ~name tree) (Flow.Single algo) with
        | Ok r -> r
        | Error (e, _) -> raise (Repro_util.Verrors.Error e)
      in
      let p = Power.analyze tree r.Flow.assignment env in
      buf_add b
        (Printf.sprintf "| %s | %.2f | %.2f | %.2f | %.2f | %d | %.1f | %.1f | %.3f |\n"
           (Flow.algorithm_name algo)
           r.Flow.metrics.Golden.peak_current_ma
           r.Flow.metrics.Golden.vdd_noise_mv
           r.Flow.metrics.Golden.gnd_noise_mv
           r.Flow.metrics.Golden.skew_ps r.Flow.num_leaf_inverters
           p.Power.avg_power_uw p.Power.peak_to_average r.Flow.elapsed_s))
    algorithms;
  buf_add b "\nMetrics from the golden evaluator (full PWL waveforms + power mesh).\n";
  Buffer.contents b

let for_benchmark ?params spec ~algorithms =
  let tree = Repro_cts.Benchmarks.synthesize spec in
  for_tree ?params ~name:spec.Repro_cts.Benchmarks.name tree ~algorithms
