(* The batch workloads: repeated cold passes over the Table V suite.

   table5-wavemin   per circuit: synthesize -> context -> ClkWaveMin
                    -> golden, at the default parameters.
   sweep-fast       per circuit: synthesize, then for kappa in
                    {15, 20, 30}: context -> {ClkWaveMin-f, ClkPeakMin,
                    ClkSA} -> golden each.

   A pass is timed as a whole; registry counters and GC counts are
   read before and after it.  The traced run alternates untraced and
   traced passes, so one invocation yields both the per-layer spans and
   the untraced pass time they are compared with. *)

module J = Repro_util.Json
module Benchmarks = Repro_cts.Benchmarks
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Flow = Repro_core.Flow
module Waveforms = Repro_core.Waveforms
module Timing = Repro_clocktree.Timing
module Tree = Repro_clocktree.Tree
module Electrical = Repro_cell.Electrical
module Pwl = Repro_waveform.Pwl
module Noise = Repro_powergrid.Noise
module Par = Repro_par.Par
module Clock = Repro_obs.Clock

type workload = Table5 | Sweep

let sweep_kappas = [ 15.0; 20.0; 30.0 ]

type instance = {
  spec : Benchmarks.spec;
  initial : Golden.metrics;  (** The unoptimized tree, for quality ratios. *)
}

(* Solves of the current traced pass, kept so that their power-grid
   solves can be timed again after the pass (see [noise_share]). *)
let traced_solves : (Tree.t * Repro_clocktree.Assignment.t * Golden.metrics) list ref = ref []

let golden tree asg env =
  let m = Span.with_span "golden.evaluate" (fun () -> Golden.evaluate tree asg env) in
  if !Span.enabled then traced_solves := (tree, asg, m) :: !traced_solves;
  m

(* The power-grid share of [Golden.evaluate]: [Noise.evaluate] on the
   same injections, timed outside the pass.  The injections are built
   the way [Golden.evaluate] builds them (timing at both edges, the
   falling-edge currents half a period later); the noise must come out
   equal to the golden result's, or the solve counts as failed.  Returns
   the total time in ms and the number of mismatches. *)
let noise_share env solves =
  let period = Golden.default_period in
  List.fold_left
    (fun (ms, bad) (tree, asg, (m : Golden.metrics)) ->
      let currents edge =
        let t = Timing.analyze tree asg env ~edge in
        fun id -> Waveforms.node_currents tree asg env t id
      in
      let rising = currents Electrical.Rising and falling = currents Electrical.Falling in
      let rail pick =
        Array.to_list
          (Array.map
             (fun (nd : Tree.node) ->
               let later = Pwl.shift (pick (falling nd.Tree.id)) (period /. 2.0) in
               { Noise.x = nd.Tree.x; y = nd.Tree.y;
                 waveform = Pwl.add (pick (rising nd.Tree.id)) later })
             (Tree.nodes tree))
      in
      let vdd = rail (fun c -> c.Electrical.idd) and gnd = rail (fun c -> c.Electrical.iss) in
      let grid = Golden.default_grid tree in
      let t0 = Clock.now_s () in
      let r = Noise.evaluate grid ~vdd ~gnd ~times:(Noise.default_times (vdd @ gnd) ~count:48) in
      let ms = ms +. ((Clock.now_s () -. t0) *. 1000.0) in
      let same = r.Noise.vdd_noise_mv = m.Golden.vdd_noise_mv
                 && r.Noise.gnd_noise_mv = m.Golden.gnd_noise_mv in
      (ms, if same then bad else bad + 1))
    (0.0, 0) solves

let solve_json inst ~algorithm ~kappa (m : Golden.metrics) approximate =
  J.Obj
    [ ("design", J.Str inst.spec.Benchmarks.name);
      ("algorithm", J.Str algorithm);
      ("kappa", J.Num kappa);
      ("peak_current_ma", J.Num m.Golden.peak_current_ma);
      ("vdd_noise_mv", J.Num m.Golden.vdd_noise_mv);
      ("gnd_noise_mv", J.Num m.Golden.gnd_noise_mv);
      ("skew_ps", J.Num m.Golden.skew_ps);
      ("approximate", J.Bool approximate);
      ("initial_peak_current_ma", J.Num inst.initial.Golden.peak_current_ma);
      ( "initial_noise_mv",
        J.Num (inst.initial.Golden.vdd_noise_mv +. inst.initial.Golden.gnd_noise_mv) ) ]

let sa_proposed = ref 0
let sa_accepted = ref 0

(* One circuit of a pass, cold: the tree is synthesized again. *)
let table5_design ~cells ~env inst =
  let tree = Span.with_span "cts.synthesize" (fun () -> Benchmarks.synthesize inst.spec) in
  let ctx =
    Span.with_span "context.create" (fun () -> Context.create ~env tree ~cells)
  in
  let o =
    Span.with_span "mosp.optimize" (fun () -> Repro_core.Clk_wavemin.optimize ctx)
  in
  [ solve_json inst ~algorithm:"ClkWaveMin" ~kappa:ctx.Context.params.Context.kappa
      (golden tree o.Context.assignment env)
      o.Context.approximate ]

let sweep_design ~cells ~env inst =
  let tree = Span.with_span "cts.synthesize" (fun () -> Benchmarks.synthesize inst.spec) in
  List.concat_map
    (fun kappa ->
      let params = { Context.default_params with Context.kappa } in
      let ctx =
        Span.with_span "context.create" (fun () ->
            Context.create ~params ~env tree ~cells)
      in
      let solve algorithm layer optimize =
        let o = Span.with_span layer (fun () -> optimize ctx) in
        solve_json inst ~algorithm ~kappa
          (golden tree o.Context.assignment env)
          o.Context.approximate
      in
      [ solve "ClkWaveMin-f" "wavemin_f.optimize" Repro_core.Clk_wavemin_f.optimize;
        solve "ClkPeakMin" "peakmin.optimize" Repro_core.Clk_peakmin.optimize;
        solve "ClkSA" "sa.optimize" (fun ctx ->
            let o, st = Repro_core.Clk_sa.optimize_stats ctx in
            sa_proposed := !sa_proposed + st.Repro_core.Clk_sa.proposed;
            sa_accepted := !sa_accepted + st.Repro_core.Clk_sa.accepted;
            o) ])
    sweep_kappas

(* Registry readings differenced across a pass. *)
let readings () =
  let words, majors = Probe.gc () in
  let labels_n, labels_sum = Probe.histogram_count_sum "warburton.labels_per_row" in
  [ ("waveforms.cache_misses", float_of_int (Probe.counter "waveforms.cache_misses"));
    ("waveforms.candidate_pulses",
     float_of_int (Probe.counter "waveforms.candidate_pulses"));
    ("warburton.solves", float_of_int (Probe.counter "warburton.solves"));
    ("warburton.labels_capped", float_of_int (Probe.counter "warburton.labels_capped"));
    ("warburton.labels_per_row.count", float_of_int labels_n);
    ("warburton.labels_per_row.sum", labels_sum);
    ("sa.proposed", float_of_int !sa_proposed);
    ("sa.accepted", float_of_int !sa_accepted);
    ("runtime.alloc_words", words);
    ("runtime.major_gcs", float_of_int majors) ]

(* One circuit's part of a set-up: synthesize it and evaluate its
   unoptimized tree. *)
let setup_circuit ~env (spec : Benchmarks.spec) =
  let tree = Benchmarks.synthesize spec in
  { spec;
    initial = Golden.evaluate tree (Repro_clocktree.Assignment.default tree ~num_modes:1) env }

(* Set-up makes the run's inputs: the leaf library, the Table V
   circuits at the paper placements, and the golden metrics of each
   unoptimized tree. *)
let setup ~env = (Flow.leaf_library (), List.map (setup_circuit ~env) Benchmarks.all)

(* An untraced pass also runs one whole set-up, spread over the pass:
   the library first, then each circuit's part just before that
   circuit's solves.  The machine's speed drifts over seconds, so
   set-ups timed back to back sample one moment of it, and a spread one
   averages over the pass as the pass time does.  Its wall and CPU time
   are taken out of the pass's. *)
let run_pass ~index ~traced ~env ~design instances =
  Span.enabled := traced;
  let setup_wall = ref 0.0 and setup_cpu = ref 0.0 in
  let setup_part f =
    if not traced then begin
      let c = Probe.cpu_s () and t = Clock.now_s () in
      ignore (Sys.opaque_identity (f ()));
      setup_wall := !setup_wall +. (Clock.now_s () -. t);
      setup_cpu := !setup_cpu +. (Probe.cpu_s () -. c)
    end
  in
  let before = readings () in
  let c0 = Probe.cpu_s () in
  let t0 = Clock.now_s () in
  setup_part Flow.leaf_library;
  let designs, solves, errors =
    Span.with_group ~group:(Printf.sprintf "pass%d" index) "pass" @@ fun () ->
    List.fold_left
      (fun (designs, solves, errors) inst ->
        setup_part (fun () -> setup_circuit ~env inst.spec);
        let result = try Ok (design inst) with e -> Error (Printexc.to_string e) in
        let name = inst.spec.Benchmarks.name in
        match result with
        | Ok s -> (J.Str name :: designs, List.rev_append s solves, errors)
        | Error msg -> (J.Str name :: designs, solves, J.Str (name ^ ": " ^ msg) :: errors))
      ([], [], []) instances
  in
  let wall_s = Clock.now_s () -. t0 -. !setup_wall in
  let cpu_s = Probe.cpu_s () -. c0 -. !setup_cpu in
  Span.enabled := false;
  let after = readings () in
  let noise_ms, noise_mismatches = noise_share env !traced_solves in
  traced_solves := [];
  J.Obj
    [ ("index", J.Num (float_of_int index));
      ("traced", J.Bool traced);
      ("wall_s", J.Num wall_s);
      ("cpu_s", J.Num cpu_s);
      ("setup_s", if traced then J.Null else J.Num !setup_wall);
      ("designs", J.List (List.rev designs));
      ("solves", J.List (List.rev solves));
      ("errors", J.List (List.rev errors));
      ("noise_ms", J.Num noise_ms);
      ("noise_mismatches", J.Num (float_of_int noise_mismatches));
      ( "deltas",
        J.Obj (List.map2 (fun (k, a) (_, b) -> (k, J.Num (b -. a))) before after) ) ]

let run workload ~seconds ~traced =
  let env = Timing.nominal () in
  let start = Clock.now_s () in
  let cells, instances = setup ~env in
  let design =
    match workload with
    | Table5 -> table5_design ~cells ~env
    | Sweep -> sweep_design ~cells ~env
  in
  (* Passes start while they fit the window, with a floor of two (the
     cross-pass identity check), or four alternating untraced and
     traced passes in the traced run. *)
  let min_passes = if traced then 4 else 2 in
  let rec loop index last acc =
    let elapsed = Clock.now_s () -. start in
    if index >= min_passes && elapsed +. last > seconds then List.rev acc
    else begin
      let t0 = Clock.now_s () in
      let pass = run_pass ~index ~traced:(traced && index mod 2 = 1) ~env ~design instances in
      loop (index + 1) (Clock.now_s () -. t0) (pass :: acc)
    end
  in
  let passes = loop 0 0.0 [] in
  [ ("measured_s", J.Num (Clock.now_s () -. start));
    ("jobs", J.Num (float_of_int (Par.jobs ())));
    ("kappas",
     J.List
       (List.map (fun k -> J.Num k)
          (match workload with
          | Table5 -> [ Context.default_params.Context.kappa ]
          | Sweep -> sweep_kappas)));
    ("passes", J.List passes);
    ("max_rss_mb", J.Num (Probe.vmhwm_mb "self")) ]
