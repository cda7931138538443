(* Sec. VII-D: Monte-Carlo process variation.  Gaussian sigma/mu = 5%
   on cell delays and wire RC, 1000 instances.  Reported: skew yield and
   the normalized standard deviations of peak current and VDD/GND noise.
   Paper: yields 95.5% (PeakMin) vs 83.9% (WaveMin) — WaveMin's
   solutions sit closer to the skew bound; normalized sigmas ~0.05-0.09.

   The paper optimizes and measures yield against kappa = 100 ps on
   nanosecond-latency trees; our trees are an order of magnitude
   shallower, so the equivalent bound here is 35 ps — what matters for
   the phenomenon is how close each optimizer leaves the nominal skew to
   the bound relative to the variation-induced spread.

   The per-circuit compute (synthesis, both optimizers, the Monte-Carlo
   sweep) fans across the domain pool; recording and printing happen
   afterwards, sequentially, in suite order, so report contents are
   independent of the job count. *)

module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Montecarlo = Repro_core.Montecarlo
module Par = Repro_par.Par
module Table = Repro_util.Table

let kappa = 35.0

(* The paper runs 1000 HSPICE instances; the golden evaluator is cheap
   enough to run on a subset while skew is measured on all. *)
let config =
  { Montecarlo.default_config with
    Montecarlo.instances = 1000;
    noise_instances = 48;
    kappa }

let algos = [ Flow.Peakmin; Flow.Wavemin ]

(* One circuit's full compute, run inside a pool worker: everything here
   is pure up to the (domain-safe) metrics/trace registries. *)
let compute params spec =
  let name = spec.Repro_cts.Benchmarks.name in
  Bench_common.time2 @@ fun () ->
  let tree = Repro_cts.Benchmarks.synthesize spec in
  let per_algo =
    List.map
      (fun algo ->
        let run = Bench_common.solve (Flow.prepare ~params ~name tree) algo in
        (algo, Montecarlo.run ~config tree run.Flow.assignment))
      algos
  in
  (tree, per_algo)

(* A reduced sweep timed at jobs = 1 and again at the session's job
   count: the measured speedup goes into the report as runtime metrics
   and an environment note — never as gated quality. *)
let speedup_probe tree assignment =
  let probe =
    { config with Montecarlo.instances = 200; noise_instances = 16 }
  in
  let jobs = Par.jobs () in
  let _, seq_s =
    Bench_common.time (fun () ->
        Par.with_jobs 1 (fun () -> Montecarlo.run ~config:probe tree assignment))
  in
  let _, par_s =
    Bench_common.time (fun () -> Montecarlo.run ~config:probe tree assignment)
  in
  let speedup = seq_s /. Float.max 1e-9 par_s in
  Bench_common.record ~benchmark:"probe" ~algorithm:"montecarlo"
    ~runtime:
      [ ("seq_wall_s", seq_s); ("par_wall_s", par_s); ("speedup", speedup) ]
    ();
  Bench_common.annotate_environment
    [ ("jobs", string_of_int jobs);
      ("mc_speedup", Printf.sprintf "%.2f" speedup) ];
  Bench_common.note
    "speedup probe (200 instances): %.2f s sequential, %.2f s at %d job(s) \
     -> %.2fx"
    seq_s par_s jobs speedup

let run () =
  Bench_common.section
    "Sec. VII-D — Monte-Carlo variation (kappa = 35 ps, sigma/mu = 5%, 1000 instances)";
  let params = { Context.default_params with Context.kappa } in
  let specs =
    List.filter
      (fun s ->
        List.mem s.Repro_cts.Benchmarks.name
          [ "s13207"; "s15850"; "s35932"; "s38584" ])
      Bench_common.table5_suite
    |> Array.of_list
  in
  let results =
    Par.parallel_map ~label:"montecarlo.circuits" (compute params) specs
  in
  let t =
    Table.create
      ~headers:
        [ "circuit"; "algo"; "yield"; "mean skew"; "s/m peak"; "s/m VDD";
          "s/m GND" ]
  in
  let yields = Hashtbl.create 4 in
  Array.iteri
    (fun i ((_, per_algo), wall, cpu) ->
      let name = specs.(i).Repro_cts.Benchmarks.name in
      Bench_common.record_stage name ~wall_s:wall ~cpu_s:cpu;
      List.iter
        (fun (algo, rep) ->
          let key = Flow.algorithm_name algo in
          let prev = try Hashtbl.find yields key with Not_found -> [] in
          Hashtbl.replace yields key (rep.Montecarlo.skew_yield :: prev);
          Bench_common.record ~benchmark:name ~algorithm:key
            ~quality:
              [ ("skew_yield", rep.Montecarlo.skew_yield);
                ("mean_skew_ps", rep.Montecarlo.mean_skew);
                ("norm_std_peak", rep.Montecarlo.norm_std_peak);
                ("norm_std_vdd", rep.Montecarlo.norm_std_vdd);
                ("norm_std_gnd", rep.Montecarlo.norm_std_gnd) ]
            ();
          Table.add_row t
            [ name; key;
              Table.cell_pct (100.0 *. rep.Montecarlo.skew_yield);
              Table.cell_f rep.Montecarlo.mean_skew;
              Table.cell_f ~decimals:3 rep.Montecarlo.norm_std_peak;
              Table.cell_f ~decimals:3 rep.Montecarlo.norm_std_vdd;
              Table.cell_f ~decimals:3 rep.Montecarlo.norm_std_gnd ])
        per_algo)
    results;
  print_string (Table.render t);
  List.iter
    (fun algo ->
      let key = Flow.algorithm_name algo in
      match Hashtbl.find_opt yields key with
      | None -> ()
      | Some ys ->
        let mean =
          List.fold_left ( +. ) 0.0 ys /. float_of_int (List.length ys)
        in
        Bench_common.record ~benchmark:"average" ~algorithm:key
          ~quality:[ ("skew_yield", mean) ]
          ();
        Bench_common.note "average skew yield %s: %.1f%%" key (100.0 *. mean))
    algos;
  (if Array.length results > 0 then
     let (tree, _), _, _ = results.(0) in
     let base = Repro_clocktree.Assignment.default tree ~num_modes:1 in
     speedup_probe tree base);
  Bench_common.note "(paper: ClkPeakMin 95.5%%, ClkWaveMin 83.9%%; sigma/mu ~0.05-0.09)"
