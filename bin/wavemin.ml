(* wavemin — command-line front end.

   Subcommands:
     list           benchmark suite with clock-tree statistics
     run            optimize one benchmark with one algorithm
     validate       preflight-validate benchmark inputs without solving
     profile        run one benchmark and print the span tree + metrics
     compare        ClkPeakMin vs ClkWaveMin vs ClkWaveMin-f on a benchmark
     multimode      ClkWaveMin-M with voltage islands and power modes
     montecarlo     process-variation analysis of an optimized design
     characterize   print a cell's electrical profile
     export         dump a benchmark's clock tree (tabular or DOT)
     stats          structural/electrical statistics of a benchmark tree
     report         write a markdown comparison report
     bench-diff     regression gate between two BENCH_*.json run reports
     library        dump the cell library in the Liberty-style format
     serve          resident optimization service (ndjson over a socket)
     client         send one request to a running `wavemin serve'
     bench-serve    load-generate against a running service (BENCH report)
     top            live stats view of a running service
     explain        render a flight-recorder dump (or record one live)

   Exit codes: 0 success; 1 usage error (unknown benchmark/cell);
   2 diagnosed failure (validation, solver error, --strict violation);
   3 success after graceful degradation (solver fell back down the
   chain — details on stdout). *)

open Cmdliner

module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Preflight = Repro_core.Preflight
module Benchmarks = Repro_cts.Benchmarks
module Table = Repro_util.Table
module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Budget = Repro_obs.Budget
module Obs_trace = Repro_obs.Trace
module Obs_metrics = Repro_obs.Metrics
module Obs_log = Repro_obs.Log
module Obs_clock = Repro_obs.Clock
module Obs_flight = Repro_obs.Flight
module Obs_explain = Repro_obs.Explain
module Run_report = Repro_obs.Report
module Server = Repro_server.Server
module Client = Repro_server.Client
module Proto = Repro_server.Protocol
module Loadgen = Repro_server.Loadgen

(* ---- observability flags (run/profile/compare) ------------------- *)

let log_level_arg =
  let levels =
    [ ("quiet", None); ("app", Some Logs.App); ("error", Some Logs.Error);
      ("warning", Some Logs.Warning); ("warn", Some Logs.Warning);
      ("info", Some Logs.Info); ("debug", Some Logs.Debug) ]
  in
  let doc =
    "Log verbosity: quiet, app, error, warning, info or debug."
  in
  Arg.(value & opt (enum levels) (Some Logs.Warning)
       & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let trace_arg =
  let doc =
    "Record a span trace of the pipeline and write it to $(docv) as \
     Chrome trace-event JSON (open in chrome://tracing or \
     https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print the metrics registry snapshot after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Install the reporter/level and enable tracing before the workload
   runs; returns a finalizer that writes/prints whatever was asked. *)
let setup_obs ?(force_trace = false) level trace_file metrics =
  Obs_log.setup ~level ();
  if force_trace || trace_file <> None then Obs_trace.set_enabled true;
  fun () ->
    (match trace_file with
    | None -> ()
    | Some path -> (
      try
        Obs_trace.write_chrome_json path;
        Format.printf "wrote Chrome trace to %s@." path
      with Sys_error msg ->
        Format.eprintf "wavemin: cannot write trace file: %s@." msg));
    if metrics then begin
      Format.printf "@.metrics:@.";
      print_string (Obs_metrics.dump ())
    end

let bench_arg =
  let doc = "Benchmark circuit name (see `wavemin list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let kappa_arg =
  let doc = "Clock skew bound in ps." in
  Arg.(value & opt float 20.0 & info [ "kappa"; "k" ] ~docv:"PS" ~doc)

let slots_arg =
  let doc = "Number of time sampling points |S|." in
  Arg.(value & opt int 158 & info [ "slots"; "s" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel regions (default: $(b,WAVEMIN_JOBS), \
     else the machine's core count).  $(docv) = 1 is fully sequential; \
     every job count produces bit-identical results."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs = function
  | None -> ()
  | Some j -> Repro_par.Par.set_jobs j

let params_of kappa slots =
  { Context.default_params with Context.kappa; num_slots = slots }

let algo_arg =
  let algos =
    [ ("peakmin", Flow.Peakmin); ("wavemin", Flow.Wavemin);
      ("wavemin-f", Flow.Wavemin_fast); ("initial", Flow.Initial);
      ("sa", Flow.Sa) ]
  in
  let doc = "Algorithm: initial, peakmin, wavemin, wavemin-f or sa." in
  Arg.(value & opt (enum algos) Flow.Wavemin & info [ "algo"; "a" ] ~doc)

(* --solver NAME goes through Flow.solver_of_name at run time instead of
   cmdliner's enum so unknown names yield the same structured
   invalid-params diagnostic (and exit 2) on the CLI as on the wire. *)
let solver_arg =
  let doc =
    "Force one solver by name (initial, peakmin, wavemin, wavemin-f, \
     sa).  Overrides $(b,--algo); for $(b,compare), restricts the table \
     to that solver.  Unknown names are rejected with a structured \
     error and exit 2."
  in
  Arg.(value & opt (some string) None & info [ "solver" ] ~docv:"NAME" ~doc)

let resolve_solver ~default = function
  | None -> Ok default
  | Some name -> Flow.solver_of_name name

(* ---- robustness flags (run/compare/montecarlo) -------------------- *)

let strict_arg =
  let doc =
    "Treat degraded results as failures: exit 2 when the run fell back \
     to a cheaper algorithm or the label cap made the result \
     approximate, instead of exit 3 (degraded) or 0."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let budget_arg =
  let doc =
    "Wall-clock budget for the optimizer in milliseconds.  On \
     exhaustion the run is cancelled cooperatively and falls back down \
     the algorithm chain (recorded as a degradation) instead of \
     running to completion."
  in
  Arg.(value & opt (some float) None & info [ "budget-ms" ] ~docv:"MS" ~doc)

let budget_of = Option.map (fun ms -> Budget.create ~wall_ms:ms ())

let print_verror e = Format.eprintf "wavemin: %s@." (Verrors.to_string e)

let print_degradations (degs : Flow.degradation list) =
  List.iter
    (fun (d : Flow.degradation) ->
      Format.printf "  degraded: %s -> %s  [%s] %s@."
        (Flow.algorithm_name d.Flow.from_alg)
        (match d.Flow.to_alg with
        | Some a -> Flow.algorithm_name a
        | None -> "(chain exhausted)")
        (Verrors.code_name d.Flow.error.Verrors.code)
        d.Flow.error.Verrors.message)
    degs

(* 0 clean, 3 degraded-but-successful, 2 when --strict rejects a
   degraded or approximate result. *)
let exit_of ~strict ~approximate (degs : Flow.degradation list) =
  if strict && (degs <> [] || approximate) then 2
  else if degs <> [] then 3
  else 0

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    let t =
      Table.create
        ~headers:[ "name"; "family"; "n"; "|L|"; "die (um)"; "skew (ps)" ]
    in
    List.iter
      (fun spec ->
        let tree = Benchmarks.synthesize spec in
        Table.add_row t
          [ spec.Benchmarks.name;
            (match spec.Benchmarks.family with
            | Benchmarks.Iscas89 -> "ISCAS'89"
            | Benchmarks.Ispd09 -> "ISPD'09");
            Table.cell_i spec.Benchmarks.num_nodes;
            Table.cell_i spec.Benchmarks.num_leaves;
            Table.cell_f ~decimals:0 spec.Benchmarks.die_side;
            Table.cell_f (Repro_cts.Synthesis.nominal_skew tree) ])
      Benchmarks.all;
    print_string (Table.render t);
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite")
    Term.(const run $ const ())

let print_run (r : Flow.run) =
  Format.printf "%s on %s:@." (Flow.algorithm_name r.Flow.algorithm) r.Flow.benchmark;
  Format.printf "  peak current  %8.2f mA@." r.Flow.metrics.Golden.peak_current_ma;
  Format.printf "  VDD noise     %8.2f mV@." r.Flow.metrics.Golden.vdd_noise_mv;
  Format.printf "  GND noise     %8.2f mV@." r.Flow.metrics.Golden.gnd_noise_mv;
  Format.printf "  clock skew    %8.2f ps@." r.Flow.metrics.Golden.skew_ps;
  Format.printf "  leaf inverters %7d@." r.Flow.num_leaf_inverters;
  Format.printf "  optimizer time %7.2f s wall, %.2f s cpu@." r.Flow.elapsed_s
    r.Flow.cpu_s;
  (match r.Flow.sa with
  | None -> ()
  | Some s ->
    Format.printf
      "  annealer: %d moves (%d accepted, %d rejected) over %d zone(s); \
       %d flips, %d resizes, %d pairs, %d restart(s)@."
      s.Repro_core.Clk_sa.proposed s.Repro_core.Clk_sa.accepted
      s.Repro_core.Clk_sa.rejected s.Repro_core.Clk_sa.zones
      s.Repro_core.Clk_sa.flips s.Repro_core.Clk_sa.resizes
      s.Repro_core.Clk_sa.pairs s.Repro_core.Clk_sa.restarts);
  if r.Flow.approximate then
    Format.printf "  (label cap tripped: result approximate beyond epsilon)@."

(* Synthesize [spec], then run [strategy] on it; a synthesis failure is
   an [Error] with no degradations. *)
let solve_benchmark ?budget ~params spec strategy =
  Obs_trace.with_span ~name:"flow.run_benchmark"
    ~attrs:[ ("benchmark", spec.Benchmarks.name) ]
  @@ fun () ->
  match Flow.prepare_benchmark ~params spec with
  | Error e -> Error (e, [])
  | Ok p -> Result.map (fun r -> (p, r)) (Flow.run ?budget p strategy)

let print_portfolio (entries : Flow.portfolio_entry list) =
  List.iter
    (fun (e : Flow.portfolio_entry) ->
      Format.printf "  portfolio: %-12s %-6s %8.3f s  %s@."
        (Flow.algorithm_name e.Flow.member)
        (if e.Flow.won then "won" else "lost")
        e.Flow.wall_s
        (match (e.Flow.peak_ma, e.Flow.failure) with
        | Some p, _ -> Printf.sprintf "peak %.2f mA" p
        | None, Some err -> Verrors.code_name err.Verrors.code
        | None, None -> "-"))
    entries

(* A deterministic leaf-assignment listing — one line per leaf, id
   order — byte-diffable across runs and job counts (the CI
   portfolio-determinism gate diffs two of these). *)
let export_assignment path (r : Flow.run) tree =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "# %s %s\n" r.Flow.benchmark
       (Flow.algorithm_name r.Flow.algorithm));
  Array.iter
    (fun (id, (cell : Repro_cell.Cell.t)) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %s\n" id cell.Repro_cell.Cell.name
           (Json.float_to_string
              (Repro_clocktree.Assignment.extra_delay r.Flow.assignment
                 ~mode:0 id))))
    (Repro_clocktree.Assignment.leaf_cells r.Flow.assignment tree);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b))

let run_cmd =
  let portfolio_arg =
    let doc =
      "Race ClkWaveMin, ClkWaveMin-f and ClkSA sequentially under one \
       shared budget and keep the best result (lowest golden peak).  \
       Ignores $(b,--algo)/$(b,--solver); per-member results are \
       printed as portfolio lines."
    in
    Arg.(value & flag & info [ "portfolio" ] ~doc)
  in
  let export_arg =
    let doc =
      "Write the optimized leaf assignment (leaf id, cell name, extra \
       delay) to $(docv) — a deterministic listing for byte-diffing \
       runs across seeds and job counts."
    in
    Arg.(value & opt (some string) None & info [ "export" ] ~docv:"FILE" ~doc)
  in
  let run name algo solver portfolio export kappa slots jobs strict budget_ms
      level trace metrics =
    apply_jobs jobs;
    let finish = setup_obs level trace metrics in
    match resolve_solver ~default:algo solver with
    | Error e ->
      finish ();
      print_verror e;
      2
    | Ok algo -> (
      match Benchmarks.find name with
      | spec -> (
        match
          solve_benchmark ~params:(params_of kappa slots)
            ?budget:(budget_of budget_ms) spec
            (if portfolio then Flow.Portfolio else Flow.Chain algo)
        with
        | Ok (p, r) ->
          print_run r;
          print_portfolio r.Flow.portfolio;
          print_degradations r.Flow.degradations;
          (match export with
          | None -> ()
          | Some path ->
            export_assignment path r (Flow.prepared_tree p);
            Format.printf "  assignment written to %s@." path);
          finish ();
          exit_of ~strict ~approximate:r.Flow.approximate r.Flow.degradations
        | Error (e, degs) ->
          print_degradations degs;
          finish ();
          print_verror e;
          2)
      | exception Not_found ->
        Format.eprintf "unknown benchmark %s@." name;
        1)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize one benchmark")
    Term.(const run $ bench_arg $ algo_arg $ solver_arg $ portfolio_arg
          $ export_arg $ kappa_arg $ slots_arg $ jobs_arg
          $ strict_arg $ budget_arg $ log_level_arg $ trace_arg $ metrics_arg)

(* Everything `profile` prints as text, as one machine-readable
   document: run identity, quality and runtime numbers, the span list
   and the metrics-registry snapshot. *)
let profile_json (r : Flow.run) =
  let num = List.map (fun (k, v) -> (k, Json.Num v)) in
  Json.Obj
    [ ("benchmark", Json.Str r.Flow.benchmark);
      ("algorithm", Json.Str (Flow.algorithm_name r.Flow.algorithm));
      ("quality", Json.Obj (num (Flow.quality r)));
      ( "runtime",
        Json.Obj (num [ ("wall_s", r.Flow.elapsed_s); ("cpu_s", r.Flow.cpu_s) ]) );
      ("approximate", Json.Bool r.Flow.approximate);
      ( "spans",
        Json.List
          (List.map
             (fun (s : Obs_trace.span) ->
               Json.Obj
                 [ ("name", Json.Str s.Obs_trace.name);
                   ("depth", Json.Num (float_of_int s.Obs_trace.depth));
                   ( "dur_ms",
                     Json.Num (Int64.to_float s.Obs_trace.dur_ns /. 1e6) ) ])
             (Obs_trace.spans ())) );
      ("metrics", Obs_metrics.to_json ()) ]

let profile_cmd =
  let json_arg =
    let doc =
      "Emit the profile as a JSON document (run metrics, spans and the \
       metrics registry) instead of the text report."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run name algo kappa slots jobs level trace json =
    apply_jobs jobs;
    let finish = setup_obs ~force_trace:true level trace (not json) in
    match Benchmarks.find name with
    | spec -> (
      match
        solve_benchmark ~params:(params_of kappa slots) spec (Flow.Single algo)
      with
      | Error (e, _) ->
        finish ();
        print_verror e;
        2
      | Ok (_, r) ->
        if json then print_endline (Json.to_string_pretty (profile_json r))
        else begin
          print_run r;
          Format.printf "@.span tree:@.";
          print_string (Obs_trace.to_text_tree ())
        end;
        finish ();
        0)
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Optimize one benchmark with tracing on and print the span tree \
          and metrics table (or a JSON document with $(b,--json))")
    Term.(const run $ bench_arg $ algo_arg $ kappa_arg $ slots_arg $ jobs_arg
          $ log_level_arg $ trace_arg $ json_arg)

let compare_cmd =
  let run name solver kappa slots jobs strict budget_ms level trace metrics =
    apply_jobs jobs;
    let finish = setup_obs level trace metrics in
    match resolve_solver ~default:Flow.Wavemin solver with
    | Error e ->
      finish ();
      print_verror e;
      2
    | Ok forced -> (
    match Benchmarks.find name with
    | spec ->
      let params = params_of kappa slots in
      let t =
        Table.create
          ~headers:
            [ "algorithm"; "peak (mA)"; "VDD (mV)"; "GND (mV)"; "skew (ps)";
              "#inv"; "time (s)" ]
      in
      let code = ref 0 in
      let bump c = if c > !code then code := c in
      let degradations = ref [] in
      List.iter
        (fun algo ->
          match
            solve_benchmark ~params ?budget:(budget_of budget_ms) spec
              (Flow.Chain algo)
          with
          | Ok (_, r) ->
            degradations := !degradations @ r.Flow.degradations;
            bump (exit_of ~strict ~approximate:r.Flow.approximate
                    r.Flow.degradations);
            Table.add_row t
              [ Flow.algorithm_name r.Flow.algorithm;
                Table.cell_f r.Flow.metrics.Golden.peak_current_ma;
                Table.cell_f r.Flow.metrics.Golden.vdd_noise_mv;
                Table.cell_f r.Flow.metrics.Golden.gnd_noise_mv;
                Table.cell_f r.Flow.metrics.Golden.skew_ps;
                Table.cell_i r.Flow.num_leaf_inverters;
                Table.cell_f ~decimals:3 r.Flow.elapsed_s ]
          | Error (e, degs) ->
            degradations := !degradations @ degs;
            bump 2;
            print_verror e;
            Table.add_row t
              [ Flow.algorithm_name algo; "failed"; "-"; "-"; "-"; "-"; "-" ])
        (match solver with
        | Some _ -> [ forced ]
        | None -> [ Flow.Initial; Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast ]);
      print_string (Table.render t);
      print_degradations !degradations;
      finish ();
      !code
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare the algorithms on one benchmark")
    Term.(const run $ bench_arg $ solver_arg $ kappa_arg $ slots_arg $ jobs_arg
          $ strict_arg $ budget_arg $ log_level_arg $ trace_arg $ metrics_arg)

let montecarlo_cmd =
  let instances_arg =
    Arg.(value & opt int 200 & info [ "instances"; "n" ] ~doc:"Monte-Carlo instances")
  in
  let run name kappa slots jobs strict budget_ms instances =
    apply_jobs jobs;
    match Benchmarks.find name with
    | spec -> (
      match
        solve_benchmark ~params:(params_of kappa slots)
          ?budget:(budget_of budget_ms) spec (Flow.Chain Flow.Wavemin)
      with
      | Error (e, degs) ->
        print_degradations degs;
        print_verror e;
        2
      | Ok (p, r) -> (
        print_degradations r.Flow.degradations;
        let config =
          { Repro_core.Montecarlo.default_config with
            Repro_core.Montecarlo.instances;
            kappa = Float.max kappa 100.0 }
        in
        match
          Verrors.guard ~stage:"montecarlo" (fun () ->
              Repro_core.Montecarlo.run ~config (Flow.prepared_tree p)
                r.Flow.assignment)
        with
        | Error e ->
          print_verror e;
          2
        | Ok rep ->
          Format.printf "Monte-Carlo (%d instances, sigma/mu = %.0f%%):@."
            instances
            (100.0 *. config.Repro_core.Montecarlo.sigma_ratio);
          Format.printf "  skew yield     %6.1f%% (kappa = %.0f ps)@."
            (100.0 *. rep.Repro_core.Montecarlo.skew_yield)
            config.Repro_core.Montecarlo.kappa;
          Format.printf "  mean skew      %6.2f ps@."
            rep.Repro_core.Montecarlo.mean_skew;
          Format.printf "  sigma/mu peak  %6.3f@."
            rep.Repro_core.Montecarlo.norm_std_peak;
          Format.printf "  sigma/mu VDD   %6.3f@."
            rep.Repro_core.Montecarlo.norm_std_vdd;
          Format.printf "  sigma/mu GND   %6.3f@."
            rep.Repro_core.Montecarlo.norm_std_gnd;
          exit_of ~strict ~approximate:r.Flow.approximate
            r.Flow.degradations))
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "montecarlo" ~doc:"Process-variation analysis (Sec. VII-D)")
    Term.(const run $ bench_arg $ kappa_arg $ slots_arg $ jobs_arg
          $ strict_arg $ budget_arg $ instances_arg)

let characterize_cmd =
  let cell_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CELL"
           ~doc:"Cell name, e.g. BUF_X8")
  in
  let load_arg =
    Arg.(value & opt float 12.0 & info [ "load" ] ~doc:"Output load in fF")
  in
  let run name load =
    match Repro_cell.Library.find name with
    | cell ->
      let p =
        Repro_cell.Characterize.profile cell ~vdd:1.1 ~load ~period:2000.0 ()
      in
      Format.printf "%s at 1.1 V, %.1f fF load:@." name load;
      Format.printf "  T_D rise/fall  %.2f / %.2f ps@."
        p.Repro_cell.Characterize.t_d_rise p.Repro_cell.Characterize.t_d_fall;
      Format.printf "  slew rise/fall %.2f / %.2f ps@."
        p.Repro_cell.Characterize.slew_rise p.Repro_cell.Characterize.slew_fall;
      Format.printf "  peak IDD       %.2f uA@."
        (Repro_waveform.Pwl.peak p.Repro_cell.Characterize.idd);
      Format.printf "  peak ISS       %.2f uA@."
        (Repro_waveform.Pwl.peak p.Repro_cell.Characterize.iss);
      0
    | exception Not_found ->
      Format.eprintf "unknown cell %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "characterize" ~doc:"Print a cell's electrical profile")
    Term.(const run $ cell_arg $ load_arg)

let multimode_cmd =
  let modes_arg =
    Arg.(value & opt int 4 & info [ "modes"; "m" ] ~doc:"Number of power modes")
  in
  let islands_arg =
    Arg.(value & opt int 4 & info [ "islands"; "i" ] ~doc:"Number of voltage islands")
  in
  let run name kappa slots jobs modes islands_n =
    apply_jobs jobs;
    match Benchmarks.find name with
    | spec -> (
      match
        Verrors.guard ~stage:"multimode" @@ fun () ->
      let tree = Benchmarks.synthesize spec in
      let islands =
        Repro_cts.Islands.grid ~die_side:spec.Benchmarks.die_side
          ~count:islands_n
      in
      let rng = Repro_util.Rng.create ~seed:(spec.Benchmarks.seed * 31) in
      let vdds =
        Repro_cts.Islands.random_modes rng islands ~num_modes:modes ()
      in
      let envs =
        Array.mapi
          (fun mode_idx mode_vdds ->
            { (Repro_clocktree.Timing.nominal ~mode:mode_idx ()) with
              Repro_clocktree.Timing.vdd_of =
                (fun nd -> Repro_cts.Islands.vdd_of_node islands mode_vdds nd) })
          vdds
      in
      let params =
        { (params_of kappa slots) with Context.max_interval_classes = 8 }
      in
      let o = Repro_core.Clk_wavemin_m.optimize ~params tree ~envs in
      let m =
        Golden.worst_over_modes tree o.Repro_core.Clk_wavemin_m.assignment envs
      in
      Format.printf "ClkWaveMin-M on %s (%d modes, %d islands, kappa %.0f ps):@."
        name modes (Repro_cts.Islands.count islands) kappa;
      Format.printf "  worst peak current %8.2f mA@." m.Golden.peak_current_ma;
      Format.printf "  worst VDD noise    %8.2f mV@." m.Golden.vdd_noise_mv;
      Format.printf "  worst GND noise    %8.2f mV@." m.Golden.gnd_noise_mv;
      Format.printf "  #ADBs %d, #ADIs %d, used embedding %b, feasible %b@."
        o.Repro_core.Clk_wavemin_m.num_adbs o.Repro_core.Clk_wavemin_m.num_adis
        o.Repro_core.Clk_wavemin_m.used_adb_embedding
        o.Repro_core.Clk_wavemin_m.feasible;
      Format.printf "  per-mode skews:";
      Array.iter (fun s -> Format.printf " %.1f" s) o.Repro_core.Clk_wavemin_m.skews;
      Format.printf " ps@."
      with
      | Ok () -> 0
      | Error e ->
        print_verror e;
        2)
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "multimode" ~doc:"ClkWaveMin-M on a benchmark (Sec. VI)")
    Term.(const run $ bench_arg $ kappa_arg $ slots_arg $ jobs_arg $ modes_arg
          $ islands_arg)

let export_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of the table")
  in
  let run name dot =
    match Benchmarks.find name with
    | spec ->
      let tree = Benchmarks.synthesize spec in
      print_string
        (if dot then Repro_clocktree.Export.to_dot tree
         else Repro_clocktree.Export.to_table tree);
      0
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Dump a benchmark's clock tree")
    Term.(const run $ bench_arg $ dot_arg)

let stats_cmd =
  let run name =
    match Benchmarks.find name with
    | spec ->
      let tree = Benchmarks.synthesize spec in
      Format.printf "%a@." Repro_clocktree.Tree_stats.pp
        (Repro_clocktree.Tree_stats.compute tree);
      0
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Clock-tree statistics of a benchmark")
    Term.(const run $ bench_arg)

let report_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "output"; "o" ]
           ~doc:"Write the report to a file instead of stdout")
  in
  let run name kappa slots jobs out =
    apply_jobs jobs;
    match Benchmarks.find name with
    | spec ->
      let report =
        Repro_core.Report.for_benchmark ~params:(params_of kappa slots) spec
          ~algorithms:[ Flow.Initial; Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast ]
      in
      (match out with
      | None -> print_string report
      | Some path ->
        let oc = open_out path in
        output_string oc report;
        close_out oc;
        Format.printf "wrote %s@." path);
      0
    | exception Not_found ->
      Format.eprintf "unknown benchmark %s@." name;
      1
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Markdown comparison report for a benchmark")
    Term.(const run $ bench_arg $ kappa_arg $ slots_arg $ jobs_arg $ out_arg)

let bench_diff_cmd =
  let baseline_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE.json"
           ~doc:"Baseline run report (e.g. a checked-in bench/baselines file)")
  in
  let candidate_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"CANDIDATE.json"
           ~doc:"Candidate run report (a freshly emitted BENCH_*.json)")
  in
  let d = Run_report.default_tolerances in
  let quality_rtol_arg =
    Arg.(value & opt float d.Run_report.quality_rtol
         & info [ "quality-rtol" ] ~docv:"E"
             ~doc:"Relative tolerance on quality metrics")
  in
  let quality_atol_arg =
    Arg.(value & opt float d.Run_report.quality_atol
         & info [ "quality-atol" ] ~docv:"E"
             ~doc:"Absolute tolerance on quality metrics")
  in
  let runtime_ratio_arg =
    Arg.(value & opt float d.Run_report.runtime_ratio
         & info [ "runtime-ratio" ] ~docv:"R"
             ~doc:"Slowdown factor beyond which a runtime fails the gate")
  in
  let runtime_slack_arg =
    Arg.(value & opt float d.Run_report.runtime_slack_s
         & info [ "runtime-slack" ] ~docv:"S"
             ~doc:"Seconds a runtime may grow regardless of the ratio")
  in
  let run baseline_path candidate_path quality_rtol quality_atol runtime_ratio
      runtime_slack =
    let load path =
      match Run_report.read path with
      | Ok r -> Some r
      | Error msg ->
        Format.eprintf "cannot read report %s: %s@." path msg;
        None
    in
    match (load baseline_path, load candidate_path) with
    | Some baseline, Some candidate ->
      let tol =
        { Run_report.quality_rtol; quality_atol; runtime_ratio;
          runtime_slack_s = runtime_slack }
      in
      let changes = Run_report.diff ~tol ~baseline ~candidate () in
      print_string (Run_report.render_diff changes);
      if Run_report.failures changes = [] then 0 else 1
    | _ -> 2
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two BENCH_*.json run reports and fail on quality or \
          runtime regressions")
    Term.(const run $ baseline_arg $ candidate_arg $ quality_rtol_arg
          $ quality_atol_arg $ runtime_ratio_arg $ runtime_slack_arg)

let library_cmd =
  let run () =
    print_string (Repro_cell.Liberty.to_string Repro_cell.Library.all);
    0
  in
  Cmd.v
    (Cmd.info "library" ~doc:"Dump the standard cell library (Liberty-style)")
    Term.(const run $ const ())

let validate_cmd =
  let bench_opt_arg =
    let doc = "Benchmark to validate (default: the whole suite)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let all_arg =
    let doc =
      "Validate every built-in benchmark (explicit spelling of the \
       no-argument default; wins over a $(i,BENCHMARK) argument)."
    in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let run name all kappa slots =
    let params = params_of kappa slots in
    let specs =
      match (if all then None else name) with
      | None -> Ok Benchmarks.all
      | Some n -> (
        match Benchmarks.find n with
        | spec -> Ok [ spec ]
        | exception Not_found -> Error n)
    in
    match specs with
    | Error n ->
      Format.eprintf "unknown benchmark %s@." n;
      1
    | Ok specs ->
      let bad = ref 0 in
      List.iter
        (fun spec ->
          let name = spec.Benchmarks.name in
          let ds =
            match
              Verrors.guard ~stage:"validate" (fun () ->
                  let tree = Benchmarks.synthesize spec in
                  Preflight.check ~params tree ~cells:(Flow.leaf_library ()))
            with
            | Ok ds -> ds
            | Error e -> [ e ]
          in
          match ds with
          | [] -> Format.printf "%-10s preflight: ok@." name
          | ds ->
            incr bad;
            Format.printf "%-10s %d issue(s):@." name (List.length ds);
            List.iter
              (fun d -> Format.printf "  %s@." (Verrors.to_string d))
              ds)
        specs;
      if !bad = 0 then 0 else 2
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Preflight-validate benchmark inputs (tree structure, cell \
          library, solver parameters and skew-window feasibility), \
          reporting every violation instead of stopping at the first")
    Term.(const run $ bench_opt_arg $ all_arg $ kappa_arg $ slots_arg)

(* ---- service mode ------------------------------------------------- *)

let address_arg =
  let doc =
    "Server address: $(b,unix:PATH), $(b,tcp:HOST:PORT), $(b,tcp:PORT) \
     (localhost) or a bare Unix-socket path."
  in
  Arg.(value & opt string "unix:wavemin.sock"
       & info [ "address"; "A" ] ~docv:"ADDR" ~doc)

let parse_address s =
  match Server.address_of_string s with
  | Ok a -> Ok a
  | Error msg ->
    Format.eprintf "wavemin: bad address %S: %s@." s msg;
    Error 1

let serve_cmd =
  let queue_arg =
    let doc =
      "Bounded request-queue depth.  When $(docv) requests are already \
       waiting, further data-plane requests are rejected immediately \
       with a structured $(b,overloaded) error (explicit backpressure) \
       instead of buffering without bound."
    in
    Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let cache_arg =
    let doc =
      "LRU session-cache capacity: prepared benchmarks (parsed library, \
       synthesized tree, timing context, noise tables, waveform memo) \
       kept warm, keyed by a content hash of benchmark + parameters + \
       library text."
    in
    Arg.(value & opt int 8 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let cache_shards_arg =
    let doc =
      "Lock stripes for the session cache: the capacity is split across \
       $(docv) independently locked LRU shards (clamped to a power of \
       two no larger than the capacity), so concurrent executors' warm \
       lookups only contend on same-shard keys."
    in
    Arg.(value & opt int 4 & info [ "cache-shards" ] ~docv:"N" ~doc)
  in
  let executors_arg =
    let doc =
      "Executor workers pulling from the request queue — cross-request \
       parallelism, on top of the per-request $(b,--jobs) pool.  0 (the \
       default) means one executor per job."
    in
    Arg.(value & opt int 0 & info [ "executors" ] ~docv:"N" ~doc)
  in
  let report_arg =
    let doc = "Where the final drain report (BENCH schema) is written." in
    Arg.(value & opt string "BENCH_serve_drain.json"
         & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let no_report_arg =
    Arg.(value & flag
         & info [ "no-report" ] ~doc:"Do not write a final drain report.")
  in
  let access_log_arg =
    let doc =
      "Append a JSONL access log to $(docv): one line per data-plane \
       request (request id, type, content hash, cache outcome, \
       degradations, queue-wait and wall time, status) — including \
       rejections and parse failures.  Strictly out-of-band: responses \
       are byte-identical with or without it."
    in
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let access_log_max_bytes_arg =
    let doc =
      "Rotate the access log when appending would push it past $(docv) \
       bytes: the live file becomes $(i,FILE.1), existing generations \
       shift up, and a fresh file is opened.  Omitted or <= 0 grows \
       the file without bound."
    in
    Arg.(value & opt (some int) None
         & info [ "access-log-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let access_log_keep_arg =
    let doc =
      "Rotated access-log generations retained ($(i,FILE.1) .. \
       $(i,FILE.N)); older ones are deleted at rotation."
    in
    Arg.(value & opt int 3 & info [ "access-log-keep" ] ~docv:"N" ~doc)
  in
  let flight_dir_arg =
    let doc =
      "Directory for black-box flight-recorder dumps: on a faulted or \
       degraded request, and once per overload episode, the in-memory \
       event ring is written to $(docv)/$(i,RID).flight.json for \
       $(b,wavemin explain)."
    in
    Arg.(value & opt string "." & info [ "flight-dir" ] ~docv:"DIR" ~doc)
  in
  let no_flight_arg =
    Arg.(value & flag
         & info [ "no-flight-dump" ]
             ~doc:
               "Never write flight dumps to disk (the in-memory \
                recorder stays on and is still served by the \
                $(b,flight) control request).")
  in
  let window_arg =
    let doc =
      "Rolling-window width in seconds for the live latency/queue-wait \
       percentiles served under $(b,stats.rolling)."
    in
    Arg.(value & opt float 60.0 & info [ "window" ] ~docv:"SECONDS" ~doc)
  in
  let idle_timeout_arg =
    let doc =
      "Close a connection that produces no complete request line for \
       $(docv) seconds with a structured $(b,io-error) — the slowloris \
       guard (a byte-at-a-time dribbler counts as idle; only complete \
       lines reset the clock).  0 disables the timeout."
    in
    Arg.(value & opt float 300.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_line_arg =
    let doc =
      "Reject (structured $(b,parse-error)) and disconnect a peer whose \
       request line exceeds $(docv) bytes; the reader buffer is bounded \
       by it."
    in
    Arg.(value & opt int (1 lsl 20) & info [ "max-line" ] ~docv:"BYTES" ~doc)
  in
  let stall_after_arg =
    let doc =
      "Watchdog stall limit in seconds for requests with no budget and \
       no deadline (budgeted requests stall at 4x their limit instead). \
       A stalled executor is reported — warning, \
       $(b,server.executor_stalled) metric, flight note, black-box dump \
       — once per wedged request, never killed."
    in
    Arg.(value & opt float 30.0 & info [ "stall-after" ] ~docv:"SECONDS" ~doc)
  in
  let run address_s queue cache cache_shards executors report no_report
      access_log access_log_max_bytes access_log_keep flight_dir no_flight
      window idle_timeout max_line stall_after jobs level trace metrics =
    apply_jobs jobs;
    let finish = setup_obs level trace metrics in
    match parse_address address_s with
    | Error code -> code
    | Ok address -> (
      let cfg =
        { Server.address; queue_capacity = max 1 queue;
          cache_capacity = max 1 cache;
          cache_shards = max 1 cache_shards;
          executors;
          report_path = (if no_report then None else Some report);
          access_log_path = access_log;
          access_log_max_bytes;
          access_log_keep = max 1 access_log_keep;
          flight_dir = (if no_flight then None else Some flight_dir);
          rolling_window_s = (if window > 0.0 then window else 60.0);
          sample_period_s = Some 1.0;
          idle_timeout_s = (if idle_timeout > 0.0 then Some idle_timeout else None);
          max_line_bytes = max_line;
          watchdog_period_s = Some 1.0;
          stall_after_s = (if stall_after > 0.0 then stall_after else 30.0);
          handle_signals = true; readiness = Some stdout }
      in
      match Verrors.guard ~stage:"server.serve" (fun () -> Server.serve cfg) with
      | Ok () ->
        finish ();
        0
      | Error e ->
        finish ();
        print_verror e;
        2)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident optimization service: newline-delimited JSON \
          requests (run/compare/validate/montecarlo/stats/health/flight/\
          shutdown) over a Unix-domain or TCP socket, with a warm session cache, \
          bounded-queue backpressure and graceful drain on SIGTERM or a \
          $(b,shutdown) request.  Live telemetry: per-request spans and \
          access log, rolling latency windows in $(b,stats), Prometheus \
          exposition via the $(b,metrics) request")
    Term.(const run $ address_arg $ queue_arg $ cache_arg $ cache_shards_arg
          $ executors_arg $ report_arg
          $ no_report_arg $ access_log_arg $ access_log_max_bytes_arg
          $ access_log_keep_arg $ flight_dir_arg $ no_flight_arg
          $ window_arg $ idle_timeout_arg $ max_line_arg $ stall_after_arg
          $ jobs_arg $ log_level_arg $ trace_arg $ metrics_arg)

let client_cmd =
  let request_arg =
    let doc =
      "Request type: run, compare, validate, montecarlo, stats, metrics, \
       health, flight or shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"REQUEST" ~doc)
  in
  let metrics_format_arg =
    let doc =
      "For $(b,metrics): $(b,text) (Prometheus exposition) or $(b,json) \
       (registry snapshot)."
    in
    Arg.(value & opt (enum [ ("text", Proto.Text); ("json", Proto.Json_snapshot) ])
           Proto.Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let bench_opt_arg =
    let doc = "Benchmark name (required for run/compare/montecarlo)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let algo_name_arg =
    let doc =
      "Algorithm for $(b,run): initial, peakmin, wavemin, wavemin-f or sa."
    in
    Arg.(value & opt string "wavemin" & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let warm_arg =
    let doc =
      "For $(b,run) with $(b,--algo sa): opt into the server's warm-start \
       ECO path — when the server holds a previous assignment for the \
       same tree and library, the annealer quenches from it instead of \
       solving cold (access-logged as cache=warm)."
    in
    Arg.(value & flag & info [ "warm" ] ~doc)
  in
  let instances_arg =
    Arg.(value & opt int 200
         & info [ "instances"; "n" ] ~doc:"Monte-Carlo instances")
  in
  let max_labels_arg =
    let doc = "Per-request MOSP label budget." in
    Arg.(value & opt (some int) None & info [ "max-labels" ] ~docv:"N" ~doc)
  in
  let library_arg =
    let doc =
      "Liberty-style cell library file sent with the request, overriding \
       the server's built-in leaf library."
    in
    Arg.(value & opt (some file) None & info [ "library" ] ~docv:"FILE" ~doc)
  in
  let all_arg =
    Arg.(value & flag
         & info [ "all" ] ~doc:"For $(b,validate): the whole suite.")
  in
  let time_arg =
    let doc =
      "Print the request round-trip time as `elapsed_ms NNN.N' on stderr, \
       and for data-plane requests also the server-side breakdown \
       (`server_ms'/`queue_wait_ms', correlated by request id via the \
       server's $(b,stats) `last' block).  Responses themselves are \
       deterministic and carry no timings."
    in
    Arg.(value & flag & info [ "time" ] ~doc)
  in
  let deadline_ms_arg =
    let doc =
      "End-to-end deadline in milliseconds, carried in the request \
       envelope: once it passes (measured from the server parsing the \
       line) the server sheds the request with a structured \
       $(b,deadline-exceeded) error instead of executing it — and \
       cancels an already-running solve cooperatively."
    in
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Re-attempt the request up to $(docv) times — each on a fresh \
       connection — after an $(b,overloaded) rejection or a transport \
       failure (connection refused while the daemon restarts, resets \
       mid-request), with jittered exponential backoff.  Safe because \
       responses are deterministic and duplicates coalesce server-side."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_backoff_arg =
    let doc =
      "Base backoff in milliseconds: sleep $(docv) x 2^attempt x \
       U[0.5,1.5] before each re-attempt."
    in
    Arg.(value & opt float 50.0 & info [ "retry-backoff" ] ~docv:"MS" ~doc)
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let run address_s request_s bench algo_s warm kappa slots budget_ms
      max_labels instances library_file all time deadline_ms retries
      retry_backoff metrics_format =
    (* With --retries, writing into a connection the daemon reset must
       surface as a retryable io-error, not kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match parse_address address_s with
    | Error code -> code
    | Ok address -> (
      let opts_of () =
        match bench with
        | None when not (all && request_s = "validate") ->
          Format.eprintf "wavemin: %s needs a BENCHMARK argument@." request_s;
          Error 1
        | _ ->
          let library = Option.map read_file library_file in
          Ok
            { Proto.benchmark = Option.value bench ~default:"";
              kappa; slots; budget_ms; max_labels; library }
      in
      let req =
        match request_s with
        | "stats" -> Ok Proto.Stats
        | "metrics" -> Ok (Proto.Metrics metrics_format)
        | "health" -> Ok Proto.Health
        | "flight" -> Ok Proto.Flight
        | "shutdown" -> Ok Proto.Shutdown
        | "run" -> (
          match Proto.algorithm_of_name algo_s with
          | None ->
            Format.eprintf "wavemin: unknown algorithm %s@." algo_s;
            Error 1
          | Some algorithm ->
            Result.map
              (fun opts -> Proto.Run { opts; algorithm; warm })
              (opts_of ()))
        | "compare" -> Result.map (fun o -> Proto.Compare o) (opts_of ())
        | "validate" ->
          Result.map (fun opts -> Proto.Validate { opts; all }) (opts_of ())
        | "montecarlo" ->
          Result.map (fun opts -> Proto.Montecarlo { opts; instances })
            (opts_of ())
        | other ->
          Format.eprintf "wavemin: unknown request type %s@." other;
          Error 1
      in
      match req with
      | Error code -> code
      | Ok req -> (
        let attempt_once () =
          Client.with_connection address (fun c ->
              let t0 = Obs_clock.now_s () in
              match Client.request_with_id ?deadline_ms c req with
              | Error e -> Error e
              | Ok (id, resp) ->
                let elapsed_ms = (Obs_clock.now_s () -. t0) *. 1000.0 in
                (* Server-side breakdown: the stats `last' block is
                   published before the response bytes are written, so a
                   synchronous client's follow-up stats on the same
                   connection always sees its own request. *)
                let server_side =
                  if time && resp.Proto.ok && not (Proto.is_control req) then
                    match Client.request c Proto.Stats with
                    | Ok stats when stats.Proto.ok -> (
                      match Json.member "last" stats.Proto.body with
                      | Some last when Json.member "id" last = Some id ->
                        let f name =
                          Option.bind (Json.member name last) Json.float_value
                        in
                        (match (f "wall_ms", f "queue_wait_ms") with
                        | Some w, Some q -> Some (w, q)
                        | _ -> None)
                      | _ -> None)
                    | _ -> None
                  else None
                in
                Ok (resp, elapsed_ms, server_side))
        in
        (* Same retry policy as {!Client.request_retry}, kept inline so
           the --time breakdown still rides the winning connection. *)
        let rng =
          lazy
            (Repro_util.Rng.create
               ~seed:
                 (int_of_float (Float.rem (Obs_clock.now_s () *. 1e3) 1e9)
                 lxor 0x5eed))
        in
        let backoff attempt why =
          let ms =
            Float.max 0.0 retry_backoff
            *. (2.0 ** float_of_int attempt)
            *. Repro_util.Rng.uniform (Lazy.force rng) ~lo:0.5 ~hi:1.5
          in
          Format.eprintf "wavemin: %s; retry %d/%d in %.0f ms@." why
            (attempt + 1) retries ms;
          Thread.delay (ms /. 1000.0)
        in
        let overloaded (resp : Proto.response) =
          (not resp.Proto.ok)
          && Json.member "code" resp.Proto.body = Some (Json.Str "overloaded")
        in
        let rec attempt n =
          match attempt_once () with
          | Error e when e.Verrors.code = Verrors.Io_error && n < retries ->
            backoff n (Verrors.code_name e.Verrors.code);
            attempt (n + 1)
          | Ok (resp, _, _) when overloaded resp && n < retries ->
            backoff n "overloaded";
            attempt (n + 1)
          | outcome -> outcome
        in
        match attempt 0 with
        | Error e ->
          print_verror e;
          2
        | Ok (resp, elapsed_ms, server_side) ->
          if time then begin
            Format.eprintf "elapsed_ms %.1f@." elapsed_ms;
            Option.iter
              (fun (wall_ms, queue_wait_ms) ->
                Format.eprintf "server_ms %.1f queue_wait_ms %.1f@." wall_ms
                  queue_wait_ms)
              server_side
          end;
          print_endline (Json.to_string_pretty resp.Proto.body);
          if resp.Proto.ok then 0 else 2))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running `wavemin serve' and print the \
          JSON response (exit 0 on an ok response, 2 on a structured \
          error or transport failure)")
    Term.(const run $ address_arg $ request_arg $ bench_opt_arg
          $ algo_name_arg $ warm_arg $ kappa_arg $ slots_arg $ budget_arg
          $ max_labels_arg $ instances_arg $ library_arg $ all_arg $ time_arg
          $ deadline_ms_arg $ retries_arg $ retry_backoff_arg
          $ metrics_format_arg)

let bench_serve_cmd =
  let connections_arg =
    let doc = "Concurrent client connections (worker threads)." in
    Arg.(value & opt int 4 & info [ "connections"; "c" ] ~docv:"N" ~doc)
  in
  let count_arg =
    let doc =
      "Request-count budget.  Default 64 when no $(b,--duration) is \
       given; with both, whichever budget is spent first stops."
    in
    Arg.(value & opt (some int) None & info [ "count"; "n" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Wall-duration budget in seconds." in
    Arg.(value & opt (some float) None
         & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let benchmark_arg =
    let doc = "Benchmark circuit driven by the run/validate classes." in
    Arg.(value & opt string "s15850"
         & info [ "benchmark"; "b" ] ~docv:"BENCHMARK" ~doc)
  in
  let window_arg =
    let doc = "Rolling-window width for the reported rolling p50/95/99." in
    Arg.(value & opt float 60.0 & info [ "window" ] ~docv:"SECONDS" ~doc)
  in
  let output_arg =
    let doc = "Where the BENCH-schema load report is written." in
    Arg.(value & opt string "BENCH_serve.json"
         & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let dup_fraction_arg =
    let doc =
      "Add a duplicate-heavy class ($(b,dup-wavemin): content-identical \
       heavy requests) weighted to be roughly $(docv) of the schedule \
       (0 < $(docv) <= 0.9) — concurrent duplicates exercise the \
       server's single-flight coalescing, reported as $(b,coalesced) in \
       the run summary and the report's environment block."
    in
    Arg.(value & opt float 0.0 & info [ "dup-fraction" ] ~docv:"FRACTION" ~doc)
  in
  let retries_arg =
    let doc =
      "Per-request re-attempts on an $(b,overloaded) rejection or a \
       transport failure (reconnecting first), with jittered \
       exponential backoff; spent retries are reported and land in the \
       report's ungated environment block."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_backoff_arg =
    let doc =
      "Base backoff in milliseconds: sleep $(docv) x 2^attempt x \
       U[0.5,1.5] before each re-attempt."
    in
    Arg.(value & opt float 50.0 & info [ "retry-backoff" ] ~docv:"MS" ~doc)
  in
  let cell = Table.cell_f ~decimals:1 in
  let run address_s connections count duration benchmark window dup_fraction
      retries retry_backoff output =
    match parse_address address_s with
    | Error code -> code
    | Ok address -> (
      let total =
        match (count, duration) with None, None -> Some 64 | c, _ -> c
      in
      let profile =
        if dup_fraction > 0.0 then
          Loadgen.dup_profile ~benchmark ~fraction:dup_fraction
        else Loadgen.default_profile ~benchmark
      in
      let cfg =
        { Loadgen.address; connections = max 1 connections; total;
          duration_s = duration; profile;
          window_s = (if window > 0.0 then window else 60.0);
          retries = max 0 retries;
          retry_backoff_ms = Float.max 0.0 retry_backoff }
      in
      match Loadgen.run cfg with
      | Error e ->
        print_verror e;
        2
      | Ok r ->
        let tbl =
          Table.create
            ~headers:
              [ "class"; "requests"; "errors"; "mean ms"; "p50 ms";
                "p95 ms"; "p99 ms"; "max ms" ]
        in
        let row (c : Loadgen.class_stats) =
          Table.add_row tbl
            [ c.name; Table.cell_i c.count; Table.cell_i c.errors;
              cell c.mean_ms; cell c.p50_ms; cell c.p95_ms; cell c.p99_ms;
              cell c.max_ms ]
        in
        List.iter row r.classes;
        Table.add_separator tbl;
        row r.overall;
        print_string (Table.render ~align:Table.Right tbl);
        Format.printf
          "@.wall_s %.2f  requests %d  errors %d  retries %d  throughput \
           %.1f req/s@."
          r.wall_s r.total_requests r.total_errors r.total_retries
          r.throughput_rps;
        (match r.coalesced with
        | Some n -> Format.printf "coalesced %d@." n
        | None -> ());
        Format.printf "rolling(%gs) p50 %.1f  p95 %.1f  p99 %.1f ms@."
          cfg.Loadgen.window_s r.rolling.Repro_obs.Rolling.p50
          r.rolling.Repro_obs.Rolling.p95 r.rolling.Repro_obs.Rolling.p99;
        Run_report.write output (Loadgen.to_report cfg r);
        Format.printf "wrote %s@." output;
        if r.total_errors > 0 then 3 else 0)
  in
  Cmd.v
    (Cmd.info "bench-serve"
       ~doc:
         "Drive a running `wavemin serve' with a mixed request-class \
          load (N connections, round-robin class schedule) and write a \
          BENCH-schema report — throughput plus exact and \
          rolling-window latency percentiles — gated in CI by \
          $(b,bench-diff)")
    Term.(const run $ address_arg $ connections_arg $ count_arg
          $ duration_arg $ benchmark_arg $ window_arg $ dup_fraction_arg
          $ retries_arg $ retry_backoff_arg $ output_arg)

let top_cmd =
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 2.0 & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc)
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ] ~doc:"Print one snapshot and exit (no clearing).")
  in
  let str path json =
    let rec get path j =
      match path with
      | [] -> Json.string_value j
      | k :: rest -> Option.bind (Json.member k j) (get rest)
    in
    Option.value (get path json) ~default:"-"
  in
  let num path json =
    let rec get path j =
      match path with
      | [] -> Json.float_value j
      | k :: rest -> Option.bind (Json.member k j) (get rest)
    in
    get path json
  in
  let fmt ?(decimals = 1) path json =
    match num path json with
    | None -> "-"
    | Some v ->
      if Float.is_integer v && abs_float v < 1e9 then
        string_of_int (int_of_float v)
      else Printf.sprintf "%.*f" decimals v
  in
  let render body =
    let b = Format.sprintf in
    (* One segment per executor: busy fraction, responses written, and
       the request id in flight ("idle" when blocked in pop). *)
    let executors_line =
      match Json.member "executors" body with
      | Some (Json.List (_ :: _ as items)) ->
        let one item =
          let pct =
            match num [ "busy_frac" ] item with
            | Some v -> Printf.sprintf "%.0f%%" (100.0 *. v)
            | None -> "-"
          in
          let rid =
            match str [ "rid" ] item with "-" -> "idle" | r -> r
          in
          b "e%s %s busy, %s req (%s)" (fmt [ "id" ] item) pct
            (fmt [ "requests" ] item)
            rid
        in
        [ "executors " ^ String.concat " | " (List.map one items) ]
      | _ -> []
    in
    let lines =
      [ b "wavemin top — %s  up %ss  jobs %s" (str [ "status" ] body)
          (fmt ~decimals:0 [ "uptime_s" ] body)
          (fmt [ "jobs" ] body);
        b "served %s  rejected %s  errors %s  coalesced %s  in-flight %s"
          (fmt [ "served" ] body) (fmt [ "rejected" ] body)
          (fmt [ "errors" ] body)
          (fmt [ "coalesced" ] body)
          (fmt [ "in_flight" ] body) ]
      @ executors_line
      @ [
        b "queue %s/%s  cache %s/%s (hits %s misses %s evictions %s)"
          (fmt [ "queue"; "depth" ] body)
          (fmt [ "queue"; "capacity" ] body)
          (fmt [ "cache"; "entries" ] body)
          (fmt [ "cache"; "capacity" ] body)
          (fmt [ "cache"; "hits" ] body)
          (fmt [ "cache"; "misses" ] body)
          (fmt [ "cache"; "evictions" ] body);
        b "rolling(%ss) latency p50 %s  p95 %s  p99 %s ms  rate %s/s"
          (fmt ~decimals:0 [ "rolling"; "window_s" ] body)
          (fmt [ "rolling"; "latency_ms"; "p50" ] body)
          (fmt [ "rolling"; "latency_ms"; "p95" ] body)
          (fmt [ "rolling"; "latency_ms"; "p99" ] body)
          (fmt [ "rolling"; "latency_ms"; "rate_per_s" ] body);
        b "        queue-wait p50 %s  p95 %s  p99 %s ms"
          (fmt [ "rolling"; "queue_wait_ms"; "p50" ] body)
          (fmt [ "rolling"; "queue_wait_ms"; "p95" ] body)
          (fmt [ "rolling"; "queue_wait_ms"; "p99" ] body);
        b "last %s %s %s %s cache=%s wall %s ms (queue %s ms)"
          (str [ "last"; "rid" ] body)
          (str [ "last"; "type" ] body)
          (str [ "last"; "benchmark" ] body)
          (str [ "last"; "status" ] body)
          (str [ "last"; "cache" ] body)
          (fmt [ "last"; "wall_ms" ] body)
          (fmt [ "last"; "queue_wait_ms" ] body) ]
    in
    String.concat "\n" lines
  in
  let run address_s interval once =
    match parse_address address_s with
    | Error code -> code
    | Ok address ->
      let delay () = Thread.delay (Float.max 0.1 interval) in
      let poll c = Client.request c Proto.Stats in
      (* One connection per attempt.  A daemon restart mid-poll surfaces
         as a transport error from [poll] (or a failed connect on the
         next attempt): never a stack trace — print a one-liner and keep
         retrying on the same cadence until the daemon is back. *)
      let rec attempt first =
        let outcome =
          Client.with_connection address (fun c ->
              let rec loop first =
                match poll c with
                | Error e -> Error e
                | Ok resp when not resp.Proto.ok ->
                  print_endline (Json.to_string_pretty resp.Proto.body);
                  Ok 2
                | Ok resp ->
                  if once then begin
                    print_endline (render resp.Proto.body);
                    Ok 0
                  end
                  else begin
                    (* \027[H\027[2J = home + clear, plain ANSI. *)
                    if first then print_string "\027[2J";
                    print_string "\027[H";
                    print_endline (render resp.Proto.body);
                    flush stdout;
                    delay ();
                    loop false
                  end
              in
              loop first)
        in
        match outcome with
        | Error e ->
          if once then begin
            print_verror e;
            2
          end
          else begin
            print_endline "daemon unavailable";
            flush stdout;
            delay ();
            attempt true
          end
        | Ok code -> code
      in
      attempt true
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running `wavemin serve': queue and cache state, \
          rolling latency/queue-wait percentiles and the last completed \
          request, polled over the $(b,stats) request")
    Term.(const run $ address_arg $ interval_arg $ once_arg)

(* ---- degradation forensics ---------------------------------------- *)

let explain_cmd =
  let target_arg =
    let doc =
      "A flight-recorder dump file ($(i,*.flight.json), as written by \
       the server or $(b,--output)), or a benchmark name to solve live \
       with the recorder on."
    in
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DUMP_OR_BENCHMARK" ~doc)
  in
  let output_arg =
    let doc =
      "After a live benchmark run, also write the raw flight dump to \
       $(docv) (re-renderable later with `wavemin explain $(docv)')."
    in
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let max_labels_arg =
    let doc =
      "MOSP label budget for a live run — small values force the \
       cap/fallback machinery, which is exactly what the report \
       dissects."
    in
    Arg.(value & opt (some int) None & info [ "max-labels" ] ~docv:"N" ~doc)
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let render_dump dump =
    match Obs_explain.render dump with
    | Ok report ->
      print_string report;
      0
    | Error msg ->
      Format.eprintf "wavemin: cannot explain dump: %s@." msg;
      2
  in
  let explain_file path =
    match read_file path with
    | exception Sys_error msg ->
      Format.eprintf "wavemin: cannot read %s: %s@." path msg;
      1
    | text -> (
      match Json.of_string text with
      | Error msg ->
        Format.eprintf "wavemin: %s is not JSON: %s@." path msg;
        2
      | Ok dump -> render_dump dump)
  in
  let explain_live spec algo kappa slots budget_ms max_labels output =
    Obs_flight.set_enabled true;
    Obs_flight.clear ();
    let budget =
      match (budget_ms, max_labels) with
      | None, None -> None
      | wall_ms, max_labels -> Some (Budget.create ?wall_ms ?max_labels ())
    in
    let outcome =
      solve_benchmark ~params:(params_of kappa slots) ?budget spec
        (Flow.Chain algo)
    in
    let dump = Obs_flight.to_json () in
    (match output with
    | None -> ()
    | Some path -> (
      match Obs_flight.write path with
      | Ok () -> Format.printf "wrote flight dump to %s@." path
      | Error msg ->
        Format.eprintf "wavemin: cannot write flight dump: %s@." msg));
    let render_code = render_dump dump in
    match outcome with
    | Error (e, _) ->
      print_verror e;
      2
    | Ok (_, r) ->
      if render_code <> 0 then render_code
      else if r.Flow.degradations <> [] then 3
      else 0
  in
  let run target algo kappa slots budget_ms max_labels output jobs level trace
      metrics =
    apply_jobs jobs;
    let finish = setup_obs level trace metrics in
    let code =
      if Sys.file_exists target && not (Sys.is_directory target) then
        explain_file target
      else
        match Benchmarks.find target with
        | spec -> explain_live spec algo kappa slots budget_ms max_labels output
        | exception Not_found ->
          Format.eprintf
            "wavemin: %s is neither a readable dump file nor a known \
             benchmark@."
            target;
          1
    in
    finish ();
    code
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Degradation forensics from the solver flight recorder: render \
          a dump ($(i,RID.flight.json) written by `wavemin serve', or a \
          $(b,flight) control-request snapshot) as a human report — \
          solve timeline with every fallback and its triggering error, \
          binding sinks of the skew window, per-zone label-count \
          evolution and wall-time breakdown.  Given a benchmark name \
          instead, solve it live with the recorder on (use \
          $(b,--max-labels)/$(b,--budget-ms) to force the degradation \
          under study) and render the resulting ring")
    Term.(const run $ target_arg $ algo_arg $ kappa_arg $ slots_arg
          $ budget_arg $ max_labels_arg $ output_arg $ jobs_arg
          $ log_level_arg $ trace_arg $ metrics_arg)

(* ---- chaos: a misbehaving peer on demand --------------------------- *)

(* Drives the server's abuse paths from the outside, with nothing but
   raw sockets — the smoke tests' slowloris, flood and mid-request
   disconnect tooling (no dependency on socat/nc).  Each mode prints
   one `chaos MODE: ...' line describing what the server did. *)
let chaos_cmd =
  let mode_arg =
    let doc =
      "What to do to the server: $(b,dribble) (send a request \
       byte-at-a-time and never finish the line — slowloris), \
       $(b,oversize) (stream one giant newline-less line), $(b,hang) \
       (connect and send nothing), $(b,disconnect) (send a valid heavy \
       request, then close without reading the response)."
    in
    Arg.(required
         & pos 0
             (some
                (enum
                   [ ("dribble", `Dribble); ("oversize", `Oversize);
                     ("hang", `Hang); ("disconnect", `Disconnect) ]))
             None
         & info [] ~docv:"MODE" ~doc)
  in
  let bytes_arg =
    let doc = "For $(b,oversize): bytes streamed (newline-less)." in
    Arg.(value & opt int (2 * (1 lsl 20)) & info [ "bytes" ] ~docv:"N" ~doc)
  in
  let delay_arg =
    let doc = "For $(b,dribble): inter-byte delay in seconds." in
    Arg.(value & opt float 0.05 & info [ "delay" ] ~docv:"SECONDS" ~doc)
  in
  let wait_arg =
    let doc =
      "How long to wait for the server's verdict (a response line or \
       the connection being closed) before giving up."
    in
    Arg.(value & opt float 30.0 & info [ "wait" ] ~docv:"SECONDS" ~doc)
  in
  let benchmark_arg =
    let doc = "For $(b,disconnect): benchmark in the abandoned request." in
    Arg.(value & opt string "s15850"
         & info [ "benchmark"; "b" ] ~docv:"BENCHMARK" ~doc)
  in
  let raw_connect address =
    match (address : Server.address) with
    | Server.Unix_path path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    | Server.Tcp { host; port } ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
            failwith (Printf.sprintf "cannot resolve host %s" host)
          | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      fd
  in
  (* Wait for the server's verdict: returns the first line it sends, or
     [`Closed] on EOF, or [`Silent] after [wait] seconds. *)
  let await_verdict fd wait =
    let buf = Buffer.create 256 in
    let chunk = Bytes.create 4096 in
    let deadline = Obs_clock.now_s () +. wait in
    let rec go () =
      let left = deadline -. Obs_clock.now_s () in
      if left <= 0.0 then `Silent
      else
        match Unix.select [ fd ] [] [] (Float.min 0.25 left) with
        | [], _, _ -> go ()
        | _, _, _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> if Buffer.length buf > 0 then `Line (Buffer.contents buf) else `Closed
          | n -> (
            Buffer.add_subbytes buf chunk 0 n;
            match String.index_opt (Buffer.contents buf) '\n' with
            | Some i -> `Line (String.sub (Buffer.contents buf) 0 i)
            | None -> go ())
          | exception Unix.Unix_error _ -> `Closed)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> `Closed
    in
    go ()
  in
  let write_all fd s =
    let len = String.length s in
    let rec go off =
      if off < len then
        let n = Unix.write_substring fd s off (len - off) in
        go (off + n)
    in
    go 0
  in
  let describe = function
    | `Line l -> Printf.sprintf "server answered: %s" l
    | `Closed -> "server closed the connection"
    | `Silent -> "server stayed silent until the wait expired"
  in
  let run address_s mode bytes delay wait benchmark =
    (* A server that cuts us off mid-write is the expected outcome here:
       take it as EPIPE, not a fatal signal. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match parse_address address_s with
    | Error code -> code
    | Ok address -> (
      match raw_connect address with
      | exception (Unix.Unix_error _ | Failure _) ->
        Format.eprintf "wavemin: chaos: cannot connect to %s@." address_s;
        2
      | fd ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let request =
              Proto.line
                (Proto.request_to_json ~id:(Json.Str "chaos")
                   (Proto.Run
                      { opts = Proto.default_opts ~benchmark;
                        algorithm = Repro_core.Flow.Wavemin;
                        warm = false }))
            in
            match mode with
            | `Dribble ->
              (* Send everything but the terminating newline, slowly. *)
              let body = String.sub request 0 (String.length request - 1) in
              let verdict = ref `Silent in
              (try
                 String.iter
                   (fun c ->
                     write_all fd (String.make 1 c);
                     Thread.delay (Float.max 0.0 delay))
                   body;
                 verdict := await_verdict fd wait
               with Unix.Unix_error _ | Sys_error _ ->
                 (* The server cut us off mid-dribble: that is the
                    verdict. *)
                 verdict := `Closed);
              Format.printf "chaos dribble: %s@." (describe !verdict);
              0
            | `Oversize ->
              let blk = String.make 65536 'x' in
              let verdict = ref `Silent in
              (try
                 let sent = ref 0 in
                 while !sent < bytes do
                   write_all fd blk;
                   sent := !sent + String.length blk
                 done;
                 verdict := await_verdict fd wait
               with Unix.Unix_error _ | Sys_error _ -> verdict := `Closed);
              (* A verdict may already be buffered even if the send
                 died. *)
              (match !verdict with
              | `Closed -> verdict := await_verdict fd wait
              | _ -> ());
              Format.printf "chaos oversize: %s@." (describe !verdict);
              0
            | `Hang ->
              Format.printf "chaos hang: %s@." (describe (await_verdict fd wait));
              0
            | `Disconnect ->
              (try write_all fd request
               with Unix.Unix_error _ | Sys_error _ -> ());
              Format.printf
                "chaos disconnect: request sent, closing without reading@.";
              0))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Misbehave at a running `wavemin serve' on purpose — slowloris \
          dribble, oversized request line, silent connection, \
          mid-request disconnect — and report how the server responded. \
          The chaos smoke tests drive the daemon's abuse guards with \
          this (no socat/nc needed)")
    Term.(const run $ address_arg $ mode_arg $ bytes_arg $ delay_arg
          $ wait_arg $ benchmark_arg)

let () =
  let info =
    Cmd.info "wavemin" ~version:"1.0.0"
      ~doc:"Clock buffer polarity assignment with buffer sizing (WaveMin)"
  in
  let group =
    Cmd.group info
      [ list_cmd; run_cmd; validate_cmd; profile_cmd; compare_cmd;
        multimode_cmd; montecarlo_cmd; characterize_cmd; export_cmd;
        stats_cmd; report_cmd; bench_diff_cmd; library_cmd; serve_cmd;
        client_cmd; bench_serve_cmd; chaos_cmd; top_cmd; explain_cmd ]
  in
  (* Safety net: no subcommand may escape with an uncaught structured
     error (injected faults can fire in paths without a local handler —
     profile, report, library). *)
  let code = try Cmd.eval' group with Verrors.Error e ->
    print_verror e;
    2
  in
  exit code
