(* Shared helpers for the experiment harness. *)

module Obs_clock = Repro_obs.Clock
module Obs_trace = Repro_obs.Trace
module Obs_metrics = Repro_obs.Metrics
module Report = Repro_obs.Report
module Flow = Repro_core.Flow
module Golden = Repro_core.Golden

let section title =
  let bar = String.make 78 '=' in
  Printf.printf "\n%s\n%s\n%s\n%!" bar title bar

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* Wall-clock timing on the monotonic clock; [Sys.time] would report CPU
   seconds and hide any blocked/descheduled time. *)
let time f =
  let t0 = Obs_clock.now_s () in
  let r = f () in
  (r, Obs_clock.now_s () -. t0)

(* Wall and CPU seconds together, for stages where the distinction
   matters (e.g. Table VI runtime columns). *)
let time2 f =
  let t0 = Obs_clock.now_s () in
  let c0 = Obs_clock.cpu_s () in
  let r = f () in
  (r, Obs_clock.now_s () -. t0, Obs_clock.cpu_s () -. c0)

(* ---- run reports --------------------------------------------------
   bench/main.ml opens a Report.builder per experiment and installs it
   here; the exp_* drivers record their headline numbers and stage
   timings into whichever report is current.  With no current report
   (e.g. a driver called directly from a test) recording is a no-op. *)

let current_report : Report.builder option ref = ref None
let set_report b = current_report := b

let record ~benchmark ~algorithm ?quality ?runtime () =
  match !current_report with
  | None -> ()
  | Some b -> Report.add_sample b ~benchmark ~algorithm ?quality ?runtime ()

(* Record execution-environment facts (job count, measured speedups)
   into the current report's manifest.  Environment entries are never
   gated by the regression diff, so they are the right home for numbers
   that vary with the machine. *)
let annotate_environment kvs =
  match !current_report with
  | None -> ()
  | Some b -> Report.add_environment b kvs

(* One single-algorithm solve; a failure raises, failing the
   experiment.  Pass a fresh [Flow.prepare] where the run's time must
   cover context construction (the Table V/VI time columns count it). *)
let solve prepared algorithm =
  match Flow.run prepared (Flow.Single algorithm) with
  | Ok r -> r
  | Error (e, _) -> raise (Repro_util.Verrors.Error e)

(* The standard per-algorithm sample of a single-mode flow run: the
   golden quality metrics plus the optimizer's wall/CPU time.  Fallback
   links of a robust run land in the report's (non-gated) degradations
   block; plain runs have none. *)
let record_run ?(algorithm_suffix = "") (r : Flow.run) =
  let algorithm = Flow.algorithm_name r.Flow.algorithm ^ algorithm_suffix in
  record ~benchmark:r.Flow.benchmark ~algorithm ~quality:(Flow.quality r)
    ~runtime:[ ("wall_s", r.Flow.elapsed_s); ("cpu_s", r.Flow.cpu_s) ]
    ();
  match !current_report with
  | None -> ()
  | Some b ->
    List.iter
      (fun (d : Flow.degradation) ->
        Report.add_degradation b
          { Report.benchmark = r.Flow.benchmark;
            algorithm;
            from_alg = Flow.algorithm_name d.Flow.from_alg;
            to_alg = Option.map Flow.algorithm_name d.Flow.to_alg;
            code = Repro_util.Verrors.code_name d.Flow.error.Repro_util.Verrors.code;
            detail = d.Flow.error.Repro_util.Verrors.message })
      r.Flow.degradations

(* Stage entry for work that was timed elsewhere — e.g. inside a
   parallel worker, where recording must wait for the sequential
   reporting phase to keep report order stable. *)
let record_stage name ~wall_s ~cpu_s =
  note "  [stage] %-40s %8.2f s" name wall_s;
  match !current_report with
  | None -> ()
  | Some b -> Report.add_stage b ~stage:name ~wall_s ~cpu_s

(* Run [f] as a named pipeline stage: recorded as a trace span (when
   tracing is on), as a wall/CPU stage entry of the current run report,
   and reported with its wall time. *)
let report_stage name f =
  Obs_trace.with_span ~name (fun () ->
      let r, wall, cpu = time2 f in
      record_stage name ~wall_s:wall ~cpu_s:cpu;
      r)

(* [git describe] of the producing checkout for the report manifest;
   None outside a git checkout (or without git on PATH). *)
let git_describe () =
  let tmp = Filename.temp_file "wavemin_git" ".txt" in
  let cmd =
    Printf.sprintf "git describe --always --dirty --tags > %s 2>/dev/null"
      (Filename.quote tmp)
  in
  let result =
    if (try Sys.command cmd with Sys_error _ -> 1) = 0 then (
      let ic = open_in tmp in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      match line with Some "" -> None | r -> r)
    else None
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  result

(* Manifest ingredients shared by every experiment: the Table V suite
   with its synthesis seeds, and the default solver configuration. *)
let manifest_seeds () =
  List.map
    (fun spec ->
      (spec.Repro_cts.Benchmarks.name, spec.Repro_cts.Benchmarks.seed))
    Repro_cts.Benchmarks.all

let manifest_config () =
  let p = Repro_core.Context.default_params in
  [ ("kappa", string_of_float p.Repro_core.Context.kappa);
    ("epsilon", string_of_float p.Repro_core.Context.epsilon);
    ("num_slots", string_of_int p.Repro_core.Context.num_slots);
    ("zone_side", string_of_float p.Repro_core.Context.zone_side);
    ("max_labels", string_of_int p.Repro_core.Context.max_labels);
    ("coalesce", string_of_float p.Repro_core.Context.coalesce);
    ( "max_interval_classes",
      string_of_int p.Repro_core.Context.max_interval_classes );
    ("sibling_guard", string_of_float p.Repro_core.Context.sibling_guard) ]

(* Opt-in observability for every exp_* driver: WAVEMIN_TRACE=<path>
   enables span tracing and writes a Chrome trace-event file on exit;
   WAVEMIN_METRICS=1 dumps the metrics registry on exit. *)
let init_observability () =
  (match Sys.getenv_opt "WAVEMIN_TRACE" with
  | None -> ()
  | Some path ->
    Obs_trace.set_enabled true;
    at_exit (fun () ->
        try
          Obs_trace.write_chrome_json path;
          note "wrote Chrome trace to %s (open in chrome://tracing or Perfetto)"
            path
        with Sys_error msg ->
          Printf.eprintf "cannot write trace file: %s\n%!" msg));
  match Sys.getenv_opt "WAVEMIN_METRICS" with
  | None | Some "" | Some "0" -> ()
  | Some _ ->
    at_exit (fun () ->
        section "Metrics";
        print_string (Obs_metrics.dump ()))

(* The benchmarks of Table V in paper order. *)
let table5_suite = Repro_cts.Benchmarks.all

(* Cheaper parameters for the heavy multi-mode experiments; the skew
   bounds are scaled from the paper's 90/110/130 ps to our trees'
   shorter source latencies (see EXPERIMENTS.md). *)
let multimode_slots = 24
