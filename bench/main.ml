(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 5 for the experiment index).

   Usage:
     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- table5    # run selected experiments
   Available experiment names: table1 fig2 table2 fig6 fig9 fig11 table5 table6
   montecarlo table7 fig14 ablation dynamic baselines portfolio bechamel

   Every experiment writes a machine-readable run report to
   BENCH_<name>.json in the current directory (override with
   WAVEMIN_BENCH_DIR); compare two reports with
   `dune exec bin/wavemin.exe -- bench-diff A.json B.json`.  A failing experiment is recorded in its report
   as an error and does not abort the remaining experiments; the harness
   exits nonzero at the end if anything failed. *)

module Report = Repro_obs.Report

let experiments =
  [ ("table1", Exp_table1.run);
    ("fig2", Exp_fig2.run);
    ("table2", Exp_table2.run);
    ("fig6", Exp_fig6.run);
    ("fig9", Exp_fig9.run);
    ("fig11", Exp_fig11.run);
    ("table5", Exp_table5.run);
    ("table6", Exp_table6.run);
    ("montecarlo", Exp_montecarlo.run);
    ("table7", Exp_table7.run);
    ("fig14", Exp_fig14.run);
    ("ablation", Exp_ablation.run);
    ("dynamic", Exp_dynamic.run);
    ("baselines", Exp_baselines.run);
    ("portfolio", Exp_portfolio.run);
    ("bechamel", Exp_bechamel.run) ]

let bench_dir () =
  match Sys.getenv_opt "WAVEMIN_BENCH_DIR" with
  | Some d when d <> "" ->
    if not (Sys.file_exists d) then (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  | Some _ | None -> "."

let () =
  Bench_common.init_observability ();
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst experiments
  in
  let unknown =
    List.filter (fun n -> not (List.mem_assoc n experiments)) requested
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst experiments));
    exit 1
  end;
  let git = Bench_common.git_describe () in
  let suite =
    List.map (fun s -> s.Repro_cts.Benchmarks.name) Repro_cts.Benchmarks.all
  in
  let failed = ref [] in
  List.iter
    (fun name ->
      let run = List.assoc name experiments in
      (* Per-experiment registry snapshot: each report carries only its
         own experiment's instrument activity. *)
      Repro_obs.Metrics.reset ();
      let builder =
        Report.create ~experiment:name ~suite
          ~seeds:(Bench_common.manifest_seeds ())
          ~config:(Bench_common.manifest_config ())
          ~environment:
            [ ("jobs", string_of_int (Repro_par.Par.jobs ())) ]
          ?git ()
      in
      Bench_common.set_report (Some builder);
      let (), wall, cpu =
        Bench_common.time2 (fun () ->
            try Repro_obs.Trace.with_span ~name:("exp." ^ name) run
            with exn ->
              let msg = Printexc.to_string exn in
              Printf.eprintf "[%s FAILED: %s]\n%!" name msg;
              Report.record_error builder msg;
              failed := name :: !failed)
      in
      Bench_common.set_report None;
      Report.add_stage builder ~stage:"total" ~wall_s:wall ~cpu_s:cpu;
      let report = Report.finalize builder in
      let path = Filename.concat (bench_dir ()) ("BENCH_" ^ name ^ ".json") in
      (try
         Report.write path report;
         Bench_common.note "[%s %s in %.1f s wall, %.1f s cpu] -> %s" name
           (match report.Report.status with
           | Report.Completed -> "completed"
           | Report.Failed _ -> "FAILED")
           wall cpu path
       with
       | Sys_error msg ->
         Printf.eprintf "cannot write %s: %s\n%!" path msg;
         if not (List.mem name !failed) then failed := name :: !failed
       | Repro_util.Verrors.Error e ->
         (* e.g. the report-writer fault seam (WAVEMIN_FAULTS). *)
         Printf.eprintf "cannot write %s: %s\n%!" path
           (Repro_util.Verrors.to_string e);
         if not (List.mem name !failed) then failed := name :: !failed))
    requested;
  if !failed <> [] then begin
    Printf.eprintf "%d experiment(s) failed: %s\n%!"
      (List.length !failed)
      (String.concat ", " (List.rev !failed));
    exit 1
  end
