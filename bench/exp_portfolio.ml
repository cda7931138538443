(* Solver portfolio: ClkWaveMin, ClkWaveMin-f and ClkSA raced
   sequentially over a shared prepared context; the member with the
   lowest golden peak current wins.  The report records the winner, each
   member's wall time and peak, and the annealer's move counters in the
   environment block (machine-dependent numbers are never gated), plus
   the winner's quality as ordinary gated samples.

   A second pass re-solves with the warm-started quench seeded from the
   cold SA solution — the server's ECO path — and reports the move-count
   saving. *)

module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Clk_sa = Repro_core.Clk_sa
module Benchmarks = Repro_cts.Benchmarks
module Table = Repro_util.Table
module Verrors = Repro_util.Verrors

let suite = [ "s13207"; "s15850" ]

let fmt_f = Printf.sprintf "%.3f"

let member_rows t name (r : Flow.run) =
  List.iter
    (fun (e : Flow.portfolio_entry) ->
      Table.add_row t
        [ name;
          Flow.algorithm_name e.Flow.member;
          (if e.Flow.won then "won"
           else match e.Flow.failure with Some _ -> "failed" | None -> "lost");
          (match e.Flow.peak_ma with
          | Some p -> Table.cell_f p
          | None -> "-");
          Table.cell_f ~decimals:3 e.Flow.wall_s ];
      Bench_common.record ~benchmark:name
        ~algorithm:("portfolio-" ^ Flow.algorithm_name e.Flow.member)
        ~runtime:[ ("wall_s", e.Flow.wall_s) ]
        ();
      Bench_common.annotate_environment
        [ ( Printf.sprintf "portfolio_%s_%s_wall_s" name
              (Flow.algorithm_name e.Flow.member),
            fmt_f e.Flow.wall_s ) ])
    r.Flow.portfolio

let sa_environment name prefix (s : Clk_sa.stats) =
  Bench_common.annotate_environment
    [ (Printf.sprintf "%s_%s_proposed" prefix name, string_of_int s.Clk_sa.proposed);
      (Printf.sprintf "%s_%s_accepted" prefix name, string_of_int s.Clk_sa.accepted);
      (Printf.sprintf "%s_%s_rejected" prefix name, string_of_int s.Clk_sa.rejected);
      (Printf.sprintf "%s_%s_restarts" prefix name, string_of_int s.Clk_sa.restarts) ]

let run () =
  Bench_common.section
    "Solver portfolio — best-under-budget race (ClkWaveMin, ClkWaveMin-f, ClkSA)";
  let params = Context.default_params in
  let t =
    Table.create
      ~headers:[ "circuit"; "member"; "result"; "peak (mA)"; "wall (s)" ]
  in
  List.iter
    (fun name ->
      let spec = Benchmarks.find name in
      let tree = Benchmarks.synthesize spec in
      let prep = Flow.prepare ~params ~name tree in
      let (outcome, sa_run), wall, cpu =
        Bench_common.time2 (fun () ->
            let outcome = Flow.run prep Flow.Portfolio in
            (* A standalone SA run over the same prepared context, for
               the annealer's move counters regardless of who won. *)
            (outcome, Bench_common.solve prep Flow.Sa))
      in
      Bench_common.record_stage name ~wall_s:wall ~cpu_s:cpu;
      (match outcome with
      | Error (e, _) ->
        Bench_common.note "portfolio failed on %s: %s" name
          (Verrors.to_string e)
      | Ok r ->
        member_rows t name r;
        Bench_common.annotate_environment
          [ ( "portfolio_winner_" ^ name,
              Flow.algorithm_name r.Flow.algorithm ) ];
        Bench_common.record ~benchmark:name ~algorithm:"Portfolio"
          ~quality:
            [ ("peak_current_ma", r.Flow.metrics.Golden.peak_current_ma);
              ("vdd_noise_mv", r.Flow.metrics.Golden.vdd_noise_mv);
              ("gnd_noise_mv", r.Flow.metrics.Golden.gnd_noise_mv);
              ("skew_ps", r.Flow.metrics.Golden.skew_ps) ]
          ();
        Bench_common.note "%s: winner %s (peak %.2f mA)" name
          (Flow.algorithm_name r.Flow.algorithm)
          r.Flow.metrics.Golden.peak_current_ma);
      (match sa_run.Flow.sa with
      | Some s -> sa_environment name "sa" s
      | None -> ());
      (* Warm-started ECO re-solve from the cold SA solution: same
         objective regime, a fraction of the moves. *)
      match Flow.run prep (Flow.Warm sa_run.Flow.assignment) with
      | Error (e, _) ->
        Bench_common.note "warm re-solve failed on %s: %s" name
          (Verrors.to_string e)
      | Ok warm_run ->
        (match warm_run.Flow.sa with
        | Some s -> sa_environment name "warm" s
        | None -> ());
        let saving =
          match (sa_run.Flow.sa, warm_run.Flow.sa) with
          | Some cold, Some warm when cold.Clk_sa.proposed > 0 ->
            100.0
            *. (1.0
               -. float_of_int warm.Clk_sa.proposed
                  /. float_of_int cold.Clk_sa.proposed)
          | _ -> 0.0
        in
        Bench_common.record ~benchmark:name ~algorithm:"ClkSA-warm"
          ~quality:
            [ ("peak_current_ma", warm_run.Flow.metrics.Golden.peak_current_ma);
              ("skew_ps", warm_run.Flow.metrics.Golden.skew_ps) ]
          ~runtime:[ ("wall_s", warm_run.Flow.elapsed_s) ]
          ();
        Bench_common.note
          "%s: warm quench %.2f mA in %d moves (cold %d, %.0f%% fewer)" name
          warm_run.Flow.metrics.Golden.peak_current_ma
          (match warm_run.Flow.sa with
          | Some s -> s.Clk_sa.proposed
          | None -> 0)
          (match sa_run.Flow.sa with
          | Some s -> s.Clk_sa.proposed
          | None -> 0)
          saving)
    suite;
  print_string (Table.render t)
