(* The simulated-annealing subsystem: the incremental evaluator's delta
   property (against full recomputation), the annealer's determinism
   across job counts, skew safety and quality of ClkSA, warm-started
   re-solves, and the portfolio runner. *)

module Eval = Repro_sa.Eval
module Anneal = Repro_sa.Anneal
module Schedule = Repro_sa.Schedule
module Clk_sa = Repro_core.Clk_sa
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Flow = Repro_core.Flow
module Tree = Repro_clocktree.Tree
module Timing = Repro_clocktree.Timing
module Assignment = Repro_clocktree.Assignment
module Cell = Repro_cell.Cell
module Rng = Repro_util.Rng
module Verrors = Repro_util.Verrors
module Par = Repro_par.Par

let tree ?(seed = 515) ?(leaves = 16) ?(internals = 5) () =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed)
      (Repro_cts.Placement.square_die 150.0) ~count:leaves ()
  in
  Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:(seed + 1)) sinks
    ~internals

let cells = Flow.leaf_library ()

let small_params =
  { Context.default_params with Context.num_slots = 24; max_interval_classes = 6 }

let context ?(params = small_params) () = Context.create ~params (tree ()) ~cells

(* ------------------------------------------------------------------ *)
(* Eval unit tests                                                     *)

let tiny_problem () =
  (* 2 sites x 2 candidates x 3 slots, all available. *)
  {
    Eval.rows =
      [| [| [| 1.0; 0.0; 0.0 |]; [| 0.0; 5.0; 0.0 |] |];
         [| [| 2.0; 2.0; 0.0 |]; [| 0.0; 0.0; 3.0 |] |] |];
    base = [| 0.5; 0.5; 0.5 |];
    avail = [| [| true; true |]; [| true; true |] |];
  }

let test_eval_objective () =
  let e = Eval.create (tiny_problem ()) ~init:[| 0; 0 |] in
  (* acc = [3.5; 2.5; 0.5] *)
  Alcotest.(check (float 1e-9)) "initial objective" 3.5 (Eval.objective e)

let test_eval_propose_commit () =
  let e = Eval.create (tiny_problem ()) ~init:[| 0; 0 |] in
  let obj = Eval.propose e [| (0, 1) |] in
  (* acc' = [2.5; 7.5; 0.5] *)
  Alcotest.(check (float 1e-9)) "proposed objective" 7.5 obj;
  (* Not committed yet: the committed state is untouched. *)
  Alcotest.(check (float 1e-9)) "uncommitted" 3.5 (Eval.objective e);
  Eval.commit e;
  Alcotest.(check (float 1e-9)) "committed" 7.5 (Eval.objective e);
  Alcotest.(check int) "choice updated" 1 (Eval.choice e 0)

let test_eval_discard_is_exact_undo () =
  let e = Eval.create (tiny_problem ()) ~init:[| 0; 0 |] in
  let before = Eval.objective e in
  for _ = 1 to 50 do
    ignore (Eval.propose e [| (0, 1); (1, 1) |]);
    Eval.discard e
  done;
  (* Rejected moves never touch the accumulator: bit-equal, not just
     epsilon-close. *)
  Alcotest.(check bool) "bit-equal after discards" true
    (Eval.objective e = before);
  Alcotest.(check (float 1e-12)) "recompute agrees" before (Eval.recompute e)

let test_eval_rejects_unavailable () =
  let p = { (tiny_problem ()) with Eval.avail = [| [| true; false |]; [| true; true |] |] } in
  let e = Eval.create p ~init:[| 0; 0 |] in
  Alcotest.check_raises "unavailable"
    (Invalid_argument "Eval.propose: candidate not available") (fun () ->
      ignore (Eval.propose e [| (0, 1) |]))

let test_eval_rejects_repeated_site () =
  let e = Eval.create (tiny_problem ()) ~init:[| 0; 0 |] in
  Alcotest.check_raises "repeated"
    (Invalid_argument "Eval.propose: repeated site") (fun () ->
      ignore (Eval.propose e [| (0, 1); (0, 0) |]))

(* ------------------------------------------------------------------ *)
(* The delta property: incremental == full recompute                   *)

let random_problem rng =
  let sites = 1 + Rng.int rng ~bound:6 in
  let slots = 1 + Rng.int rng ~bound:12 in
  let rows =
    Array.init sites (fun _ ->
        let cands = 1 + Rng.int rng ~bound:5 in
        Array.init cands (fun _ ->
            Array.init slots (fun _ -> Rng.float rng ~bound:10.0)))
  in
  let avail =
    Array.map
      (fun cands ->
        let row = Array.map (fun _ -> Rng.bool rng) cands in
        (* Every site needs at least one admitted candidate. *)
        row.(Rng.int rng ~bound:(Array.length row)) <- true;
        row)
      rows
  in
  { Eval.rows; base = Array.init slots (fun _ -> Rng.float rng ~bound:5.0); avail }

let first_available avail =
  let rec go i = if avail.(i) then i else go (i + 1) in
  go 0

let random_available rng avail =
  let n = Array.length avail in
  let rec go () =
    let c = Rng.int rng ~bound:n in
    if avail.(c) then c else go ()
  in
  go ()

(* Reference: a fresh evaluator built from the final choices computes
   the objective from scratch. *)
let full_recompute problem choices =
  let fresh = Eval.create problem ~init:choices in
  Eval.objective fresh

let delta_matches_recompute seed =
  let rng = Rng.create ~seed in
  let problem = random_problem rng in
  let init = Array.map first_available problem.Eval.avail in
  let e = Eval.create ~refresh_every:1000000 problem ~init in
  (* A long random walk of single and paired proposals, committed or
     discarded at random — refresh disabled so the drift itself is under
     test. *)
  let sites = Array.length problem.Eval.rows in
  for _ = 1 to 200 do
    let s = Rng.int rng ~bound:sites in
    let moves =
      if Rng.bool rng || sites < 2 then
        [| (s, random_available rng problem.Eval.avail.(s)) |]
      else begin
        let s2 = (s + 1 + Rng.int rng ~bound:(sites - 1)) mod sites in
        [| (s, random_available rng problem.Eval.avail.(s));
           (s2, random_available rng problem.Eval.avail.(s2)) |]
      end
    in
    ignore (Eval.propose e moves);
    if Rng.bool rng then Eval.commit e else Eval.discard e
  done;
  let incremental = Eval.objective e in
  let reference = full_recompute problem (Eval.choices e) in
  Float.abs (incremental -. reference) <= 1e-6

let prop_delta_eval_matches_full =
  QCheck.Test.make
    ~name:"incremental delta eval == full recompute (jobs 1 and 4)"
    ~count:40
    QCheck.(int_range 1 100000)
    (fun seed ->
      (* The evaluator is sequential; running under both ends of the
         parallelism spectrum pins down that ambient job count cannot
         leak into the arithmetic. *)
      Par.with_jobs 1 (fun () -> delta_matches_recompute seed)
      && Par.with_jobs 4 (fun () -> delta_matches_recompute (seed + 1)))

(* ------------------------------------------------------------------ *)
(* Annealer on a real context                                          *)

let leaf_signature ctx asg =
  let mode = ctx.Context.env.Timing.mode in
  Array.map
    (fun (id, (c : Cell.t)) ->
      (id, c.Cell.name, c.Cell.drive, Assignment.extra_delay asg ~mode id))
    (Assignment.leaf_cells asg ctx.Context.tree)

let test_sa_deterministic_across_jobs () =
  let outcome_at jobs =
    Par.with_jobs jobs (fun () ->
        let ctx = context () in
        Clk_sa.optimize_stats ctx)
  in
  let o1, s1 = outcome_at 1 in
  let o4, s4 = outcome_at 4 in
  Alcotest.(check (float 0.0))
    "identical predicted peak" o1.Context.predicted_peak_ua
    o4.Context.predicted_peak_ua;
  let ctx = context () in
  Alcotest.(check bool) "identical assignments" true
    (leaf_signature ctx o1.Context.assignment
    = leaf_signature ctx o4.Context.assignment);
  Alcotest.(check bool) "identical move counters" true (s1 = s4)

let test_sa_seed_changes_search () =
  let ctx = context () in
  let _, s1 = Clk_sa.optimize_stats ~config:Clk_sa.default_config ctx in
  let _, s2 =
    Clk_sa.optimize_stats
      ~config:{ Clk_sa.default_config with Clk_sa.seed = 2 }
      ctx
  in
  (* Different streams must explore differently (the accept pattern is
     seed-dependent even when both land on similar solutions). *)
  Alcotest.(check bool) "different accept counts" true
    (s1.Clk_sa.accepted <> s2.Clk_sa.accepted
    || s1.Clk_sa.flips <> s2.Clk_sa.flips)

let skew_of ctx asg =
  let timing =
    Timing.analyze ctx.Context.tree asg ctx.Context.env
      ~edge:Repro_cell.Electrical.Rising
  in
  Timing.skew ctx.Context.tree timing

let test_sa_skew () =
  let ctx = context () in
  let outcome = Clk_sa.optimize ctx in
  Alcotest.(check bool) "sa respects kappa" true
    (skew_of ctx outcome.Context.assignment
    <= ctx.Context.params.Context.kappa +. 1e-6)

let test_sa_beats_initial_golden () =
  let t = tree ~leaves:24 ~internals:7 () in
  let env = Timing.nominal () in
  let initial = Assignment.default t ~num_modes:1 in
  let m0 = Golden.evaluate t initial env in
  let ctx = Context.create ~params:small_params ~env t ~cells in
  let outcome = Clk_sa.optimize ctx in
  let m = Golden.evaluate t outcome.Context.assignment env in
  Alcotest.(check bool) "sa <= initial peak" true
    (m.Golden.peak_current_ma <= m0.Golden.peak_current_ma +. 1e-6)

let test_sa_infeasible () =
  let params = { small_params with Context.kappa = 0.01 } in
  let ctx = Context.create ~params (tree ()) ~cells in
  match Clk_sa.optimize ctx with
  | _ -> Alcotest.fail "sa must fail on an infeasible kappa"
  | exception Verrors.Error e ->
    Alcotest.(check string) "code" "infeasible-window"
      (Verrors.code_name e.Verrors.code)

(* ------------------------------------------------------------------ *)
(* Warm starts                                                         *)

let test_warm_matches_cold_and_is_cheaper () =
  let ctx = context () in
  let cold, cold_stats = Clk_sa.optimize_stats ctx in
  let warm, warm_stats =
    Clk_sa.optimize_stats ~config:Clk_sa.warm_config
      ~warm:cold.Context.assignment ctx
  in
  (* The quench starts from the cold solution, so it cannot end worse
     under the same exact yardstick... *)
  Alcotest.(check bool) "warm quality >= cold" true
    (warm.Context.predicted_peak_ua
    <= cold.Context.predicted_peak_ua +. 1e-6);
  (* ...and it must be measurably cheaper: a fraction of the proposals. *)
  Alcotest.(check bool) "warm is cheaper (fewer moves)" true
    (warm_stats.Clk_sa.proposed < cold_stats.Clk_sa.proposed);
  Alcotest.(check bool) "cold actually searched" true
    (cold_stats.Clk_sa.proposed > 0)

let test_flow_run_warm () =
  let prep = Flow.prepare ~params:small_params ~name:"warm-test" (tree ()) in
  match Flow.run prep (Flow.Chain Flow.Sa) with
  | Error _ -> Alcotest.fail "cold sa run failed"
  | Ok cold -> (
    match Flow.run prep (Flow.Warm cold.Flow.assignment) with
    | Error _ -> Alcotest.fail "warm resolve failed"
    | Ok warm ->
      Alcotest.(check string) "algorithm" "ClkSA"
        (Flow.algorithm_name warm.Flow.algorithm);
      Alcotest.(check bool) "warm quality >= cold" true
        (warm.Flow.predicted_peak_ua <= cold.Flow.predicted_peak_ua +. 1e-6);
      (match (warm.Flow.sa, cold.Flow.sa) with
      | Some w, Some c ->
        Alcotest.(check bool) "warm cheaper than cold" true
          (w.Clk_sa.proposed < c.Clk_sa.proposed)
      | _ -> Alcotest.fail "sa stats missing"))

(* ------------------------------------------------------------------ *)
(* Solver names and the portfolio                                      *)

let test_solver_of_name () =
  List.iter
    (fun (name, alg) ->
      match Flow.solver_of_name name with
      | Ok a -> Alcotest.(check bool) name true (a = alg)
      | Error _ -> Alcotest.fail ("rejects valid solver " ^ name))
    [ ("initial", Flow.Initial);
      ("peakmin", Flow.Peakmin);
      ("wavemin", Flow.Wavemin);
      ("wavemin-f", Flow.Wavemin_fast);
      ("sa", Flow.Sa);
      ("SA", Flow.Sa) ]

let test_solver_of_name_unknown () =
  match Flow.solver_of_name "spectral" with
  | Ok _ -> Alcotest.fail "accepted an unknown solver"
  | Error e ->
    Alcotest.(check string) "code" "invalid-params"
      (Verrors.code_name e.Verrors.code);
    Alcotest.(check (option string)) "subject" (Some "spectral")
      e.Verrors.subject

let test_portfolio_picks_best () =
  let prep = Flow.prepare ~params:small_params ~name:"portfolio-test" (tree ()) in
  match Flow.run prep Flow.Portfolio with
  | Error _ -> Alcotest.fail "portfolio failed"
  | Ok run ->
    Alcotest.(check int) "three members" 3 (List.length run.Flow.portfolio);
    let winners = List.filter (fun e -> e.Flow.won) run.Flow.portfolio in
    Alcotest.(check int) "exactly one winner" 1 (List.length winners);
    let winner = List.hd winners in
    Alcotest.(check bool) "winner is the run's algorithm" true
      (winner.Flow.member = run.Flow.algorithm);
    (* The winner's golden peak is minimal among the successes. *)
    List.iter
      (fun e ->
        match e.Flow.peak_ma with
        | None -> ()
        | Some peak ->
          Alcotest.(check bool) "winner peak minimal" true
            (run.Flow.metrics.Golden.peak_current_ma <= peak +. 1e-9))
      run.Flow.portfolio;
    (* All members succeeded here: no degradations recorded. *)
    Alcotest.(check int) "no failures" 0 (List.length run.Flow.degradations)

let test_portfolio_deterministic () =
  let once jobs =
    Par.with_jobs jobs (fun () ->
        let prep =
          Flow.prepare ~params:small_params ~name:"portfolio-det" (tree ())
        in
        match Flow.run prep Flow.Portfolio with
        | Error _ -> Alcotest.fail "portfolio failed"
        | Ok run ->
          ( Flow.algorithm_name run.Flow.algorithm,
            run.Flow.metrics.Golden.peak_current_ma ))
  in
  let w1, p1 = once 1 and w4, p4 = once 4 in
  Alcotest.(check string) "same winner at jobs 1 and 4" w1 w4;
  Alcotest.(check (float 0.0)) "same peak at jobs 1 and 4" p1 p4

let () =
  Alcotest.run "repro_sa"
    [
      ( "eval",
        [
          Alcotest.test_case "objective" `Quick test_eval_objective;
          Alcotest.test_case "propose/commit" `Quick test_eval_propose_commit;
          Alcotest.test_case "discard is exact undo" `Quick
            test_eval_discard_is_exact_undo;
          Alcotest.test_case "rejects unavailable" `Quick
            test_eval_rejects_unavailable;
          Alcotest.test_case "rejects repeated site" `Quick
            test_eval_rejects_repeated_site;
        ] );
      ( "sa",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_sa_deterministic_across_jobs;
          Alcotest.test_case "seed changes search" `Quick
            test_sa_seed_changes_search;
          Alcotest.test_case "skew safety" `Quick test_sa_skew;
          Alcotest.test_case "beats initial (golden)" `Quick
            test_sa_beats_initial_golden;
          Alcotest.test_case "infeasible kappa" `Quick test_sa_infeasible;
        ] );
      ( "warm",
        [
          Alcotest.test_case "matches cold, cheaper" `Quick
            test_warm_matches_cold_and_is_cheaper;
          Alcotest.test_case "flow run warm" `Quick test_flow_run_warm;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "solver_of_name" `Quick test_solver_of_name;
          Alcotest.test_case "unknown solver rejected" `Quick
            test_solver_of_name_unknown;
          Alcotest.test_case "picks best member" `Quick
            test_portfolio_picks_best;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_portfolio_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_delta_eval_matches_full ] );
    ]
