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

(* [(site, candidate)] moves, proposed through the array API; returns
   the proposed objective. *)
let propose e moves =
  Eval.propose e ~sites:(Array.map fst moves) ~cands:(Array.map snd moves);
  (Eval.score e).Eval.proposed

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
  let obj = propose e [| (0, 1) |] in
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
    ignore (propose e [| (0, 1); (1, 1) |]);
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
      ignore (propose e [| (0, 1) |]))

let test_eval_rejects_repeated_site () =
  let e = Eval.create (tiny_problem ()) ~init:[| 0; 0 |] in
  Alcotest.check_raises "repeated"
    (Invalid_argument "Eval.propose: repeated site") (fun () ->
      ignore (propose e [| (0, 1); (0, 0) |]))

(* A raising propose must not leave an earlier proposal pending: the
   commit that follows would install sums that do not match the
   choices. *)
let test_eval_bad_propose_drops_pending () =
  let e = Eval.create (tiny_problem ()) ~init:[| 0; 0 |] in
  ignore (propose e [| (0, 1) |]);
  Alcotest.check_raises "bad propose"
    (Invalid_argument "Eval.propose: site out of range") (fun () ->
      ignore (propose e [| (1, 1); (7, 0) |]));
  Alcotest.check_raises "nothing pending"
    (Invalid_argument "Eval.commit: no pending proposal") (fun () ->
      Eval.commit e);
  Alcotest.(check (array int)) "choices untouched" [| 0; 0 |] (Eval.choices e);
  let obj = Eval.objective e in
  Alcotest.(check bool) "objective == recompute" true (obj = Eval.recompute e)

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
    ignore (propose e moves);
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

(* ------------------------------------------------------------------ *)
(* Bit identity with the unfused kernel                                *)

(* The blit / per-move delta / [Array.fold_left Float.max] kernel that
   the fused [Eval.propose] replaced, kept as the reference model:
   every objective it yields must match Eval's bit for bit. *)
module Unfused = struct
  type t = {
    prob : Eval.problem;
    choices : int array;
    mutable acc : float array;
    mutable scratch : float array;
    mutable obj : float;
    mutable pending : ((int * int) array * float) option;
    mutable commits : int;
    refresh_every : int;
  }

  let recompute_into (prob : Eval.problem) choices ~into =
    let slots = Array.length prob.Eval.base in
    Array.blit prob.Eval.base 0 into 0 slots;
    Array.iteri
      (fun s c ->
        let row = prob.Eval.rows.(s).(c) in
        for k = 0 to slots - 1 do
          into.(k) <- into.(k) +. row.(k)
        done)
      choices;
    Array.fold_left Float.max 0.0 into

  let create ~refresh_every prob ~init =
    let slots = Array.length prob.Eval.base in
    let acc = Array.make slots 0.0 in
    let obj = recompute_into prob init ~into:acc in
    { prob; choices = Array.copy init; acc; scratch = Array.make slots 0.0;
      obj; pending = None; commits = 0; refresh_every }

  let propose t moves =
    let slots = Array.length t.prob.Eval.base in
    Array.blit t.acc 0 t.scratch 0 slots;
    Array.iter
      (fun (s, c) ->
        let old_row = t.prob.Eval.rows.(s).(t.choices.(s)) in
        let new_row = t.prob.Eval.rows.(s).(c) in
        for slot = 0 to slots - 1 do
          t.scratch.(slot) <- t.scratch.(slot) -. old_row.(slot) +. new_row.(slot)
        done)
      moves;
    let obj = Array.fold_left Float.max 0.0 t.scratch in
    t.pending <- Some (moves, obj);
    obj

  let commit t =
    match t.pending with
    | None -> assert false
    | Some (moves, obj) ->
      Array.iter (fun (s, c) -> t.choices.(s) <- c) moves;
      let acc = t.acc in
      t.acc <- t.scratch;
      t.scratch <- acc;
      t.obj <- obj;
      t.pending <- None;
      t.commits <- t.commits + 1;
      if t.commits mod t.refresh_every = 0 then
        t.obj <- recompute_into t.prob t.choices ~into:t.acc
end

let bits = Int64.bits_of_float

(* Random slot values, with some all-zero slots and exact zeros so that
   ties in the max (including +0 against -0 after cancellation) are
   exercised too. *)
let random_problem_with_zeros rng =
  let p = random_problem rng in
  let slots = Array.length p.Eval.base in
  let zero_slot = Rng.int rng ~bound:slots in
  Array.iter
    (Array.iter (fun row ->
         row.(zero_slot) <- 0.0;
         if Rng.int rng ~bound:4 = 0 then
           row.(Rng.int rng ~bound:slots) <- 0.0))
    p.Eval.rows;
  p.Eval.base.(zero_slot) <- 0.0;
  p

let fused_matches_unfused seed =
  let rng = Rng.create ~seed in
  let problem = random_problem_with_zeros rng in
  let init = Array.map first_available problem.Eval.avail in
  let refresh_every = 1 + Rng.int rng ~bound:20 in
  let e = Eval.create ~refresh_every problem ~init in
  let u = Unfused.create ~refresh_every problem ~init in
  let sites = Array.length problem.Eval.rows in
  let ok = ref (bits (Eval.objective e) = bits u.Unfused.obj) in
  for _ = 1 to 300 do
    (* 1, 2 or 3 moves on distinct sites. *)
    let k = Stdlib.min sites (1 + Rng.int rng ~bound:3) in
    let order = Array.init sites Fun.id in
    Rng.shuffle rng order;
    let moves =
      Array.init k (fun i ->
          let s = order.(i) in
          (s, random_available rng problem.Eval.avail.(s)))
    in
    let fused = propose e moves in
    let reference = Unfused.propose u moves in
    if bits fused <> bits reference then ok := false;
    if Rng.bool rng then begin
      Eval.commit e;
      Unfused.commit u
    end
    else Eval.discard e;
    if bits (Eval.objective e) <> bits u.Unfused.obj then ok := false
  done;
  !ok && Eval.choices e = u.Unfused.choices

let prop_fused_matches_unfused =
  QCheck.Test.make
    ~name:"fused propose/commit == unfused kernel bit for bit (1-3 moves)"
    ~count:60
    QCheck.(int_range 1 100000)
    fused_matches_unfused

(* ------------------------------------------------------------------ *)
(* The fused Metropolis decision against propose + the textbook test   *)

(* The test [Eval.propose_metropolis] must reproduce, draws included. *)
let metropolis rng ~temp ~delta =
  delta <= 0.0 || Rng.float rng ~bound:1.0 < exp (-.delta /. temp)

(* Random problems with ties: small integer slot values (many slots
   share the peak), all-zero bases and rows, or plain random floats. *)
let random_tied_problem rng =
  let sites = 1 + Rng.int rng ~bound:7 in
  let slots = 1 + Rng.int rng ~bound:10 in
  let value =
    match Rng.int rng ~bound:3 with
    | 0 -> fun () -> float_of_int (Rng.int rng ~bound:4)
    | 1 -> fun () -> if Rng.bool rng then 0.0 else Rng.float rng ~bound:100.0
    | _ -> fun () -> Rng.float rng ~bound:100.0
  in
  let rows =
    Array.init sites (fun _ ->
        let cands = 1 + Rng.int rng ~bound:5 in
        Array.init cands (fun _ -> Array.init slots (fun _ -> value ())))
  in
  let avail =
    Array.map
      (fun cands ->
        let row = Array.map (fun _ -> Rng.bool rng) cands in
        row.(Rng.int rng ~bound:(Array.length row)) <- true;
        row)
      rows
  in
  let base =
    if Rng.bool rng then Array.make slots 0.0
    else Array.init slots (fun _ -> value ())
  in
  { Eval.rows; base; avail }

let temperatures = [| 1e-300; 1e-9; 1e-3; 0.5; 1.0; 7.0; 100.0; 1e6; 1e300 |]

(* One random proposal (0 to 3 moves on distinct sites) decided both
   ways on twin evaluators, with twin streams; any temperature,
   including zero, negative, infinite and NaN ones the annealer never
   uses. *)
let decision_matches_textbook seed =
  let rng = Rng.create ~seed in
  let problem = random_tied_problem rng in
  let init = Array.map (random_available rng) problem.Eval.avail in
  let refresh_every = 1 + Rng.int rng ~bound:8 in
  let e = Eval.create ~refresh_every problem ~init in
  let r = Eval.create ~refresh_every problem ~init in
  let seed' = Rng.int rng ~bound:1_000_000 in
  let de = Rng.create ~seed:seed' and dr = Rng.create ~seed:seed' in
  let sites = Array.length problem.Eval.rows in
  let ok = ref true in
  for _ = 1 to 200 do
    let k = Stdlib.min sites (Rng.int rng ~bound:4) in
    let order = Array.init sites Fun.id in
    Rng.shuffle rng order;
    let moves =
      Array.init k (fun i ->
          (order.(i), random_available rng problem.Eval.avail.(order.(i))))
    in
    let temp =
      match Rng.int rng ~bound:12 with
      | 0 -> 0.0
      | 1 -> -1.0
      | 2 -> Float.nan
      | 3 -> Float.infinity
      | _ -> temperatures.(Rng.int rng ~bound:(Array.length temperatures))
    in
    let move_sites = Array.map fst moves and move_cands = Array.map snd moves in
    let fused =
      Eval.propose_metropolis e ~sites:move_sites ~cands:move_cands ~temp ~rng:de
    in
    let reference =
      let obj = propose r moves in
      metropolis dr ~temp ~delta:(obj -. (Eval.score r).Eval.committed)
    in
    if fused <> reference then ok := false;
    if fused then begin
      if bits (Eval.score e).Eval.proposed <> bits (Eval.score r).Eval.proposed
      then ok := false;
      Eval.commit e;
      Eval.commit r
    end
    else begin
      (* Nothing may be left pending after a rejection. *)
      (match Eval.commit e with
      | () -> ok := false
      | exception Invalid_argument _ -> ());
      Eval.discard r
    end;
    if bits (Eval.objective e) <> bits (Eval.objective r) then ok := false
  done;
  !ok && Eval.choices e = Eval.choices r && Rng.bits53 de = Rng.bits53 dr

let prop_decision_matches_textbook =
  QCheck.Test.make
    ~name:"propose_metropolis == propose + Metropolis test (draws included)"
    ~count:100
    QCheck.(int_range 1 100000)
    decision_matches_textbook

(* The annealer as it ran before the fused decision: [Eval.propose] for
   every move, then the textbook test.  Move generation, schedule,
   restarts and the final recompute are kept verbatim (budget checks
   and flight events aside, which do not touch the search), so
   [Anneal.solve] must return the same bits and leave the stream at the
   same position. *)
module Reference = struct
  type site_moves = {
    buckets : int array array;
    group_of : int array;
    pos_of : int array;
    degree : int;
  }

  let site_moves (tags : Anneal.tag array) (avail : bool array) =
    let n = Array.length tags in
    let groups = ref [] in
    for c = 0 to n - 1 do
      if avail.(c) && not (List.mem tags.(c).Anneal.group !groups) then
        groups := tags.(c).Anneal.group :: !groups
    done;
    let groups = Array.of_list (List.sort Int.compare !groups) in
    let buckets =
      Array.map
        (fun g ->
          let members = ref [] in
          for c = n - 1 downto 0 do
            if avail.(c) && tags.(c).Anneal.group = g then members := c :: !members
          done;
          let arr = Array.of_list !members in
          Array.sort
            (fun a b ->
              match Float.compare tags.(a).Anneal.size tags.(b).Anneal.size with
              | 0 -> Int.compare a b
              | cmp -> cmp)
            arr;
          arr)
        groups
    in
    let group_of = Array.make n (-1) and pos_of = Array.make n (-1) in
    Array.iteri
      (fun gi bucket ->
        Array.iteri
          (fun pos c ->
            group_of.(c) <- gi;
            pos_of.(c) <- pos)
          bucket)
      buckets;
    let degree = Array.fold_left (fun acc b -> acc + Array.length b) 0 buckets in
    { buckets; group_of; pos_of; degree }

  let gen_flip rng m ~current =
    let g = m.group_of.(current) in
    let ng = Array.length m.buckets in
    if ng <= 1 then current
    else begin
      let other = Rng.int rng ~bound:(ng - 1) in
      let g' = if other >= g then other + 1 else other in
      let bucket = m.buckets.(g') in
      bucket.(Rng.int rng ~bound:(Array.length bucket))
    end

  let gen_resize rng m ~current ~dist =
    let g = m.group_of.(current) in
    let bucket = m.buckets.(g) in
    let len = Array.length bucket in
    if len <= 1 then current
    else begin
      let pos = m.pos_of.(current) in
      let lo = Stdlib.max 0 (pos - dist) and hi = Stdlib.min (len - 1) (pos + dist) in
      let pick = Rng.int rng ~bound:(hi - lo) in
      let pos' = if lo + pick >= pos then lo + pick + 1 else lo + pick in
      bucket.(pos')
    end

  let solve ~(config : Anneal.config) problem ~tags ~init ~rng =
    let eval = Eval.create ~refresh_every:config.Anneal.refresh_every problem ~init in
    let n = Eval.num_sites eval in
    let init_objective = Eval.objective eval in
    let zero = Anneal.zero_stats in
    if n = 0 then
      ([||], init_objective,
       { zero with Anneal.init_objective; final_objective = init_objective })
    else begin
      let moves = Array.init n (fun s -> site_moves tags.(s) problem.Eval.avail.(s)) in
      let movable =
        Array.of_list
          (List.filter (fun s -> moves.(s).degree > 1) (List.init n Fun.id))
      in
      let max_bucket =
        Array.fold_left
          (fun acc m ->
            Array.fold_left (fun a b -> Stdlib.max a (Array.length b)) acc m.buckets)
          1 moves
      in
      if Array.length movable = 0 then begin
        let final = Eval.recompute eval in
        (Eval.choices eval, final,
         { zero with Anneal.init_objective; final_objective = final })
      end
      else begin
        let pick_site () = movable.(Rng.int rng ~bound:(Array.length movable)) in
        let propose1 s c = Eval.propose eval ~sites:[| s |] ~cands:[| c |] in
        let score = Eval.score eval in
        let generate ~dist =
          let s = pick_site () in
          let current = Eval.choice eval s in
          match Rng.int rng ~bound:3 with
          | 1 ->
            let c = gen_resize rng moves.(s) ~current ~dist in
            if c = current then begin
              propose1 s (gen_flip rng moves.(s) ~current);
              0
            end
            else begin
              propose1 s c;
              1
            end
          | 2 when Array.length movable > 1 ->
            let s2 = ref (pick_site ()) in
            while !s2 = s do
              s2 := pick_site ()
            done;
            let s2 = !s2 in
            let c1 = gen_flip rng moves.(s) ~current in
            let c2 = gen_flip rng moves.(s2) ~current:(Eval.choice eval s2) in
            let c1 =
              if c1 = Eval.choice eval s then gen_resize rng moves.(s) ~current ~dist
              else c1
            in
            let c2 =
              if c2 = Eval.choice eval s2 then
                gen_resize rng moves.(s2) ~current:(Eval.choice eval s2) ~dist
              else c2
            in
            Eval.propose eval ~sites:[| s; s2 |] ~cands:[| c1; c2 |];
            2
          | _ ->
            let c = gen_flip rng moves.(s) ~current in
            if c = current then begin
              propose1 s (gen_resize rng moves.(s) ~current ~dist);
              1
            end
            else begin
              propose1 s c;
              0
            end
        in
        let init_temp =
          match config.Anneal.init_temp with
          | Some t -> t
          | None ->
            let sum = ref 0.0 and count = ref 0 in
            let cur = Eval.objective eval in
            for _ = 1 to config.Anneal.warmup do
              ignore (generate ~dist:max_bucket);
              Eval.discard eval;
              let d = score.Eval.proposed -. cur in
              if d > 0.0 then begin
                sum := !sum +. d;
                incr count
              end
            done;
            if !count = 0 then 1e-3
            else
              let mean = !sum /. float_of_int !count in
              Float.max 1e-9 (-.mean /. log 0.8)
        in
        let sched =
          Schedule.create ~target_accept:config.Anneal.target_accept ~init_temp
            ~max_dist:max_bucket ()
        in
        let best = Eval.choices eval in
        let best_obj = ref (Eval.objective eval) in
        let proposed = ref 0 and accepted = ref 0 in
        let flips = ref 0 and resizes = ref 0 and pairs = ref 0 in
        let stages = ref 0 and restarts_done = ref 0 in
        let stage_moves = Stdlib.max 1 (config.Anneal.moves_per_site * n) in
        let run_stages () =
          let frozen = ref false and stage = ref 0 in
          while (not !frozen) && !stage < config.Anneal.max_stages do
            incr stage;
            incr stages;
            let stage_accepted = ref 0 in
            for _ = 1 to stage_moves do
              let kind = generate ~dist:(Schedule.distance sched) in
              incr proposed;
              (match kind with
              | 0 -> incr flips
              | 1 -> incr resizes
              | _ -> incr pairs);
              let obj = score.Eval.proposed in
              let delta = obj -. score.Eval.committed in
              if metropolis rng ~temp:(Schedule.temperature sched) ~delta then begin
                Eval.commit eval;
                incr accepted;
                incr stage_accepted;
                if obj < !best_obj then begin
                  best_obj := obj;
                  Eval.blit_choices eval best
                end
              end
              else Eval.discard eval
            done;
            let rate = float_of_int !stage_accepted /. float_of_int stage_moves in
            Schedule.update sched ~accept_rate:rate;
            if
              Schedule.frozen sched ~min_ratio:config.Anneal.min_temp_ratio
              || (!stage > 1 && !stage_accepted = 0)
            then frozen := true
          done
        in
        let install target =
          Array.iteri
            (fun s c ->
              if Eval.choice eval s <> c then begin
                propose1 s c;
                Eval.commit eval
              end)
            target
        in
        run_stages ();
        for restart = 1 to config.Anneal.restarts do
          install best;
          ignore (Eval.recompute eval);
          Schedule.reheat sched
            ~factor:(0.3 /. float_of_int restart /. float_of_int restart);
          incr restarts_done;
          run_stages ()
        done;
        install best;
        let final_objective = Eval.recompute eval in
        ( best,
          final_objective,
          {
            Anneal.proposed = !proposed;
            accepted = !accepted;
            rejected = !proposed - !accepted;
            flips = !flips;
            resizes = !resizes;
            pairs = !pairs;
            stages = !stages;
            restarts_done = !restarts_done;
            init_objective;
            final_objective;
          } )
      end
    end
end

let stats_bits (s : Anneal.stats) =
  ( (s.Anneal.proposed, s.Anneal.accepted, s.Anneal.rejected, s.Anneal.flips),
    (s.Anneal.resizes, s.Anneal.pairs, s.Anneal.stages, s.Anneal.restarts_done),
    (bits s.Anneal.init_objective, bits s.Anneal.final_objective) )

let anneal_matches_reference seed =
  let rng = Rng.create ~seed in
  let problem = random_tied_problem rng in
  let tags =
    Array.map
      (Array.map (fun _ ->
           { Anneal.group = Rng.int rng ~bound:2;
             size = float_of_int (Rng.int rng ~bound:3) }))
      problem.Eval.rows
  in
  let init = Array.map (random_available rng) problem.Eval.avail in
  let config =
    {
      Anneal.moves_per_site = 1 + Rng.int rng ~bound:4;
      max_stages = 1 + Rng.int rng ~bound:10;
      restarts = Rng.int rng ~bound:3;
      warmup = Rng.int rng ~bound:24;
      init_temp =
        (if Rng.bool rng then None
         else Some temperatures.(Rng.int rng ~bound:(Array.length temperatures)));
      min_temp_ratio = 1e-4;
      refresh_every = 1 + Rng.int rng ~bound:16;
      target_accept = 0.44;
    }
  in
  let seed' = Rng.int rng ~bound:1_000_000 in
  let ra = Rng.create ~seed:seed' and rb = Rng.create ~seed:seed' in
  let best_a, obj_a, stats_a = Anneal.solve ~config problem ~tags ~init ~rng:ra in
  let best_b, obj_b, stats_b = Reference.solve ~config problem ~tags ~init ~rng:rb in
  best_a = best_b
  && bits obj_a = bits obj_b
  && stats_bits stats_a = stats_bits stats_b
  && Rng.bits53 ra = Rng.bits53 rb

let prop_anneal_matches_reference =
  QCheck.Test.make
    ~name:"Anneal.solve == propose + Metropolis reference annealer (bits, stream)"
    ~count:300
    QCheck.(int_range 1 100000)
    anneal_matches_reference

(* ClkSA on two Table V circuits, pinned: the move counters and an MD5
   of the leaf listing [wavemin run --export] writes.  Any change to
   move generation, the decision or the draws moves these. *)
let sa_listing name (r : Flow.run) tree =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "# %s ClkSA\n" name);
  Array.iter
    (fun (id, (cell : Cell.t)) ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %s\n" id cell.Cell.name
           (Repro_util.Json.float_to_string
              (Assignment.extra_delay r.Flow.assignment ~mode:0 id))))
    (Assignment.leaf_cells r.Flow.assignment tree);
  Buffer.contents b

let test_sa_pinned () =
  List.iter
    (fun (name, kappa, (zones, proposed, accepted, rejected), (flips, resizes, pairs, restarts), md5) ->
      let params = { Context.default_params with Context.kappa } in
      let spec = Repro_cts.Benchmarks.find name in
      match Flow.prepare_benchmark ~params spec with
      | Error _ -> Alcotest.failf "%s: synthesis failed" name
      | Ok prep -> (
        match Flow.run prep (Flow.Single Flow.Sa) with
        | Error _ -> Alcotest.failf "%s: ClkSA failed" name
        | Ok r ->
          let label = Printf.sprintf "%s kappa %g" name kappa in
          let expected =
            { Clk_sa.zones; proposed; accepted; rejected; flips; resizes; pairs;
              restarts }
          in
          Alcotest.(check bool) (label ^ " stats") true (r.Flow.sa = Some expected);
          Alcotest.(check string) (label ^ " assignment md5") md5
            (Digest.to_hex
               (Digest.string (sa_listing name r (Flow.prepared_tree prep))))))
    [
      ("s13207", 15.0, (60, 44392, 9912, 34480), (16822, 13526, 14044, 180),
       "ae33419e3e0916f75a320d4add22bfb4");
      ("s13207", 20.0, (60, 44392, 9912, 34480), (16822, 13526, 14044, 180),
       "ae33419e3e0916f75a320d4add22bfb4");
      ("s15850", 15.0, (24, 12448, 2153, 10295), (5262, 3558, 3628, 72),
       "83e3dc7f6ff9ce2727c25c541b3d8278");
      ("s15850", 20.0, (24, 12784, 2233, 10551), (5307, 3727, 3750, 72),
       "83e3dc7f6ff9ce2727c25c541b3d8278");
    ]

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)

(* 10,000 proposals (single and paired moves), each committed or
   discarded, on a fixed 40-site x 158-slot problem, then 10,000 more
   through the fused Metropolis decision: each loop may allocate a
   small constant, never a per-move or per-slot amount. *)
let test_eval_allocates_nothing () =
  let rng = Rng.create ~seed:2024 in
  let sites = 40 and cands = 6 and slots = 158 in
  let rows =
    Array.init sites (fun _ ->
        Array.init cands (fun _ ->
            (* Leading and trailing slots stay zero, like the quiet
               part of a clock period. *)
            Array.init slots (fun k ->
                if k < 10 || k >= 150 then 0.0 else Rng.float rng ~bound:100.0)))
  in
  let problem =
    { Eval.rows; base = Array.make slots 0.0;
      avail = Array.init sites (fun _ -> Array.make cands true) }
  in
  let e = Eval.create problem ~init:(Array.make sites 0) in
  let n = 10_000 in
  let s1 = Array.init n (fun _ -> Rng.int rng ~bound:sites) in
  let s2 = Array.map (fun s -> (s + 1 + Rng.int rng ~bound:(sites - 1)) mod sites) s1 in
  let c1 = Array.init n (fun _ -> Rng.int rng ~bound:cands) in
  let c2 = Array.init n (fun _ -> Rng.int rng ~bound:cands) in
  let pair = Array.init n (fun _ -> Rng.int rng ~bound:3 = 0) in
  let accept = Array.init n (fun _ -> Rng.bool rng) in
  let sites1 = [| 0 |] and cands1 = [| 0 |] in
  let sites2 = [| 0; 0 |] and cands2 = [| 0; 0 |] in
  let best = Array.make sites 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    if pair.(i) then begin
      sites2.(0) <- s1.(i);
      cands2.(0) <- c1.(i);
      sites2.(1) <- s2.(i);
      cands2.(1) <- c2.(i);
      Eval.propose e ~sites:sites2 ~cands:cands2
    end
    else begin
      sites1.(0) <- s1.(i);
      cands1.(0) <- c1.(i);
      Eval.propose e ~sites:sites1 ~cands:cands1
    end;
    if accept.(i) then begin
      Eval.commit e;
      Eval.blit_choices e best
    end
    else Eval.discard e
  done;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then
    Alcotest.failf "10000 propose+commit/discard moves allocated %.0f minor words"
      words;
  (* The same moves through the fused decision, at a temperature that
     accepts some uphill moves and one that accepts almost none: single
     and paired moves, each accepted (then committed) or rejected. *)
  let draws = Rng.create ~seed:7 in
  (* [kind] counts: single/pair x rejected/accepted. *)
  let counts = Array.make 4 0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    let hot = accept.(i) in
    let pair = pair.(i) in
    let kept =
      if pair then begin
        sites2.(0) <- s1.(i);
        cands2.(0) <- c1.(i);
        sites2.(1) <- s2.(i);
        cands2.(1) <- c2.(i);
        if hot then
          Eval.propose_metropolis e ~sites:sites2 ~cands:cands2 ~temp:20.0 ~rng:draws
        else
          Eval.propose_metropolis e ~sites:sites2 ~cands:cands2 ~temp:1e-3 ~rng:draws
      end
      else begin
        sites1.(0) <- s1.(i);
        cands1.(0) <- c1.(i);
        if hot then
          Eval.propose_metropolis e ~sites:sites1 ~cands:cands1 ~temp:20.0 ~rng:draws
        else
          Eval.propose_metropolis e ~sites:sites1 ~cands:cands1 ~temp:1e-3 ~rng:draws
      end
    in
    let kind = (if pair then 2 else 0) + if kept then 1 else 0 in
    counts.(kind) <- counts.(kind) + 1;
    if kept then begin
      Eval.commit e;
      Eval.blit_choices e best
    end
  done;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then
    Alcotest.failf "10000 propose_metropolis moves allocated %.0f minor words" words;
  Array.iteri
    (fun kind c ->
      if c = 0 then Alcotest.failf "no proposal of kind %d (single/pair x rejected/accepted)" kind)
    counts

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
          Alcotest.test_case "bad propose drops pending" `Quick
            test_eval_bad_propose_drops_pending;
          Alcotest.test_case "allocates nothing" `Quick
            test_eval_allocates_nothing;
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
          Alcotest.test_case "pinned on s13207 and s15850" `Quick test_sa_pinned;
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
        List.map QCheck_alcotest.to_alcotest
          [
            prop_delta_eval_matches_full;
            prop_fused_matches_unfused;
            prop_decision_matches_textbook;
            prop_anneal_matches_reference;
          ] );
    ]
