module Cell = Repro_cell.Cell
module Library = Repro_cell.Library
module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Verrors = Repro_util.Verrors
module Budget = Repro_obs.Budget
module Obs_metrics = Repro_obs.Metrics
module Flight = Repro_obs.Flight

type algorithm = Initial | Peakmin | Wavemin | Wavemin_fast | Sa

let algorithm_name = function
  | Initial -> "Initial"
  | Peakmin -> "ClkPeakMin"
  | Wavemin -> "ClkWaveMin"
  | Wavemin_fast -> "ClkWaveMin-f"
  | Sa -> "ClkSA"

let solver_names =
  [ ("initial", Initial);
    ("peakmin", Peakmin);
    ("wavemin", Wavemin);
    ("wavemin-f", Wavemin_fast);
    ("sa", Sa) ]

let solver_of_name name =
  match List.assoc_opt (String.lowercase_ascii name) solver_names with
  | Some alg -> Ok alg
  | None ->
    Verrors.error ~code:Verrors.Invalid_params ~stage:"flow.solver"
      ~subject:name
      ~hints:
        [ "valid solvers: "
          ^ String.concat ", " (List.map fst solver_names) ]
      "unknown solver"

type degradation = {
  from_alg : algorithm;
  to_alg : algorithm option;
  error : Verrors.t;
}

type portfolio_entry = {
  member : algorithm;
  won : bool;
  wall_s : float;
  peak_ma : float option;
  failure : Verrors.t option;
}

type run = {
  benchmark : string;
  algorithm : algorithm;
  params : Context.params;
  assignment : Assignment.t;
  metrics : Golden.metrics;
  predicted_peak_ua : float;
  num_leaf_inverters : int;
  elapsed_s : float;
  cpu_s : float;
  approximate : bool;
  degradations : degradation list;
  sa : Clk_sa.stats option;
  portfolio : portfolio_entry list;
}

let leaf_library () =
  [ Library.buf 8; Library.buf 16; Library.inv 8; Library.inv 16 ]

let quality r =
  [ ("peak_current_ma", r.metrics.Golden.peak_current_ma);
    ("vdd_noise_mv", r.metrics.Golden.vdd_noise_mv);
    ("gnd_noise_mv", r.metrics.Golden.gnd_noise_mv);
    ("skew_ps", r.metrics.Golden.skew_ps);
    ("predicted_peak_ua", r.predicted_peak_ua);
    ("num_leaf_inverters", float_of_int r.num_leaf_inverters) ]

module Clock = Repro_obs.Clock
module Trace = Repro_obs.Trace

(* A tree prepared for (repeated) optimization: the context is built at
   most once, under [prep_lock], and shared by every later solver run —
   the warm-cache path of the server's session cache.  A construction
   that raises (an injected fault, an infeasible input) memoizes
   nothing, so the next run retries. *)
type prepared = {
  prep_name : string;
  prep_tree : Tree.t;
  prep_params : Context.params;
  prep_env : Timing.env;
  prep_cells : Cell.t list;
  prep_lock : Mutex.t;
  mutable prep_ctx : Context.t option;  (* guarded by [prep_lock] *)
}

let prepare ?(params = Context.default_params) ?cells ~name tree =
  {
    prep_name = name;
    prep_tree = tree;
    prep_params = params;
    prep_env = Timing.nominal ();
    prep_cells = (match cells with Some cs -> cs | None -> leaf_library ());
    prep_lock = Mutex.create ();
    prep_ctx = None;
  }

let prepare_benchmark ?params spec =
  Verrors.guard ~stage:"flow.synthesize" (fun () ->
      prepare ?params ~name:spec.Repro_cts.Benchmarks.name
        (Repro_cts.Benchmarks.synthesize spec))

let prepared_tree p = p.prep_tree
let prepared_cells p = p.prep_cells

let prepared_context p =
  Mutex.protect p.prep_lock (fun () ->
      match p.prep_ctx with
      | Some ctx -> ctx
      | None ->
        let ctx =
          Context.create ~params:p.prep_params ~env:p.prep_env p.prep_tree
            ~cells:p.prep_cells
        in
        p.prep_ctx <- Some ctx;
        ctx)

(* The solve-and-evaluate skeleton: [solve] produces the assignment
   (plus the optimizer's own estimate and the annealer's counters when
   applicable); everything around it — flight bracketing, timing,
   golden evaluation — is shared by every strategy. *)
let evaluate p ~algorithm ~solve =
  Trace.with_span ~name:"flow.run_tree"
    ~attrs:
      [ ("benchmark", p.prep_name); ("algorithm", algorithm_name algorithm) ]
  @@ fun () ->
  let tree = p.prep_tree and env = p.prep_env in
  Flight.record
    (Flight.Solve_start
       { benchmark = p.prep_name; algorithm = algorithm_name algorithm });
  let t0 = Clock.now_s () in
  let c0 = Clock.cpu_s () in
  let assignment, predicted, approximate, sa = solve () in
  let elapsed_s = Clock.now_s () -. t0 in
  let cpu_s = Clock.cpu_s () -. c0 in
  let metrics =
    Trace.with_span ~name:"flow.golden_evaluate" (fun () ->
        Golden.evaluate tree assignment env)
  in
  let num_leaf_inverters =
    Assignment.count_leaves assignment tree ~pred:(fun c ->
        Cell.polarity c = Cell.Negative)
  in
  Flight.record
    (Flight.Solve_end
       { benchmark = p.prep_name;
         algorithm = algorithm_name algorithm;
         ok = true;
         wall_ms = elapsed_s *. 1000.0 });
  {
    benchmark = p.prep_name;
    algorithm;
    params = p.prep_params;
    assignment;
    metrics;
    predicted_peak_ua = predicted;
    num_leaf_inverters;
    elapsed_s;
    cpu_s;
    approximate;
    degradations = [];
    sa;
    portfolio = [];
  }

let of_outcome (o : Context.outcome) sa =
  (o.Context.assignment, o.Context.predicted_peak_ua, o.Context.approximate, sa)

(* One cold solve of [algorithm]; the context is built on first use. *)
let solve p algorithm =
  evaluate p ~algorithm ~solve:(fun () ->
      match algorithm with
      | Initial -> (Assignment.default p.prep_tree ~num_modes:1, 0.0, false, None)
      | Peakmin -> of_outcome (Clk_peakmin.optimize (prepared_context p)) None
      | Wavemin -> of_outcome (Clk_wavemin.optimize (prepared_context p)) None
      | Wavemin_fast ->
        of_outcome (Clk_wavemin_f.optimize (prepared_context p)) None
      | Sa ->
        let outcome, stats = Clk_sa.optimize_stats (prepared_context p) in
        of_outcome outcome (Some stats))

(* Every strategy's unit of work: [f] under the optional budget, with
   any raised exception captured as a structured error. *)
let attempt ?budget ~stage f =
  Verrors.guard ~stage (fun () ->
      match budget with
      | Some b -> Budget.with_current b f
      | None -> f ())

(* ------------------------------------------------------------------ *)
(* Fallback chains                                                     *)

let degradations_c = Obs_metrics.counter "flow.degradations"

let fallback_chain = function
  | Wavemin -> [ Wavemin; Wavemin_fast; Peakmin; Initial ]
  | Wavemin_fast -> [ Wavemin_fast; Peakmin; Initial ]
  | Peakmin -> [ Peakmin; Initial ]
  | Sa -> [ Sa; Wavemin_fast; Peakmin; Initial ]
  | Initial -> [ Initial ]

module Log = (val Logs.src_log (Repro_obs.Log.src "wavemin.flow"))

(* Try [algorithms] in order until one succeeds; every failure is
   recorded as a degradation pointing at the next member. *)
let chain ?budget p algorithms =
  let rec go budget degs = function
    | [] -> assert false (* every strategy passes a non-empty chain *)
    | alg :: rest -> (
      let t0 = Clock.now_s () in
      match attempt ?budget ~stage:"flow.run" (fun () -> solve p alg) with
      | Ok run -> Ok { run with degradations = List.rev degs }
      | Error e -> (
        Obs_metrics.incr degradations_c;
        let next = match rest with [] -> None | a :: _ -> Some a in
        (* The failed attempt never reached [evaluate]'s Solve_end:
           close its timeline entry, then record the transition with
           the triggering error so a dump explains why it fired. *)
        if Flight.enabled () then begin
          Flight.record
            (Flight.Solve_end
               { benchmark = p.prep_name;
                 algorithm = algorithm_name alg;
                 ok = false;
                 wall_ms = (Clock.now_s () -. t0) *. 1000.0 });
          Flight.record
            (Flight.Fallback
               { from_alg = algorithm_name alg;
                 to_alg = Option.map algorithm_name next;
                 code = Verrors.code_name e.Verrors.code;
                 message = e.Verrors.message })
        end;
        let degs = { from_alg = alg; to_alg = next; error = e } :: degs in
        match next with
        | None -> Error (e, List.rev degs)
        | Some next ->
          Log.warn (fun m ->
              m "%s: %s failed (%s); falling back to %s" p.prep_name
                (algorithm_name alg)
                (Verrors.code_name e.Verrors.code)
                (algorithm_name next));
          (* A tripped budget is sticky; give the cheaper fallback a
             chance by running it unbudgeted instead of re-tripping
             immediately. *)
          let budget =
            if e.Verrors.code = Verrors.Budget_exhausted then None else budget
          in
          go budget degs rest))
  in
  go budget [] algorithms

(* ------------------------------------------------------------------ *)
(* Solver portfolio                                                    *)

let portfolio_members = [ Wavemin; Wavemin_fast; Sa ]

(* Run every member under ONE shared budget (a member that exhausts it
   leaves only already-banked results competitive: the budget is sticky,
   so later members trip immediately) and keep the best golden peak.
   The order is fixed, the attempts sequential — the portfolio is as
   deterministic as its members. *)
let portfolio ?budget p =
  Trace.with_span ~name:"flow.portfolio" ~attrs:[ ("benchmark", p.prep_name) ]
  @@ fun () ->
  let t0 = Clock.now_s () in
  let attempts =
    List.map
      (fun member ->
        let a0 = Clock.now_s () in
        let res =
          attempt ?budget ~stage:"flow.portfolio" (fun () -> solve p member)
        in
        (member, Clock.now_s () -. a0, res))
      portfolio_members
  in
  (* Lowest golden peak wins; ties go to the earlier member. *)
  let winner =
    List.fold_left
      (fun best (_, _, res) ->
        match (best, res) with
        | Some b, Ok run
          when b.metrics.Golden.peak_current_ma
               <= run.metrics.Golden.peak_current_ma ->
          best
        | _, Ok run -> Some run
        | _, Error _ -> best)
      None attempts
  in
  let winner_alg = Option.map (fun r -> r.algorithm) winner in
  let entries =
    List.map
      (fun (member, wall_s, res) ->
        { member;
          won = winner_alg = Some member;
          wall_s;
          peak_ma =
            (match res with
            | Ok run -> Some run.metrics.Golden.peak_current_ma
            | Error _ -> None);
          failure = (match res with Error e -> Some e | Ok _ -> None) })
      attempts
  in
  (* Failed members point at whatever answers instead: the winner, or
     the reference assignment when every member failed. *)
  let to_alg = Some (Option.value winner_alg ~default:Initial) in
  let degs =
    List.filter_map
      (fun (member, _, res) ->
        match res with
        | Ok _ -> None
        | Error error ->
          Obs_metrics.incr degradations_c;
          Some { from_alg = member; to_alg; error })
      attempts
  in
  match winner with
  | Some run ->
    if Flight.enabled () then
      Flight.record
        (Flight.Portfolio_winner
           { winner = algorithm_name run.algorithm;
             losers =
               List.filter_map
                 (fun m ->
                   if m = run.algorithm then None else Some (algorithm_name m))
                 portfolio_members;
             wall_ms = (Clock.now_s () -. t0) *. 1000.0 });
    Ok { run with degradations = degs; portfolio = entries }
  | None -> (
    (* Every member failed (broken input or an instantly-tripped
       budget): degrade to the reference assignment so the caller still
       gets an answer, with the full failure record attached. *)
    match attempt ~stage:"flow.portfolio" (fun () -> solve p Initial) with
    | Ok run -> Ok { run with degradations = degs; portfolio = entries }
    | Error e ->
      Error (e, degs @ [ { from_alg = Initial; to_alg = None; error = e } ]))

(* ------------------------------------------------------------------ *)
(* Warm-started re-solves                                              *)

let warm_starts_c = Obs_metrics.counter "flow.warm_starts"

let warm ?budget p previous =
  let quench () =
    let outcome, stats =
      Clk_sa.optimize_stats ~config:Clk_sa.warm_config ~warm:previous
        (prepared_context p)
    in
    if Flight.enabled () then
      Flight.record
        (Flight.Warm_start
           { benchmark = p.prep_name;
             moves = stats.Clk_sa.proposed;
             objective = outcome.Context.predicted_peak_ua });
    Obs_metrics.incr warm_starts_c;
    of_outcome outcome (Some stats)
  in
  match
    attempt ?budget ~stage:"flow.resolve_warm" (fun () ->
        evaluate p ~algorithm:Sa ~solve:quench)
  with
  | Ok run -> Ok run
  | Error e -> (
    (* The quench failed (tripped budget, injected fault): fall through
       to the cold Sa chain, recording the abandoned warm start. *)
    Log.warn (fun m ->
        m "%s: warm start failed (%s); cold solve" p.prep_name
          (Verrors.code_name e.Verrors.code));
    let deg = { from_alg = Sa; to_alg = Some Sa; error = e } in
    match chain ?budget p (fallback_chain Sa) with
    | Ok run -> Ok { run with degradations = deg :: run.degradations }
    | Error (e', degs) -> Error (e', deg :: degs))

(* ------------------------------------------------------------------ *)

type strategy =
  | Single of algorithm
  | Chain of algorithm
  | Portfolio
  | Warm of Assignment.t

let run ?budget p = function
  | Single alg ->
    attempt ?budget ~stage:"flow.run" (fun () -> solve p alg)
    |> Result.map_error (fun e -> (e, []))
  | Chain alg -> chain ?budget p (fallback_chain alg)
  | Portfolio -> portfolio ?budget p
  | Warm previous -> warm ?budget p previous

let improvement_pct ~baseline ~value =
  if baseline = 0.0 then 0.0 else (baseline -. value) /. baseline *. 100.0
