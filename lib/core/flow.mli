(** End-to-end single-power-mode flow: synthesize a benchmark, run an
    algorithm, evaluate with the golden evaluator — the machinery behind
    Tables V and VI. *)

type algorithm = Initial | Peakmin | Wavemin | Wavemin_fast | Sa
(** [Initial] evaluates the unmodified CTS tree (all leaves at the
    default buffer) as a reference point; [Sa] is the simulated-
    annealing solver {!Clk_sa} (ClkSA). *)

val algorithm_name : algorithm -> string

val solver_names : (string * algorithm) list
(** The CLI/protocol solver vocabulary: initial, peakmin, wavemin,
    wavemin-f, sa. *)

val solver_of_name : string -> (algorithm, Repro_util.Verrors.t) result
(** Case-insensitive lookup in {!solver_names}; unknown names return a
    structured [Invalid_params] error naming the valid solvers. *)

type degradation = {
  from_alg : algorithm;  (** The attempt that failed. *)
  to_alg : algorithm option;
      (** The fallback tried next; [None] when the chain was exhausted. *)
  error : Repro_util.Verrors.t;  (** Why the attempt failed. *)
}
(** One link of a fallback chain (ClkWaveMin → ClkWaveMin-f →
    ClkPeakMin → Initial for a {!Chain} run). *)

type portfolio_entry = {
  member : algorithm;
  won : bool;
  wall_s : float;  (** This member's attempt wall time. *)
  peak_ma : float option;  (** Golden peak; [None] when it failed. *)
  failure : Repro_util.Verrors.t option;
}
(** One member's result in a {!Portfolio} race. *)

type run = {
  benchmark : string;
  algorithm : algorithm;
  params : Context.params;
  assignment : Repro_clocktree.Assignment.t;
      (** The optimized assignment (the default one for [Initial]) —
          input for downstream analyses such as {!Montecarlo}. *)
  metrics : Golden.metrics;
  predicted_peak_ua : float;  (** The optimizer's own estimate. *)
  num_leaf_inverters : int;
  elapsed_s : float;
      (** Wall-clock seconds spent inside the optimizer (monotonic
          clock, {!Repro_obs.Clock.now_s}). *)
  cpu_s : float;  (** CPU seconds over the same region ([Sys.time]). *)
  approximate : bool;
      (** The optimizer truncated its label sets (see
          {!Context.outcome.approximate}); always [false] for [Initial],
          [Peakmin] and [Wavemin_fast]. *)
  degradations : degradation list;
      (** Fallback links taken before this run succeeded, oldest first.
          Empty when the first attempt succeeded; when non-empty,
          [algorithm] is the member that actually produced the
          result. *)
  sa : Clk_sa.stats option;
      (** The annealer's move counters — [Some] exactly when [algorithm]
          is [Sa] (including warm starts). *)
  portfolio : portfolio_entry list;
      (** Per-member results of a {!Portfolio} run; empty
          otherwise. *)
}

val quality : run -> (string * float) list
(** The run's quality fields in report order: [peak_current_ma],
    [vdd_noise_mv], [gnd_noise_mv], [skew_ps], [predicted_peak_ua],
    [num_leaf_inverters] — the names every JSON and BENCH rendering of
    a run uses. *)

val leaf_library : unit -> Repro_cell.Cell.t list
(** The experiment library of Sec. VII-A:
    BUF_X8, BUF_X16, INV_X8, INV_X16. *)

(** {1 Preparing a design}

    A {!prepared} bundles a tree with its optimization context.  The
    context (timing analysis, zone partitioning, noise tables, the
    candidate-waveform memo) dominates a single run's cost; it is built
    exactly once, on the first solver run, even when several threads
    run the same [prepared] concurrently, and is shared by every later
    run — the unit the server's session cache
    ({!Repro_server.Session}) keeps warm.  Reuse is safe: the context is
    immutable once built, so warm and cold runs return bit-identical
    results.  If construction raises (injected fault, infeasible input)
    nothing is memoized and the next run retries. *)

type prepared

val prepare :
  ?params:Context.params ->
  ?cells:Repro_cell.Cell.t list ->
  name:string ->
  Repro_clocktree.Tree.t ->
  prepared
(** Wrap a tree for runs.  [params] defaults to
    {!Context.default_params} and [cells] to {!leaf_library}; the
    context is built lazily (never for [Initial]).  A fresh [prepare]
    per run makes that run's [elapsed_s] include context construction. *)

val prepare_benchmark :
  ?params:Context.params ->
  Repro_cts.Benchmarks.spec ->
  (prepared, Repro_util.Verrors.t) result
(** Synthesize the benchmark tree and {!prepare} it; a synthesis
    failure comes back as [Error] (stage [flow.synthesize]). *)

val prepared_tree : prepared -> Repro_clocktree.Tree.t
val prepared_cells : prepared -> Repro_cell.Cell.t list

(** {1 Running a strategy}

    {!run} is the one way to solve.  It never raises (asynchronous
    exceptions aside): every attempt runs under the optional
    {!Repro_obs.Budget} and any failure — infeasible window, exhausted
    budget, injected fault, or any exception captured by
    {!Repro_util.Verrors.guard} — is returned as a structured error;
    every strategy but [Single] also records it as a {!degradation}
    (counted in the [flow.degradations] metric).  Each attempt is one
    [flow.run_tree] trace span bracketed by [Solve_start]/[Solve_end]
    flight events; its [elapsed_s]/[cpu_s] cover the optimizer only,
    so a run on an already-built context reports the residual solver
    time. *)

type strategy =
  | Single of algorithm
      (** One attempt, no fallback: a failure is [Error (e, [])] and
          is neither counted as a degradation nor flight-recorded as a
          fallback. *)
  | Chain of algorithm
      (** The algorithm, then its cheaper fallbacks along ClkWaveMin
          → ClkWaveMin-f → ClkPeakMin → Initial from its own position
          (ClkSA falls back to ClkWaveMin-f first).  A budget that
          tripped is dropped for the remaining attempts: the cheaper
          fallback gets its chance instead of re-tripping instantly.
          Each downgrade is logged at warning level and flight-recorded
          as a [Fallback] event.  [Initial] cannot hit a solver
          failure, so the chain only exhausts on inputs that are broken
          end-to-end. *)
  | Portfolio
      (** Race ClkWaveMin, ClkWaveMin-f and ClkSA, in that order,
          under ONE shared budget (span [flow.portfolio]) and return
          the member with the lowest golden peak current (ties go to
          the earlier, more deterministic member).  A member that exhausts the shared
          budget leaves the rest to trip instantly — only results
          banked within the budget compete.  Every member lands in
          [run.portfolio]; failures also appear as degradations, and a
          [Portfolio_winner] flight event closes the race.  When every
          member fails, the reference [Initial] assignment is returned
          with the failures attached. *)
  | Warm of Repro_clocktree.Assignment.t
      (** Re-solve by annealing from a previous assignment (for the
          same tree under nearby parameters) with the low-temperature
          quench schedule ({!Clk_sa.warm_config}) instead of solving
          cold — the ECO path behind the server's warm-start cache.
          Counted in the [flow.warm_starts] metric and flight-recorded
          as a [Warm_start] event.  If the quench fails, the cold [Sa]
          chain runs with the abandoned warm start recorded as its
          first degradation. *)

val run :
  ?budget:Repro_obs.Budget.t ->
  prepared ->
  strategy ->
  (run, Repro_util.Verrors.t * degradation list) result
(** [Ok run] carries the downgrades in [run.degradations];
    [Error (e, degradations)] is the final failure (the last
    degradation has [to_alg = None]). *)

val improvement_pct : baseline:float -> value:float -> float
(** [(baseline - value) / baseline * 100] — the paper's improvement
    columns (negative = degradation).  Returns 0 for a zero baseline. *)
