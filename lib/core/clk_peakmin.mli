(** ClkPeakMin — the baseline of Jang, Joo & Kim [27] (TCAD 2011).

    The best previously known polarity assignment with sizing: per
    feasible interval it minimizes

    {v max ( sum over positive-polarity sinks of peak(cell),
          sum over negative-polarity sinks of peak(cell) ) v}

    where [peak] is the cell's characterized scalar peak current — i.e.
    it balances the two rails using only per-cell peaks, ignoring the
    arrival-time differences of the sinks and the non-leaf current
    (the limitations WaveMin removes).  The inner problem is the
    Knapsack-style balancing of [27], solved here by pseudo-polynomial
    dynamic programming over a discretized positive-rail sum. *)

val buckets : int
(** Resolution of the DP discretization (512). *)

val zone_solver :
  Context.t -> Noise_table.t -> avail:bool array array -> int array * bool
(** Balance one zone: candidate index per zone sink.  The second
    component is always [false] (the DP is exhaustive over its
    discretization); it exists so all zone solvers share one signature.
    @raise Invalid_argument if some sink has no available candidate. *)

val zone_balance_objective : Noise_table.t -> choices:int array -> float
(** The baseline's own objective value (uA) for a choice vector —
    max(positive-rail sum, negative-rail sum) of scalar peaks. *)

val optimize : Context.t -> Context.outcome
(** Full ClkPeakMin over all zones and interval classes, on the shared
    class search ({!Context.search_classes}: zone fan-out, zone memo,
    class cut-off).  Class selection uses the baseline's own objective,
    faithfully reproducing its blindness to waveform timing; the
    reported [predicted_peak_ua] is nevertheless measured with the
    fine-grained zone estimate so that outcomes are comparable.  The
    winning choices are applied with {!Context.apply_choices}, so an
    adjustable candidate keeps its extra delay.
    @raise Repro_util.Verrors.Error with code [Infeasible_window] when
    the skew bound admits no feasible interval. *)
