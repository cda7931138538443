(** Warburton's fully-polynomial ε-approximation for multiobjective
    shortest paths (Oper. Res. 35(1), 1987), specialised to the layered
    DAGs of Algorithm 1.

    The algorithm is forward dynamic programming over rows with
    non-dominated label sets; ε > 0 rounds label costs onto a grid whose
    cell size is ε·LB_k/(R+1) in objective k (LB_k a per-objective path
    lower bound), so every surviving label's cost is within (1+ε) of an
    exact Pareto point component-wise, while the label count stays
    polynomial in (R/ε)^r.  ε = 0 gives the exact Pareto set.

    All solvers here honor the ambient {!Repro_obs.Budget}: each DP row
    checks the budget and charges the labels it extends, so an exhausted
    wall-clock or label budget raises {!Repro_util.Verrors.Error}
    ([Budget_exhausted]) between rows.  With no ambient budget installed
    the checks are single atomic loads and results are unchanged. *)

val pareto_paths :
  ?epsilon:float -> ?max_labels:int -> Layered.t -> Pareto.label list
(** Approximate Pareto-optimal src-dest paths.  [choices_rev] of each
    returned label lists the selected option per row, last row first;
    costs include the dest arc.  Defaults: [epsilon = 0.01],
    [max_labels = 20_000] (a hard safety cap per row; when it trips, the
    labels whose cost plus the per-component lower bound of any
    completion has the smallest maximum are kept, which preserves the
    min-max use case).
    @raise Invalid_argument if [epsilon < 0] or [max_labels < 1]. *)

val pareto_paths_capped :
  ?epsilon:float -> ?max_labels:int -> Layered.t -> Pareto.label list * bool
(** Like {!pareto_paths}, and additionally reports whether the
    [max_labels] safety cap truncated any row's label set — in which
    case the ε-approximation guarantee no longer holds and the result
    must be treated as heuristic.  The truncation is also counted in the
    ["warburton.labels_capped"] metric; the first truncation in the
    process is logged at warning level (exactly once, even with zone
    solves running in parallel), later ones at debug level. *)

type solution = {
  choices : int array;  (** Selected option per row, row order. *)
  cost : float array;  (** Path cost vector including the dest arc. *)
  objective : float;  (** Max component of [cost] — the peak noise. *)
  capped : bool;
      (** The per-row label cap dropped labels during the solve; the
          solution is approximate beyond the epsilon guarantee. *)
}

val solve_min_max :
  ?epsilon:float -> ?max_labels:int -> Layered.t -> solution
(** The paper's selection rule: among the (approximate) Pareto paths,
    take the one with the minimum worst component. *)

val exhaustive_min_max : Layered.t -> solution
(** Brute-force optimum by enumerating all option combinations — for
    tests and the tiny worked examples only.
    @raise Invalid_argument if the instance has more than ~1e6 paths. *)
