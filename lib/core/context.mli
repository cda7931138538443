(** Shared optimization context for the single-power-mode algorithms
    (Fig. 8): timing, candidate arrivals, zones, per-zone noise tables,
    and the deduplicated feasible time-interval classes.

    Two feasible intervals admitting exactly the same candidate sets are
    one {e class}; classes are ranked by their degree of freedom (total
    number of admitted candidates, Sec. VI / Fig. 14) and only the top
    [max_interval_classes] are explored — the pruning the paper derives
    from the negative DoF/noise correlation. *)

module Tree := Repro_clocktree.Tree
module Assignment := Repro_clocktree.Assignment
module Timing := Repro_clocktree.Timing
module Cell := Repro_cell.Cell

type params = {
  kappa : float;  (** Clock skew bound, ps. *)
  epsilon : float;  (** Warburton approximation parameter. *)
  num_slots : int;  (** |S|, split across both rails. *)
  zone_side : float;  (** um. *)
  max_labels : int;  (** Per-row label cap in the MOSP solver. *)
  coalesce : float;  (** Arrival-time merging granularity, ps. *)
  max_interval_classes : int;  (** DoF-pruned class budget. *)
  sibling_guard : float;
      (** ps subtracted from kappa when forming intervals.  Observation 4
          lets the optimizer ignore the (small) effect of a sibling's
          reassignment on a leaf's own arrival; the guard absorbs that
          modelling slack so the final skew still meets kappa. *)
}

val default_params : params
(** kappa = 20 ps, epsilon = 0.01, num_slots = 158, zone_side = 50 um,
    max_labels = 400, coalesce = 0.25 ps, max_interval_classes = 16,
    sibling_guard = 4 ps. *)

type interval_class = {
  interval : Intervals.interval;
  avail : bool array array;  (** Global sink rows x candidates. *)
  degree_of_freedom : int;
}

type mode = {
  env : Timing.env;
  timing : Timing.result;  (** Rising edge. *)
  sinks : Intervals.sink array;  (** Global, leaf id order. *)
  tables : Noise_table.t array;  (** One per zone. *)
}
(** One power mode's prepared state; none of it reads the sibling
    guard. *)

type t = {
  tree : Tree.t;
  base : Assignment.t;
  env : Timing.env;
  timing : Timing.result;
  params : params;
  cells : Cell.t array;  (** The candidate library, fixed order. *)
  sinks : Intervals.sink array;  (** Global, leaf id order. *)
  zones : Zones.t;
  tables : Noise_table.t array;  (** One per zone. *)
  classes : interval_class list;  (** DoF-descending. *)
}

val build_mode :
  params ->
  Tree.t ->
  base:Assignment.t ->
  zones:Zones.t ->
  cells_of:(Tree.node_id -> Cell.t list) ->
  Timing.env ->
  mode
(** The per-mode build behind {!create} and [Multimode.create]: rising
    and falling timing of [base] under the environment, the candidate
    arrivals of every leaf from its library [cells_of leaf], and one
    noise table per zone (built zone-parallel over one waveform cache,
    each zone carrying its leaf-proportional share of the non-leaf
    background).  Reads [params.num_slots] only. *)

val create :
  ?params:params ->
  ?env:Timing.env ->
  ?base:Assignment.t ->
  Tree.t ->
  cells:Cell.t list ->
  t
(** Build the context.  [base] defaults to the tree's default assignment;
    [env] to the nominal 1.1 V environment.
    @raise Invalid_argument if [cells] is empty. *)

val feasible : t -> bool
(** At least one feasible interval class exists. *)

val degree_of_freedom : bool array array -> int
(** Number of [true] entries: the admitted (row, candidate) pairs. *)

val effective_kappa : params -> float
(** [max 1 (kappa - sibling_guard)]: the window width every feasible
    interval is formed with. *)

type window_failure =
  | Sinks of Intervals.sink array  (** A solver found no class. *)
  | Validate of Intervals.sink array
      (** The preflight found none; no hint to run it again. *)
  | Modes of Intervals.sink array array
      (** ClkWaveMin-M found no intersection; sinks per mode. *)

val infeasible_window :
  params -> stage:string -> window_failure -> Repro_util.Verrors.t
(** The [Infeasible_window] error every solver and the preflight
    report: the binding-sink diagnosis at {!effective_kappa} (per mode
    for [Modes]), how that width follows from kappa and the sibling
    guard, and the hints. *)

type outcome = {
  assignment : Assignment.t;
  interval : Intervals.interval;
  predicted_peak_ua : float;  (** max over zones of the zone estimate. *)
  zone_peaks : float array;
  approximate : bool;
      (** Some zone of the winning class was solved with a truncated
          label set (the MOSP [max_labels] cap tripped), so the epsilon
          approximation guarantee does not cover this outcome. *)
}

val zone_avail : t -> bool array array -> Noise_table.t -> bool array array
(** Restrict a class's global availability matrix (rows = global sink
    indices) to one zone's table (rows = [table.sinks] order) — the
    matrix a zone solver receives. *)

val apply_choices : t -> int array array -> Repro_clocktree.Assignment.t
(** [apply_choices t per_zone_choices] materializes an assignment from
    one candidate index per sink of every zone ([per_zone_choices.(zi)]
    aligned with [t.tables.(zi).sinks]), setting the cell and — for
    adjustable cells — the selected extra delay.  Every single-mode
    solver applies its winning class's choices through it. *)

val solve_with :
  t ->
  zone_solver:
    (t -> Noise_table.t -> avail:bool array array -> int array * bool) ->
  outcome
(** Run [zone_solver] on every zone for every interval class and return
    the best class's assignment.  The solver receives the zone's table
    and the zone-local availability matrix (rows aligned with
    [table.sinks]) and must return one {e available} candidate index per
    zone sink, plus a flag marking the zone solution as approximate
    (label-capped); the flags of the winning class are OR-ed into
    [outcome.approximate].

    [zone_solver] must be a pure function of (table, avail): within one
    call it runs at most once per distinct zone availability, and a zone
    whose matrix repeats an earlier class's reuses that result (a
    {e memo hit}, counted by [context.zone_memo_hits]).  A class that an
    already memoized zone peak proves no better than the best class so
    far is skipped without solving ([context.classes_skipped]).  Both
    leave the outcome bit-identical to solving every zone of every
    class, as long as zone peaks are never NaN (noise tables are
    finite).  See {!search_classes}.
    @raise Failure when no feasible interval exists (check {!feasible}). *)

val search_classes :
  span:string ->
  zone_label:string ->
  num_zones:int ->
  zone_sinks:(int -> int) ->
  dof:('c -> int) ->
  zone_key:('c -> int -> 'k) ->
  solve_zone:('c -> int -> 'k -> 'r) ->
  peak:('r -> float) ->
  capped:('r -> bool) ->
  'c list ->
  ('c * float * 'r array) option
(** The class loop behind every solver: {!solve_with} (ClkWaveMin,
    ClkWaveMin-f), ClkPeakMin, ClkSA and ClkWaveMin-M
    ([Multimode.solve]).  Solve every zone of every class, in list
    order, and return the first class with the least peak (the max of
    its zones' [peak]s), its peak and its per-zone results; [None] for
    no classes.

    [zone_key cls zi] must capture everything [solve_zone cls zi key]
    depends on: [solve_zone] runs at most once per distinct
    (zone, key), compared structurally, and a repeated key reuses the
    earlier result.  Before a class fans out, it is skipped if a zone's
    memoized result already has [peak] no better than the incumbent's
    — the comparison that would reject it after solving.  Zones fan out
    over {!Repro_par.Par.parallel_init} under the [zone_label] span;
    each class runs under a [span] span.  Every zone records a
    [Zone_start]/[Zone_end] flight pair (memo hits with [memo = true])
    and every skipped class one [Class_skip]. *)
