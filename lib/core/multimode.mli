(** Multi-power-mode polarity assignment (Sec. VI).

    Each power mode gives every voltage island its own supply, hence its
    own timing: per mode the feasible time intervals are computed
    independently, and an {e intersection} picks one interval per mode.
    A cell is admitted for a sink under an intersection iff, in every
    mode, some delay-step of the cell puts the sink's arrival inside
    that mode's interval (Table IV); the intersection is feasible iff
    every sink admits at least one cell.  The per-mode noise vectors are
    concatenated into one MOSP weight (Fig. 12), so the single-mode
    machinery solves the multi-mode problem unchanged.  Intersections
    are pruned by degree of freedom (Fig. 14). *)

module Tree := Repro_clocktree.Tree
module Assignment := Repro_clocktree.Assignment
module Timing := Repro_clocktree.Timing
module Cell := Repro_cell.Cell

type mode = Context.mode = {
  env : Timing.env;
  timing : Timing.result;
  sinks : Intervals.sink array;  (** Per-mode candidate arrivals. *)
  tables : Noise_table.t array;  (** Per-zone tables under this mode. *)
}

type intersection = {
  intervals : Intervals.interval array;  (** One per mode. *)
  cell_avail : bool array array;
      (** [cell_avail.(row).(k)] — global sink row admits cell [k] of
          the cell universe in {e every} mode. *)
  chosen_candidate : int array array array;
      (** [chosen_candidate.(m).(row).(k)] — candidate index (into the
          sink's expanded candidate array) realising cell [k] for sink
          [row] in mode [m]; [-1] when infeasible.  The minimal-delay
          feasible step is chosen. *)
  degree_of_freedom : int;
}

type t = {
  tree : Tree.t;
  base : Assignment.t;
  params : Context.params;
  cell_universe : Cell.t array;
      (** All distinct cells appearing in any sink's library. *)
  sink_cells : bool array array;
      (** [sink_cells.(row).(k)] — cell [k] belongs to sink [row]'s
          library. *)
  zones : Zones.t;
  modes : mode array;
  intersections : intersection list;  (** Feasible, DoF-descending. *)
}

val create :
  ?params:Context.params ->
  ?cells_of:(Tree.node_id -> Cell.t list) ->
  Tree.t ->
  base:Assignment.t ->
  envs:Timing.env array ->
  cells:Cell.t list ->
  t
(** Build the multi-mode context.  [envs] must have one entry per mode
    of [base], with [env.mode] set accordingly.  [cells_of] overrides
    the candidate library per leaf (defaults to [cells] everywhere).
    @raise Invalid_argument on empty modes or libraries. *)

val with_sibling_guard : t -> float -> t
(** [with_sibling_guard t g] equals [create] at [sibling_guard = g] on
    the same inputs.  Only the intersections depend on the guard, so
    they are the only part re-derived; the modes, cell universe and
    zones are shared with [t]. *)

val feasible : t -> bool

type outcome = {
  assignment : Assignment.t;
  intersection : intersection;
  predicted_peak_ua : float;
  zone_peaks : float array;
  approximate : bool;
      (** Some zone's MOSP solve tripped the [max_labels] cap; the
          epsilon approximation guarantee does not cover this outcome. *)
}

val solve : t -> outcome
(** ClkWaveMin on the concatenated-mode MOSP graphs, best feasible
    intersection.  @raise Failure when no intersection is feasible. *)

val degree_of_freedom_table : t -> (int * float) list
(** (DoF, solved peak estimate) per explored intersection — the data
    behind Fig. 14. *)
