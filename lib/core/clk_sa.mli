(** ClkSA: simulated-annealing polarity/size assignment.

    The portfolio's stochastic member: where ClkWaveMin solves each zone
    exactly over MOSP labels, ClkSA explores the same per-zone candidate
    space with the {!Repro_sa} annealer — flip-polarity, resize and
    paired moves over the precomputed noise-table rows, evaluated
    incrementally.  Despite the stochastic search the solver is
    bit-deterministic for a fixed seed at any [--jobs]: each (class,
    zone) task draws from its own O(1) {!Repro_util.Rng.of_instance}
    stream and anneals sequentially, and the class/zone reduction is
    index-addressed.

    It runs on the shared class search ({!Context.search_classes}) over
    the top [max_classes] DoF-ranked classes only (the annealer's cost
    scales with classes).  Its zone memo key carries the class index
    beside the zone availability: the anneal's stream is drawn from the
    (class, zone) pair, so a zone result is never reused across classes
    and no class is skipped — every (class, zone) is annealed exactly
    as a class loop of its own would.  It reports [approximate = false]:
    the result is a feasible assignment whose quality is whatever the
    anneal found, not an epsilon-bounded approximation. *)

module Assignment := Repro_clocktree.Assignment

type config = {
  seed : int;  (** Stream seed; fixed seed => bit-identical results. *)
  max_classes : int;  (** DoF-ranked interval classes explored. *)
  anneal : Repro_sa.Anneal.config;
}

val default_config : config
(** seed 1, 4 classes, {!Repro_sa.Anneal.default_config}. *)

val warm_config : config
(** {!default_config} with {!Repro_sa.Anneal.quench_config}: the
    low-temperature polish used when annealing from a cached
    assignment. *)

type stats = {
  zones : int;  (** (class, zone) anneals run. *)
  proposed : int;
  accepted : int;
  rejected : int;
  flips : int;
  resizes : int;
  pairs : int;
  restarts : int;
}

val optimize : Context.t -> Context.outcome
(** Anneal with {!default_config} — the standard solver signature used
    by {!Flow}. *)

val optimize_stats :
  ?config:config -> ?warm:Assignment.t -> Context.t -> Context.outcome * stats
(** Like {!optimize} with explicit configuration and aggregated move
    counters.  [warm] seeds every zone from a previous assignment
    (candidates matched by cell and extra-delay setting; sinks whose
    previous cell is not admitted by the interval class fall back to
    the first available candidate) — pass {!warm_config} alongside for
    the quench schedule.
    @raise Repro_util.Verrors.Error with code [Infeasible_window] when
    no feasible interval class exists, or [Budget_exhausted] /
    [Deadline_exceeded] when the ambient budget trips. *)
