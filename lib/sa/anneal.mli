(** Simulated annealing over per-site candidate choices.

    Three typed move generators, each with O(1) undo through the
    two-buffer {!Eval} proposal protocol:

    - {e flip} — move a site to a candidate of a different group
      (polarity class), the coarse search direction;
    - {e resize} — move a site along its size-ordered candidate list
      within the current group, bounded by the adaptive distance limit;
    - {e pair} — flip two distinct sites in one joint proposal (when
      possible, in opposite group directions), the rail-balancing move a
      single flip cannot express without passing through a worse state.

    Each move is proposed and decided in one {!Eval.propose_metropolis}
    call, which usually proves a rejection from a few slots; T0
    calibration and the reinstall of the best state use
    {!Eval.propose}.  The decisions and draws are those of the textbook
    Metropolis test on the full objective.

    The run is strictly sequential per call and consumes one explicit
    {!Repro_util.Rng} stream, so a solve is a pure function of
    [(problem, tags, init, config, seed)] — callers fan zones out with
    {!Repro_util.Rng.of_instance} streams and stay bit-deterministic at
    any job count.  Each stage checks the ambient
    {!Repro_obs.Budget.check_current}; stage summaries and restarts are
    flight-recorded ([Sa_move], [Sa_restart]) when the recorder is on. *)

type tag = {
  group : int;  (** Flip class (e.g. 0 = positive, 1 = negative). *)
  size : float;  (** Orders candidates within a group for resize moves. *)
}

type config = {
  moves_per_site : int;  (** Proposals per site per stage. *)
  max_stages : int;  (** Stage cap per (re)start. *)
  restarts : int;  (** Reheats from the best state after a freeze. *)
  warmup : int;
      (** Probe proposals used to calibrate the initial temperature
          (ignored when [init_temp] is given). *)
  init_temp : float option;
      (** Fixed initial temperature — the warm-start quench path. *)
  min_temp_ratio : float;  (** Freeze threshold, fraction of T0. *)
  refresh_every : int;  (** Exact-refresh period of the evaluator. *)
  target_accept : float;  (** Distance-limit controller setpoint. *)
}

val default_config : config
(** Cold solve: calibrated T0, 3 restarts. *)

val quench_config : config
(** Warm start: a short low-temperature polish of an existing solution —
    a small fixed T0, no restarts, few stages. *)

type stats = {
  proposed : int;
  accepted : int;
  rejected : int;
  flips : int;
  resizes : int;
  pairs : int;
  stages : int;
  restarts_done : int;
  init_objective : float;
  final_objective : float;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
(** Componentwise sum of the counters; objectives accumulate too (the
    aggregate is a sum over zones, not a peak). *)

val solve :
  ?zone:int ->
  config:config ->
  Eval.problem ->
  tags:tag array array ->
  init:int array ->
  rng:Repro_util.Rng.t ->
  int array * float * stats
(** Anneal from [init] and return the best choices found, their {e
    exact} (fully recomputed) objective, and the run counters.
    [tags.(s).(c)] classifies candidate [c] of site [s]; [zone] labels
    the flight events.
    @raise Invalid_argument on arity mismatches (via {!Eval.create}).
    @raise Repro_util.Verrors.Error when the ambient budget trips. *)
