(** Incremental objective evaluation for the simulated-annealing solver.

    The annealer optimizes one zone at a time: each {e site} (a zone
    sink) picks one candidate, each candidate contributes a precomputed
    per-slot current row, and the objective is the peak of the summed
    per-slot waveform — exactly {!Repro_core.Noise_table.zone_objective},
    but maintained incrementally.  A proposal touching [k] sites costs
    O(k x slots): the old candidate rows are subtracted and the new ones
    added on a preallocated scratch accumulator (the array form of
    [Pwl.add_into] on sampled slots), never a full re-sum over all
    sites.

    Undo is O(1): {!propose} writes the scratch buffer and leaves the
    committed accumulator untouched, so {!discard} simply forgets the
    proposal while {!commit} swaps the two buffers.  Rejected moves
    therefore perturb nothing; accepted moves accumulate float error at
    most linearly in the number of commits, bounded by the periodic
    exact refresh ([refresh_every]).

    {b No allocation.}  {!propose}, {!commit}, {!discard} and
    {!blit_choices} allocate nothing on the OCaml heap (the periodic
    refresh included): moves come in as caller-owned [int] arrays, the
    pending proposal lives in arrays preallocated by {!create}, and the
    two objectives live in the flat {!score} record, so reading them
    does not box either.  [test/test_sa.ml] guards this with a
    [Gc.minor_words] delta.

    {b Rounding.}  Per slot, the moves of a proposal apply in order as
    [(acc -. old) +. new], and the objective is the left fold of
    [Float.max] from [0.0] over the slots: every result is bit-identical
    to the blit / per-move delta / fold kernel this module replaced. *)

type problem = {
  rows : float array array array;
      (** [rows.(s).(c).(k)] — contribution of candidate [c] of site [s]
          at slot [k]; uA.  Ragged in [c] (sites may differ in candidate
          count), uniform in [k]. *)
  base : float array;  (** Fixed per-slot term (non-leaf background). *)
  avail : bool array array;
      (** [avail.(s).(c)] — candidate admitted by the current interval
          class.  Every site must have at least one available
          candidate. *)
}

type t
(** Mutable evaluation state: current choices, the committed slot
    accumulator, and the proposal scratch buffer. *)

type score = private { mutable committed : float; mutable proposed : float }
(** The committed objective and the pending proposal's objective
    ([proposed] is meaningful only while a proposal is pending).  An
    all-float record is stored flat, so the annealer reads these
    without boxing. *)

val create : ?refresh_every:int -> problem -> init:int array -> t
(** [create problem ~init] starts from [init.(s)] (one {e available}
    candidate index per site).  [refresh_every] (default 1024) is the
    number of commits between exact recomputations.
    @raise Invalid_argument on arity mismatch, an out-of-range or
    unavailable initial choice, or a non-positive [refresh_every]. *)

val num_sites : t -> int
val num_slots : t -> int

val choice : t -> int -> int
(** Current candidate of a site. *)

val choices : t -> int array
(** A fresh copy of the current choice vector. *)

val blit_choices : t -> int array -> unit
(** [blit_choices t into] copies the current choice vector into [into].
    @raise Invalid_argument unless [into] has {!num_sites} entries. *)

val score : t -> score
(** The live score record of [t] (updated in place by every call). *)

val objective : t -> float
(** The committed objective: max over slots of the accumulated waveform
    (never below 0, matching [zone_objective]).  Same as
    [(score t).committed]. *)

val propose : t -> sites:int array -> cands:int array -> unit
(** [propose t ~sites ~cands] evaluates the objective after moving each
    site [sites.(i)] to candidate [cands.(i)], without committing
    anything, and stores it in [(score t).proposed].  A second [propose]
    before {!commit}/{!discard} replaces the pending proposal.

    Every move is validated before any state is touched.  A raise
    leaves no proposal pending (an earlier one is dropped too), so a
    following {!commit} raises instead of installing sums that do not
    match the choices.
    @raise Invalid_argument when [sites] and [cands] differ in length,
    on an out-of-range site/candidate, an unavailable candidate, or a
    site repeated within [sites]. *)

val commit : t -> unit
(** Accept the pending proposal: O(1) buffer swap plus the choice
    updates (and, every [refresh_every] commits, one exact refresh).
    @raise Invalid_argument when no proposal is pending. *)

val discard : t -> unit
(** Reject the pending proposal: O(1), the committed state is untouched.
    No-op when nothing is pending. *)

val recompute : t -> float
(** Exact full recomputation of the accumulator and objective from the
    current choices; drops any pending proposal.  This is the reference
    the QCheck delta property compares against. *)
