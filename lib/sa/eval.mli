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

    {b Early rejection.}  Most annealing moves are rejected, and one
    slot far enough above the committed peak proves a rejection:
    {!propose_metropolis} fuses the proposal scan with the Metropolis
    test and stops at such a slot, starting from the committed peak
    slot.  The decision, the draws and every committed sum stay those
    of {!propose} plus the textbook test.

    {b No allocation.}  {!propose}, {!propose_metropolis}, {!commit},
    {!discard} and {!blit_choices} allocate nothing on the OCaml heap
    (the periodic refresh included): moves come in as caller-owned
    [int] arrays, the pending proposal lives in arrays preallocated by
    {!create}, and the two objectives live in the flat {!score} record,
    so reading them does not box either; the Metropolis draw comes from
    {!Repro_util.Rng.bits53}, an unboxed [int].  [test/test_sa.ml]
    guards this with a [Gc.minor_words] delta.

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

val propose_metropolis :
  t ->
  sites:int array ->
  cands:int array ->
  temp:float ->
  rng:Repro_util.Rng.t ->
  bool
(** [propose_metropolis t ~sites ~cands ~temp ~rng] is {!propose}
    followed by the Metropolis test at temperature [temp], decided
    without scanning every slot when one slot already proves the
    rejection.  It returns exactly what
    {[
      propose t ~sites ~cands;
      let delta = (score t).proposed -. (score t).committed in
      delta <= 0.0 || Rng.float rng ~bound:1.0 < exp (-.delta /. temp)
    ]}
    returns, with exactly the same draws from [rng]: one draw iff
    [not (delta <= 0.0)], none otherwise.  [true] leaves the proposal
    pending with [(score t).proposed] set, for {!commit}; [false]
    leaves nothing pending.  Moves are validated as by {!propose} (a
    raise draws nothing and leaves nothing pending).

    {b The scan.}  Slot values are computed with {!propose}'s per-slot
    operation order, [(((acc -. o1) +. n1) -. o2) +. n2] for a pair
    move, in one pass.  The committed peak slot (the first slot where
    the committed sum reaches the committed objective [c], or slot 0
    when no sum is above the [0.0] floor) is computed
    and tested first, as the slot most likely to rise above [c]; then
    every slot in index order.  The first slot value [v > c] draws [u];
    from then on each slot value above every value tested so far is
    tested, and [u >= exp (-.(v -. c) /. temp) *. (1.0 +. 1e-12)
    +. min_float] rejects at once.  A scan that ends without a
    rejection applies the test above verbatim, drawing only if it has
    not drawn yet.

    {b Why the early rejection is exact.}  Let [obj] be the objective
    the full scan would compute and [delta = obj -. c].
    - Each slot value [v] is computed bit for bit as {!propose} computes
      it, and [obj] is a fold of [Float.max] over those values, so
      [v <= obj] (or [obj] is NaN, and then both tests reject).
    - So [v > c] proves [obj > c], i.e. [delta > 0.0] (or NaN): the
      verbatim test would draw too, and draws the same [u], because
      nothing else draws in between.
    - Rounded subtraction is monotone, so [v -. c <= delta]; negation is
      exact and rounded division by a positive [temp] is monotone, so
      [x_v = -.(v -. c) /. temp >= -.delta /. temp = x].  The early test
      is only made when [temp > 0.0].
    - libm [exp] is within 1 ulp of the true value, so computed
      [exp x <= exp x_v *. (1 + 2^-51)], far inside the [1e-12] margin,
      for normal results; for subnormal or zero results a relative
      bound does not hold, and [min_float] (the least normal) bounds
      both.  Hence [u >= exp x_v *. (1 + 1e-12) +. min_float] implies
      [u >= exp x], i.e. the verbatim test rejects.
    Skipping a test is always safe, so which slots are tested, and which
    slot goes first, only decides how soon a rejection is found, never
    the outcome.  Infinite values follow the same argument; a NaN slot
    never passes [v > c], so it is left to the verbatim test.

    Allocates nothing, like {!propose}. *)

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
