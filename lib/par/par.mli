(** Deterministic parallel combinators over a shared domain pool.

    The pool is sized by {!set_jobs} (the [-j]/[--jobs] CLI flag), the
    [WAVEMIN_JOBS] environment variable, or — absent both — the
    machine's recommended domain count.  [jobs = 1] is the exact
    sequential path: no domains are spawned and the combinators reduce
    to [Array.map]/[for] loops.

    {b Determinism guarantee.}  Results are index-addressed and
    reductions are ordered left folds, so every combinator returns
    bit-identical results for {e any} job count, provided the supplied
    functions are pure up to disjoint writes (e.g. [body i] in
    {!parallel_for} touching only slot [i] of shared arrays).
    Exceptions are deterministic too: every task runs to completion and
    the lowest-index failure is re-raised.

    Nested parallel regions (a combinator invoked from inside another's
    task) silently run sequentially on the calling worker — parallelism
    comes from the outermost region only, and nesting never deadlocks.

    When an ambient {!Repro_obs.Budget} is installed or the
    [pool-task] fault seam ({!Repro_obs.Fault}) is armed, every task is
    wrapped with a budget check and a fault trip — on the sequential and
    pooled paths alike — so an exhausted budget or injected fault
    surfaces as a deterministic lowest-index
    {!Repro_util.Verrors.Error}.  With neither armed the combinators
    apply the supplied function untouched.

    Each region records a [par.<label>] span ({!Repro_obs.Trace}) whose
    Chrome export shows the per-domain fan-out, and updates the
    [par.regions] / [par.tasks] counters, the [par.jobs] gauge and the
    [par.domain_busy_ms] histogram ({!Repro_obs.Metrics}). *)

val jobs : unit -> int
(** The job count the next parallel region will use. *)

val set_jobs : int -> unit
(** Override the job count; the pool is re-created lazily on the next
    region.  @raise Invalid_argument if the argument is [< 1]. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run a thunk under a temporary job count, restoring the previous
    setting afterwards (even on exceptions). *)

val shutdown : unit -> unit
(** Join any live pool domains.  Registered [at_exit]; safe to call
    manually between regions; idempotent. *)

val pool_stats : unit -> Pool.stats option
(** Cumulative stats of the live pool ([None] before the first parallel
    region — reading never forces pool creation).  The server's runtime
    sampler turns deltas of [busy_ns] into a busy-fraction gauge. *)

val parallel_map : ?label:string -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f arr] = [Array.map f arr], fanned across the pool. *)

val parallel_init : ?label:string -> int -> (int -> 'a) -> 'a array
(** [parallel_init n f] = [Array.init n f], fanned across the pool.
    Tasks that charge MOSP labels to the ambient budget charge them in
    index order ({!Repro_obs.Budget.ordered_tasks}), so a label-budget
    trip and its message are the same at any job count. *)

val parallel_map_reduce :
  ?label:string ->
  f:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Map in parallel, then reduce with an {e ordered} left fold on the
    submitting domain — the same float-operation sequence as
    [Array.fold_left reduce init (Array.map f arr)], for any job
    count. *)

val parallel_for : ?label:string -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n body] runs [body i] for [i] in [0 .. n-1], in
    chunks across the pool ([chunk] indices per task; default ~4 chunks
    per job).  [body] must only write state owned by its index. *)
