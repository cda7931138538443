(** Wall-clock / label budgets with cooperative cancellation.

    A budget bounds the effort one optimization run may spend: an
    optional wall-clock deadline and an optional cap on the total number
    of MOSP labels extended ({!Repro_mosp.Warburton} charges per row).
    Checks are cooperative: hot loops call {!check} (or the ambient
    {!check_current}) at natural yield points — every Warburton row,
    every {!Repro_par.Par} task — and the first check past the limit
    raises {!Repro_util.Verrors.Error} with code [Budget_exhausted].
    Once tripped, the budget is sticky: every later check raises too, so
    in-flight parallel batches drain quickly instead of finishing their
    full work.

    Exceeding a label limit is deterministic at any job count: parallel
    zone solves keep one tally per zone and replay them in zone order
    ({!ordered_tasks}), so the trip point and the label count in its
    message are those of a sequential run.  Wall-clock deadlines are inherently
    timing-dependent.  Either way the flow records the downgrade as a
    [degradation] instead of failing the run.

    The {e ambient} budget is a thread-scoped slot ({!with_current})
    read by the solver stack; {!Repro_par.Par} propagates the submitting
    thread's budget into every pool task, so concurrent server executors
    never observe each other's budgets.  With no budget installed
    anywhere, every ambient check is a single atomic load and a compare
    — the default path stays bit-identical. *)

type t

val create : ?wall_ms:float -> ?deadline_ns:int64 -> ?max_labels:int -> unit -> t
(** A budget with the given limits; omitted limits are unlimited.
    The wall-clock deadline starts at creation time.  [deadline_ns] is
    an {e absolute} end-to-end request deadline on the {!Clock.now_ns}
    scale (the [wavemin serve] data plane stamps it at parse time and
    threads the remainder here): it trips with code [Deadline_exceeded]
    rather than [Budget_exhausted] and takes precedence, so a shed
    request is reported as abandoned-by-sender, not as a solver-side
    downgrade.
    @raise Invalid_argument on non-positive limits. *)

val check : t -> unit
(** Raise [Verrors.Error] with code [Budget_exhausted] (wall/label
    limits) or [Deadline_exceeded] (request deadline) if a limit has
    been reached (or the budget already tripped); otherwise return. *)

val charge_labels : t -> int -> unit
(** Add extended-label work to the tally, then {!check}. *)

val exceeded : t -> string option
(** The trip reason, without raising; [None] while within budget. *)

val labels_used : t -> int

(** {1 Ambient budget} *)

val with_current : t -> (unit -> 'a) -> 'a
(** Install a budget as the calling thread's ambient budget for the
    duration of the thunk (restoring the previous one afterwards, also
    on exceptions).  Pool tasks submitted from inside the thunk observe
    the installed budget ({!Repro_par.Par} re-installs it around each
    task); unrelated threads never do. *)

val current : unit -> t option

val check_current : unit -> unit
(** {!check} on the ambient budget; no-op when none is installed. *)

val charge_labels_current : int -> unit

(** {1 Ordered label tallies} *)

val ordered_tasks :
  int -> (int -> 'a) -> ((int -> 'a option) -> 'a option array) -> 'a array
(** [ordered_tasks n f fan_out] runs [fan_out task], where [task i] runs
    [f i], and returns the results by index.  Under an ambient label
    limit each task charges its own tally, and the tallies are charged
    to the budget afterwards in task order, as a sequential run would
    have: the trip, and the label count in its message, do not depend
    on thread scheduling.  A task stops early ([None]) once the
    lower-index tasks' labels plus its own overrun the limit, so at
    jobs 1 the work done before the trip is that of a plain sequential
    loop.  If [fan_out] raises (a fault, a wall-clock trip), the labels
    charged so far are still added before the error is re-raised.
    Without a label limit, or inside another task, [task i] is [f i].
    @raise Repro_util.Verrors.Error like {!check} at the first charge
    past the label limit. *)
