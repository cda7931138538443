(** Rolling-window histogram: percentiles over the last N seconds.

    A ring of time-sliced {!Metrics.cell}s; each observation lands in
    the slice owning its timestamp and stale slices are cleared lazily
    on reuse, so both {!observe} and {!stats} are O(ring).  {!stats}
    merges only slices inside the window, so p50/p95/p99 describe recent
    behaviour — the live-telemetry complement to the cumulative
    {!Metrics.histogram}.

    The bucket grid (quarter-octave), the rule for non-finite and
    non-positive samples and the clamped quantile are {!Metrics}': the
    same samples give a {!Metrics.histogram} and a window the same
    count, extrema and percentiles.  Thread-safe; like the metrics
    registry it only ever observes, never influences, results.

    Every entry point takes [?now] (seconds, {!Clock.now_s} domain,
    defaulting to the real clock) so window rotation is testable with a
    synthetic clock. *)

type t

val create : ?window_s:float -> ?slots:int -> unit -> t
(** A window of [window_s] seconds (default 60) split into [slots]
    ring slices (default 12, i.e. 5-second slices).
    @raise Invalid_argument on a non-positive window or slot count. *)

val window_seconds : t -> float

val observe : ?now:float -> t -> float -> unit
(** Record one sample at time [now], by {!Metrics.observe}'s rules:
    every sample counts toward [count]/[rate], a non-finite one toward
    nothing else.

    Clock skew: a [now] older than the slice its timestamp maps to is
    folded into that newer slice (clamped forward in time) rather than
    resurrecting the stale period — late samples are never lost and
    never wipe newer window data. *)

type stats = {
  count : int;  (** Samples inside the window. *)
  total : int;  (** Lifetime samples, window-independent. *)
  rate : float;  (** Samples per second over the covered window. *)
  mean : float;
  min : float;  (** 0 when the window holds no finite sample. *)
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

val stats : ?now:float -> t -> stats
(** Aggregate of the slices within [window_s] of [now].  All fields are
    finite; an empty window yields zeros (never ±inf sentinels). *)

val reset : t -> unit

val stats_json : stats -> Repro_util.Json.t
(** Stats as a flat JSON object (all values finite) — embedded in the
    server's [stats] response. *)
