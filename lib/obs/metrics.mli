(** Process-wide metrics registry: named counters, gauges and log-scale
    histograms.

    Every histogram (registry instruments, the cells of a {!Rolling}
    window) has one bucket grid and one {!quantile}.  The grid is
    quarter-octave log2: 200 buckets of bound [2^(k/4)], from [2^-19.75]
    to [2^29.75] (microseconds to weeks in ms), each holding the samples
    above the next lower bound up to its own.  Samples [<= 0] land in a
    bucket of bound 0, smaller positive ones in the lowest bucket.
    Non-finite samples and samples above the grid land in no bucket (in
    Prometheus terms, only in [+Inf]); non-finite ones count toward
    [count] and nothing else.

    Instruments are registered once by name ([counter], [gauge] and
    [histogram] get-or-create) and are cheap to update from hot paths —
    a handle is a direct pointer into the registry, so updating never
    hashes.  [reset] zeroes every instrument but keeps it registered, so
    handles held at module top level stay valid across runs.

    Instruments are domain-safe: counters are atomic, gauges and
    histograms update under a per-instrument mutex, so hot kernels may
    bump them from pool workers ({!Repro_par}) without corruption.

    The registry observes; it never influences.  Nothing in the
    optimization pipeline may read a metric back to make a decision —
    that invariant is what makes traced and untraced runs bit-identical
    (see [test/test_obs.ml]). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or create the named counter.
    @raise Invalid_argument if the name exists with another kind. *)

val gauge : string -> gauge
(** Get or create the named gauge.
    @raise Invalid_argument if the name exists with another kind. *)

val histogram : string -> histogram
(** Get or create the named histogram (on the grid above).
    @raise Invalid_argument if the name exists with another kind. *)

val cell : unit -> histogram
(** A fresh histogram outside the registry: never named, listed,
    snapshotted or reset by {!reset}.  The time slices of a {!Rolling}
    window are cells. *)

val clear : histogram -> unit
(** Drop every sample of one histogram. *)

val merge : histogram list -> histogram
(** A fresh cell holding the samples of all the given histograms. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to a counter.  Negative [by] is rejected. *)

val value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one sample, by the rules above. *)

type histogram_stats = {
  count : int;
  sum : float;
  mean : float;  (** 0 when empty. *)
  min : float;  (** +inf when empty. *)
  max : float;  (** -inf when empty. *)
  buckets : (float * int) list;
      (** (upper bound, samples in this bucket), quarter-octave bounds,
          ascending, non-empty buckets only; samples <= 0 land in the 0
          bucket. *)
}

val histogram_stats : histogram -> histogram_stats

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1]: the upper bound of the first
    non-empty bucket at which the cumulative count reaches [q * count],
    clamped to the observed [\[min, max\]] — at most a quarter octave
    (~19%) above the exact value, and exact at the extremes.  [max] when
    only samples outside the grid reach the target; 0 when the
    histogram holds no finite sample. *)

val names : unit -> string list
(** All registered instrument names, sorted. *)

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_stats

val snapshot : unit -> (string * value) list
(** Immutable copy of every instrument's current state, sorted by name —
    the form embedded into run reports ({!Repro_obs.Report}). *)

val histogram_stats_fields :
  histogram_stats -> (string * Repro_util.Json.t) list
(** The canonical JSON fields for a histogram snapshot
    ([count]/[sum]/[mean]/[min]/[max]/[buckets]), shared by {!to_json},
    {!Repro_obs.Report} and the server's stats responses.  Non-finite
    extrema (the no-finite-sample sentinels) are omitted and sum/mean
    clamped to 0 in that case, so the result always serializes to
    finite, round-trippable JSON. *)

val to_json : unit -> Repro_util.Json.t
(** {!snapshot} as a JSON array of
    [{"name", "kind", ...kind-specific fields}] objects.  Non-finite
    histogram extrema (the empty-histogram sentinels) are omitted. *)

val reset : unit -> unit
(** Zero every instrument; registrations (and handles) survive. *)

val dump : unit -> string
(** Render a snapshot of every instrument as an aligned text table
    (via {!Repro_util.Table}), sorted by name. *)
