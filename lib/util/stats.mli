(** Small descriptive-statistics toolkit used by the Monte-Carlo analysis
    (Sec. VII-D of the paper) and by the benchmark harness. *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on an empty array. *)

val stddev : float array -> float
(** Population standard deviation (divides by [n], matching the paper's
    normalized sigma-hat / mu-hat reporting).
    @raise Invalid_argument on an empty array. *)

val normalized_stddev : float array -> float
(** [stddev xs /. mean xs] — the paper's normalized standard deviation.
    @raise Invalid_argument if the mean is zero or the array empty. *)

val min_max : float array -> float * float
(** Smallest and largest element.  @raise Invalid_argument on empty. *)

val percentile : float array -> p:float -> float
(** [percentile xs ~p] for [p] in [\[0, 100\]] by the nearest-rank rule:
    the element of rank [max 1 (ceil (p/100 * n))] (1-based) of the
    sorted copy, always a sample, never an interpolation.  The same rule
    as the benchmark's [perfbench/metrics.py]: on 1..200, p50 = 100,
    p95 = 190, p99 = 198.
    @raise Invalid_argument on empty or out-of-range p. *)

val correlation : float array -> float array -> float
(** Pearson correlation coefficient of two equal-length samples.
    @raise Invalid_argument on length mismatch, empty input, or a
    zero-variance sample. *)

val fraction_satisfying : ('a -> bool) -> 'a array -> float
(** Share of elements satisfying the predicate (the paper's skew yield). *)
