(** Deterministic pseudo-random number generation.

    All stochastic components of the library (benchmark synthesis,
    Monte-Carlo variation analysis, property-test corpora) draw their
    randomness from an explicitly seeded generator so that every run of the
    benches and tests is reproducible.  The implementation is SplitMix64,
    which has a 64-bit state, passes BigCrush, and supports cheap
    independent streams via {!split}. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed.  Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use one split per subsystem so that adding draws to one subsystem does
    not perturb another. *)

val of_instance : seed:int -> int -> t
(** [of_instance ~seed i] is the generator [split] would produce after
    [i] draws from [create ~seed], computed in O(1).  The resulting
    family of streams is a pure function of [(seed, i)], so per-instance
    work (e.g. one Monte-Carlo trial) gets bit-identical randomness no
    matter how instances are chunked across domains.
    @raise Invalid_argument if [i < 0]. *)

val int : t -> bound:int -> int
(** [int t ~bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> bound:float -> float
(** [float t ~bound] returns a uniform float in [\[0, bound)]. *)

val bits53 : t -> int
(** [bits53 t] is the draw behind {!float}: 53 uniform bits, so
    [float t ~bound] is [bound *. (float_of_int (bits53 t) /. 2^53)] and
    both advance the stream by one step.  An [int] result is not boxed,
    so a hot loop in another module can draw and scale it without
    allocating, which a [float] result returned across modules does. *)

val uniform : t -> lo:float -> hi:float -> float
(** [uniform t ~lo ~hi] returns a uniform float in [\[lo, hi)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian t ~mu ~sigma] draws from the normal distribution
    N(mu, sigma^2) by the Box-Muller transform. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.
    @raise Invalid_argument on the empty list. *)
