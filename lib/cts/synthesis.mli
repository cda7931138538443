(** Zero-skew buffered clock tree synthesis.

    Substitutes the paper's Synopsys IC Compiler flow.  The pipeline is:

    + build the abstract topology by geometric bisection, choosing the
      branching factor so that the internal-node count does not exceed
      the requested budget;
    + spend the remaining internal-node budget on repeater chains spread
      evenly over the leaf edges (the ISPD'09 benchmarks have more
      internal nodes than leaves);
    + start every leaf as BUF_X8 and size internal buffers bottom-up
      against their capacitive load;
    + equalize sink arrival times by iterative wire snaking on the leaf
      nets until the skew is at most 4 ps or 30 iterations have run, no
      snaked net longer than 1200 um.

    The result is a {!Repro_clocktree.Tree.t} whose nominal skew is a few
    ps, comparable to the "<10 ps" zero-skew trees of the paper. *)

val level_sizes : internals:int -> leaves:int -> int list
(** Internal-buffer level sizes, root level (always 1) first, summing to
    exactly [internals]; each level is at most as large as the level
    below it.  Exposed for tests and diagnostics.
    @raise Invalid_argument on non-positive arguments. *)

val build :
  rng:Repro_util.Rng.t ->
  Placement.sink array ->
  internals:int ->
  Repro_clocktree.Tree.t
(** Structure and sizing only — no skew equalization.
    @raise Invalid_argument if [internals < 1] or there are no sinks. *)

val equalize_skew : Repro_clocktree.Tree.t -> Repro_clocktree.Tree.t
(** Iterative leaf-net snaking under the default assignment and nominal
    environment. *)

val synthesize :
  rng:Repro_util.Rng.t ->
  Placement.sink array ->
  internals:int ->
  Repro_clocktree.Tree.t
(** [build] followed by [equalize_skew]. *)

val nominal_skew : Repro_clocktree.Tree.t -> float
(** Skew of the tree under its default assignment at 1.1 V. *)
