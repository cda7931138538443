(** Abstract clock-tree topology generation.

    The topology is built by recursive geometric bisection of the sink
    set, alternating median cuts in x and y — the classic means-and-
    medians construction.  Every topology leaf owns exactly one sink
    (one leaf buffering element); internal taps sit at the centroid of
    their children.  Long-route repeater chains (single-child internal
    nodes) can be grafted afterwards to reach a prescribed internal-node
    count, mirroring the deep buffer chains of the ISPD'09 trees. *)

type t =
  | Tap of { x : float; y : float; children : t list }
  | Sink_leaf of { index : int; x : float; y : float }
      (** [index] refers into the originating sink array. *)

val bisect : Placement.sink array -> branching:int -> t
(** Recursively split the sinks into at most [branching] child groups per
    tap until each group is a single sink.
    @raise Invalid_argument if [branching < 2] or the sink set is empty. *)

val internal_count : t -> int
(** Number of taps (future internal buffering nodes). *)

val leaf_count : t -> int

val add_repeaters : Repro_util.Rng.t -> t -> extra:int -> t
(** Insert [extra] single-child repeater taps, placed at the midpoint of
    the longest parent-child edges first.
    @raise Invalid_argument if [extra < 0]. *)

val budgeted : Placement.sink array -> taps:int -> t
(** Build a topology that consumes {e exactly} [min taps (max 1 (n-1))]
    taps (internal nodes), where [n] is the sink count: the budget is
    split proportionally across recursive geometric bisections, and a
    subtree whose budget runs out attaches its sinks directly to its
    tap.  This produces the natural balanced structure for any
    (leaves, internals) pair of the benchmark suite.
    @raise Invalid_argument if [taps < 1] or the sink set is empty. *)
