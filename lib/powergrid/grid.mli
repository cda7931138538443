(** Resistive power-grid mesh (the model of Zhu's book used by the paper
    to measure V_DD / Gnd noise).

    The rail is a uniform nx x ny mesh of nodes over the die, connected to
    4-neighbours through equal segment resistances; pad nodes are ideal
    voltage sources (zero drop).  Each of the V_DD and Gnd rails is one
    such mesh; by symmetry a single structure serves both (currents drawn
    from V_DD produce a positive drop, currents dumped into Gnd produce a
    positive bounce). *)

type t

val create :
  die_side:float ->
  ?nx:int ->
  ?ny:int ->
  ?segment_res:float ->
  ?pad_stride:int ->
  unit ->
  t
(** Mesh over a square die.  Defaults: 16 x 16 nodes, 0.5 Ohm per
    segment, pads every 8 nodes along the boundary (and the four
    corners).
    @raise Invalid_argument if dimensions are smaller than 2 or values
    non-positive. *)

val num_nodes : t -> int

val die_side : t -> float

val node_at : t -> x:float -> y:float -> int
(** Mesh node closest to a die position (positions are clamped onto the
    die). *)

val position : t -> int -> float * float
(** Die coordinates of a mesh node. *)

val is_pad : t -> int -> bool

val solve : t -> injection:float array -> float array
(** [solve t ~injection] returns the voltage drop (uV when injections are
    uA and segment resistance is in Ohm) at every node for the given
    nodal current draw, with pads held at zero, by conjugate gradient on
    the mesh Laplacian.
    @raise Invalid_argument if the injection length differs from
    [num_nodes]. *)

val solve_into : t -> injection:float array -> float array -> unit
(** [solve_into t ~injection x] writes [solve t ~injection] into [x]
    and allocates nothing: the conjugate-gradient work vectors are the
    grid's own, reused across solves.  A grid may still be shared
    across domains; a solve that finds the workspace in use allocates
    its own.  [x] must not be [injection].
    @raise Invalid_argument if either length differs from
    [num_nodes]. *)

val solve_shifted : t -> diag:float array -> injection:float array -> float array
(** [solve_shifted t ~diag ~injection] solves [(L + D) v = injection]
    where [L] is the grounded mesh Laplacian and [D] the given
    non-negative diagonal (pads stay clamped at zero) — the linear
    system of one backward-Euler transient step.
    @raise Invalid_argument on length mismatches or negative diagonal
    entries. *)

val effective_resistance : t -> int -> float
(** Drop at node [i] per unit current injected at [i] (Ohm) — a quick
    severity measure used in tests. *)
