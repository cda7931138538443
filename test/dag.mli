(** Multiobjective shortest paths on general directed acyclic graphs.

    {!Repro_mosp.Layered} covers the graphs Algorithm 1 produces; this
    module is the general form (Problem 4 of the paper): arbitrary DAGs
    with r-dimensional non-negative arc weights, Pareto label correcting
    in topological order, the same ε-grid rounding as
    {!Repro_mosp.Warburton}, and min-max path selection.  {!of_layered}
    embeds a layered instance so the two solvers can be cross-checked.
    It lives with the tests as the exhaustive oracle the production
    solvers are checked against. *)

module Layered := Repro_mosp.Layered

type arc = { src : int; dst : int; weight : float array }

type t

val create : num_vertices:int -> arcs:arc list -> t
(** Build and validate a DAG.
    @raise Invalid_argument on out-of-range endpoints, inconsistent
    weight dimensions, negative weight components, self loops, or
    cycles. *)

val num_vertices : t -> int
val num_arcs : t -> int
val dimension : t -> int
(** 0 when there are no arcs. *)

val topological_order : t -> int array

type path = { vertices : int list; cost : float array }
(** [vertices] from source to destination inclusive. *)

val pareto_paths :
  ?epsilon:float -> ?max_labels:int -> t -> src:int -> dst:int -> path list
(** Approximate Pareto-optimal src-dst paths (empty when [dst] is
    unreachable).  Defaults match {!Repro_mosp.Warburton.pareto_paths}.
    @raise Invalid_argument on bad vertex ids or negative epsilon. *)

val min_max_path :
  ?epsilon:float -> ?max_labels:int -> t -> src:int -> dst:int -> path option
(** The Pareto path minimizing the maximum cost component. *)

val of_layered : Layered.t -> t * int * int
(** Embed a layered instance: returns the DAG and its (src, dst) vertex
    ids.  Vertex numbering: src = 0, then the rows' options in order,
    dst last. *)
