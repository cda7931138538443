(** Benchmark circuit suite.

    Synthetic stand-ins for the circuits of the paper's evaluation
    (Sec. VII-A), reproducing each circuit's published clock-tree
    statistics: total buffering-element count [n], leaf count [|L|], and
    the zone-occupancy averages (4.3 leaves per 50x50 um zone for
    ISCAS'89, 4.9 for ISPD'09, 7.1 for s35932).  Die sizes are chosen so
    that |L| / (die area / zone area) matches those averages.  Every
    benchmark is generated deterministically from its name. *)

type family = Iscas89 | Ispd09

type spec = {
  name : string;
  family : family;
  num_nodes : int;  (** Paper's [n] (column n of Table V). *)
  num_leaves : int;  (** Paper's [|L|]. *)
  die_side : float;  (** um, square die. *)
  clusters : int;  (** Placement cluster count (register banks). *)
  seed : int;
}

val all : spec list
(** The seven circuits of Table V in paper order:
    s13207, s15850, s35932, s38417, s38584, ispd09f31, ispd09f34. *)

val find : string -> spec
(** @raise Not_found for unknown benchmark names. *)

val sinks : spec -> Placement.sink array
(** Deterministic sink placement for the benchmark. *)

val synthesize : spec -> Repro_clocktree.Tree.t
(** Generate the zero-skew clock tree for the benchmark.  The resulting
    tree has exactly [num_nodes] buffering elements, [num_leaves] of them
    leaves. *)

val zone_side : float
(** 50 um — the empirically chosen zone side of Sec. VII-A. *)
