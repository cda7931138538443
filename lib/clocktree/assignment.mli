(** Cell assignments for a clock tree.

    An assignment maps every tree node to a concrete buffering cell and,
    for adjustable cells (ADB/ADI), gives the selected capacitor-bank
    delay per power mode.  Polarity assignment and buffer sizing both act
    by replacing the cells of {e leaf} nodes; internal nodes normally
    keep their CTS default.  Assignments are immutable; updates return a
    new value. *)

type t

val default : Tree.t -> num_modes:int -> t
(** Every node carries its [default_cell] and every adjustable setting
    is 0.  @raise Invalid_argument if [num_modes < 1]. *)

val num_modes : t -> int

val cell : t -> Tree.node_id -> Repro_cell.Cell.t

val extra_delay : t -> mode:int -> Tree.node_id -> float
(** The selected additional delay (ps) of an adjustable cell (0 for fixed
    cells).  @raise Invalid_argument on a bad mode index. *)

val set_cell : t -> Tree.node_id -> Repro_cell.Cell.t -> t
(** Replace the cell of one node, resetting its settings to 0. *)

val set_extra_delay : t -> mode:int -> Tree.node_id -> float -> t
(** Select an adjustable delay.
    @raise Invalid_argument if the node's cell is not adjustable or the
    value is not one of its [delay_steps]. *)

val count_leaves : t -> Tree.t -> pred:(Repro_cell.Cell.t -> bool) -> int
(** Number of leaf nodes whose assigned cell satisfies [pred] — used to
    report #inverters, #ADBs, #ADIs. *)

val leaf_cells : t -> Tree.t -> (Tree.node_id * Repro_cell.Cell.t) array
(** The (leaf id, assigned cell) pairs in id order. *)

