(** Clock-tree export for inspection and downstream tooling.

    Trees (optionally with an assignment) can be rendered as Graphviz
    DOT for visual inspection or serialized to a line-based tabular
    format (one node per line) that loads back exactly — useful for
    versioning generated benchmarks and for debugging optimization
    results outside OCaml. *)

val to_dot :
  ?assignment:Assignment.t -> Tree.t -> string
(** Graphviz digraph: leaves are boxes labelled with their cell and sink
    capacitance (inverter-assigned leaves are shaded), internal nodes
    are ellipses; edges carry the wire length. *)

val to_table : Tree.t -> string
(** Tabular serialization:
    one [id parent kind x y wire_len sink_cap cell_name] row per node
    (parent -1 for the root), preceded by a header line. *)

val of_table : string -> (Tree.t, string) result
(** Load a {!to_table} dump; cells are resolved through
    {!Repro_cell.Library.find}.  Returns a description of the first
    offending line on failure. *)

val save_file : string -> Tree.t -> unit
(** Write {!to_table} output to a file. *)

val load_file : string -> (Tree.t, string) result
