(** Float helpers: round-trip formatting and an exact fast maximum. *)

val shortest_string : float -> string
(** Shortest decimal representation that parses back to exactly the same
    float — use for serialization formats that must round-trip. *)

val max : float -> float -> float
(** [max x y] is [Float.max x y] bit for bit, including [max (-0.) 0.]
    = [0.] and NaN propagation, but decides every ordered pair with two
    comparisons; [Float.max] calls the C primitive [caml_signbit_float]
    on every pair where [y] is not greater.

    Modules are compiled [-opaque] in dune's default (dev) profile, so a
    call from another module is not inlined and boxes both arguments
    and the result.  Loops over float arrays should therefore use
    {!fold_max} / {!fold_max_abs}, which run the whole loop here, or
    restate this definition locally. *)

val fold_max : float -> float array -> float
(** [fold_max init a = Array.fold_left max init a], without boxing the
    elements. *)

val fold_max_abs : float -> float array -> float
(** [fold_max_abs init a = Array.fold_left (fun m v -> max m (Float.abs v)) init a],
    without boxing the elements. *)
