let shortest_string v =
  let short = Printf.sprintf "%g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v

(* Two comparisons settle every ordered pair; only ties (where the sign
   of a zero decides) and NaN reach [Float.max], whose result is then
   the same by construction. *)
let[@inline] max x y = if y > x then y else if y < x then x else Float.max x y

let fold_max init a =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    m := max !m (Array.unsafe_get a i)
  done;
  !m

let fold_max_abs init a =
  let m = ref init in
  for i = 0 to Array.length a - 1 do
    m := max !m (Float.abs (Array.unsafe_get a i))
  done;
  !m
