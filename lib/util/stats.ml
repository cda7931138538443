let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  require_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  require_nonempty "Stats.stddev" xs;
  let m = mean xs in
  let sumsq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  sqrt (sumsq /. float_of_int (Array.length xs))

let normalized_stddev xs =
  let m = mean xs in
  if m = 0.0 then invalid_arg "Stats.normalized_stddev: zero mean";
  stddev xs /. m

let min_max xs =
  require_nonempty "Stats.min_max" xs;
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

let percentile xs ~p =
  require_nonempty "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: total over NaN and an
     order of magnitude cheaper than the generic comparison. *)
  Array.sort Float.compare sorted;
  let n = float_of_int (Array.length sorted) in
  sorted.(Stdlib.max 1 (int_of_float (Float.ceil (p /. 100.0 *. n))) - 1)

let correlation xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.correlation: length mismatch";
  require_nonempty "Stats.correlation" xs;
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and vx = ref 0.0 and vy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      num := !num +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy))
    xs;
  if !vx = 0.0 || !vy = 0.0 then
    invalid_arg "Stats.correlation: zero-variance sample";
  !num /. sqrt (!vx *. !vy)

let fraction_satisfying pred xs =
  let hits = Array.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 xs in
  if Array.length xs = 0 then 0.0
  else float_of_int hits /. float_of_int (Array.length xs)
