(* The 64-bit state lives unboxed in 8 bytes: an [int64] record field
   would box on every store, so each draw would allocate. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

(* SplitMix64 output function: two xor-shift multiplies
   (Steele, Lea & Flood 2014). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t = of_state (next_int64 t)

let of_instance ~seed i =
  if i < 0 then invalid_arg "Rng.of_instance: negative instance index";
  (* Draw number [i] of [create ~seed] has pre-mix state
     seed + (i+1)*gamma, so seeding a child with its mixed output is
     exactly [split] of the parent stream at position [i] — but in O(1)
     instead of O(i), which is what lets parallel workers jump straight
     to their own instance's stream. *)
  let pre =
    Int64.add (Int64.of_int seed)
      (Int64.mul golden_gamma (Int64.of_int (i + 1)))
  in
  of_state (mix64 pre)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native positive int range. *)
  let raw = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  raw mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)

let float t ~bound =
  (* 53 uniform bits mapped into [0, bound). *)
  bound *. (float_of_int (bits53 t) /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. float t ~bound:(hi -. lo)

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t ~bound:1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t ~bound:1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | items ->
    let arr = Array.of_list items in
    arr.(int t ~bound:(Array.length arr))
