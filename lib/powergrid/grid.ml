(* The conjugate-gradient work vectors of one solve. *)
type workspace = { r : float array; p : float array; ap : float array }

type t = {
  nx : int;
  ny : int;
  die_side : float;
  conductance : float; (* 1 / segment_res, in 1/Ohm *)
  pad : bool array;
  workspace : workspace option Atomic.t;
      (* [None] while a solve holds it. *)
}

let new_workspace n =
  { r = Array.make n 0.0; p = Array.make n 0.0; ap = Array.make n 0.0 }

let create ~die_side ?(nx = 16) ?(ny = 16) ?(segment_res = 0.5)
    ?(pad_stride = 8) () =
  if nx < 2 || ny < 2 then invalid_arg "Grid.create: mesh too small";
  if die_side <= 0.0 || segment_res <= 0.0 then
    invalid_arg "Grid.create: non-positive dimension";
  if pad_stride < 1 then invalid_arg "Grid.create: pad_stride < 1";
  let pad = Array.make (nx * ny) false in
  (* Pads sit on the boundary ring, every [pad_stride] nodes, plus the
     four corners. *)
  let mark i j = pad.((j * nx) + i) <- true in
  for i = 0 to nx - 1 do
    if i mod pad_stride = 0 || i = nx - 1 then begin
      mark i 0;
      mark i (ny - 1)
    end
  done;
  for j = 0 to ny - 1 do
    if j mod pad_stride = 0 || j = ny - 1 then begin
      mark 0 j;
      mark (nx - 1) j
    end
  done;
  { nx; ny; die_side; conductance = 1.0 /. segment_res; pad;
    workspace = Atomic.make (Some (new_workspace (nx * ny))) }

let num_nodes t = t.nx * t.ny

let die_side t = t.die_side

let node_at t ~x ~y =
  let clamp v = Float.max 0.0 (Float.min t.die_side v) in
  let i =
    min (t.nx - 1)
      (int_of_float (clamp x /. t.die_side *. float_of_int t.nx))
  in
  let j =
    min (t.ny - 1)
      (int_of_float (clamp y /. t.die_side *. float_of_int t.ny))
  in
  (j * t.nx) + i

let position t id =
  let i = id mod t.nx and j = id / t.nx in
  ( (float_of_int i +. 0.5) /. float_of_int t.nx *. t.die_side,
    (float_of_int j +. 0.5) /. float_of_int t.ny *. t.die_side )

let is_pad t id = t.pad.(id)

(* One neighbour's term of a free row: [acc +. g (x_id - x_nid)], a
   pad neighbour counting as 0 V.  A closed top-level function so that
   ocamlopt inlines it and [acc] stays an unboxed float. *)
let[@inline] couple (pad : bool array) (x : float array) g xi nid acc =
  acc +. (g *. (xi -. (if pad.(nid) then 0.0 else x.(nid))))

(* y := L x where L is the grounded mesh Laplacian: pads act as Dirichlet
   nodes (row = identity), free rows are conductance-weighted degrees. *)
let apply t (x : float array) (y : float array) =
  let nx = t.nx and ny = t.ny and g = t.conductance and pad = t.pad in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let id = (j * nx) + i in
      if pad.(id) then y.(id) <- x.(id)
      else begin
        let xi = x.(id) in
        let acc = ref 0.0 in
        if i > 0 then acc := couple pad x g xi (id - 1) !acc;
        if i < nx - 1 then acc := couple pad x g xi (id + 1) !acc;
        if j > 0 then acc := couple pad x g xi (id - nx) !acc;
        if j < ny - 1 then acc := couple pad x g xi (id + nx) !acc;
        y.(id) <- !acc
      end
    done
  done

(* The operator of a solve: the mesh Laplacian, optionally shifted by
   a non-negative diagonal on the free nodes.  [Laplacian] is a
   constant constructor, so a plain solve allocates no closure. *)
type operator = Laplacian | Shifted of float array

let apply_operator t op x y =
  apply t x y;
  match op with
  | Laplacian -> ()
  | Shifted diag ->
    for i = 0 to num_nodes t - 1 do
      if not t.pad.(i) then y.(i) <- y.(i) +. (diag.(i) *. x.(i))
    done

(* Conjugate gradient into [x]; the grounded Laplacian is SPD on the
   free nodes as long as at least one pad exists (guaranteed by
   create).  Written as loops over local float accumulators so that an
   iteration allocates nothing; the summation order of every dot
   product is the index order, as in a [dot] helper, so results are
   unchanged bit for bit.  The [x]/[r] update pass also sums [r.r] for
   the next step.  The work vectors come from the grid's workspace; a
   solve that finds it taken (another domain is solving on the same
   grid) uses fresh ones.  The option cell taken out is the one put
   back, so returning it allocates nothing. *)
let solve_operator_into t op ~injection x =
  let n = num_nodes t in
  let pad = t.pad in
  let held =
    match Atomic.exchange t.workspace None with
    | Some _ as held -> held
    | None -> Some (new_workspace n)
  in
  let { r; p; ap } = Option.get held in
  for i = 0 to n - 1 do
    let bi = if pad.(i) then 0.0 else injection.(i) in
    x.(i) <- 0.0;
    r.(i) <- bi;
    p.(i) <- bi;
    ap.(i) <- 0.0
  done;
  let rs = ref 0.0 in
  for i = 0 to n - 1 do
    rs := !rs +. (r.(i) *. r.(i))
  done;
  let rs0 = !rs in
  (* Relative tolerance: the mesh is well conditioned, a few hundred
     iterations at most. *)
  let eps = Float.max 1e-30 (1e-14 *. rs0) in
  let max_iter = 4 * n in
  let k = ref 0 in
  while (not (!rs < eps)) && !k < max_iter do
    apply_operator t op p ap;
    let pap = ref 0.0 in
    for i = 0 to n - 1 do
      pap := !pap +. (p.(i) *. ap.(i))
    done;
    let alpha = !rs /. Float.max eps !pap in
    let rs' = ref 0.0 in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      let ri = r.(i) -. (alpha *. ap.(i)) in
      r.(i) <- ri;
      rs' := !rs' +. (ri *. ri)
    done;
    let beta = !rs' /. !rs in
    for i = 0 to n - 1 do
      p.(i) <- r.(i) +. (beta *. p.(i))
    done;
    rs := !rs';
    incr k
  done;
  for i = 0 to n - 1 do
    if pad.(i) then x.(i) <- 0.0
  done;
  Atomic.set t.workspace held

let solve_into t ~injection x =
  if Array.length injection <> num_nodes t then
    invalid_arg "Grid.solve: injection length mismatch";
  if Array.length x <> num_nodes t then
    invalid_arg "Grid.solve_into: output length mismatch";
  solve_operator_into t Laplacian ~injection x

let solve t ~injection =
  let x = Array.make (num_nodes t) 0.0 in
  solve_into t ~injection x;
  x

let solve_shifted t ~diag ~injection =
  let n = num_nodes t in
  if Array.length injection <> n then
    invalid_arg "Grid.solve_shifted: injection length mismatch";
  if Array.length diag <> n then
    invalid_arg "Grid.solve_shifted: diag length mismatch";
  for i = 0 to n - 1 do
    if diag.(i) < 0.0 then
      invalid_arg "Grid.solve_shifted: negative diagonal entry"
  done;
  let x = Array.make n 0.0 in
  solve_operator_into t (Shifted diag) ~injection x;
  x

let effective_resistance t id =
  let injection = Array.make (num_nodes t) 0.0 in
  injection.(id) <- 1.0;
  (solve t ~injection).(id)
