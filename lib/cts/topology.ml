module Rng = Repro_util.Rng

type t =
  | Tap of { x : float; y : float; children : t list }
  | Sink_leaf of { index : int; x : float; y : float }

let position = function
  | Tap { x; y; _ } -> (x, y)
  | Sink_leaf { x; y; _ } -> (x, y)

let centroid children =
  let n = float_of_int (List.length children) in
  let sx, sy =
    List.fold_left
      (fun (sx, sy) child ->
        let x, y = position child in
        (sx +. x, sy +. y))
      (0.0, 0.0) children
  in
  (sx /. n, sy /. n)

(* Split [items] into [groups] contiguous chunks of near-equal size. *)
let chunk items groups =
  let n = Array.length items in
  let base = n / groups and rem = n mod groups in
  let out = ref [] in
  let start = ref 0 in
  for g = 0 to groups - 1 do
    let len = base + if g < rem then 1 else 0 in
    if len > 0 then out := Array.sub items !start len :: !out;
    start := !start + len
  done;
  List.rev !out

let bisect sinks ~branching =
  if branching < 2 then invalid_arg "Topology.bisect: branching < 2";
  if Array.length sinks = 0 then invalid_arg "Topology.bisect: no sinks";
  let rec build indices =
    match Array.length indices with
    | 0 -> assert false
    | 1 ->
      let i = indices.(0) in
      Sink_leaf { index = i; x = sinks.(i).Placement.x; y = sinks.(i).Placement.y }
    | n ->
      let xs = Array.map (fun i -> sinks.(i).Placement.x) indices in
      let ys = Array.map (fun i -> sinks.(i).Placement.y) indices in
      let x0, x1 = Repro_util.Stats.min_max xs in
      let y0, y1 = Repro_util.Stats.min_max ys in
      let key =
        if x1 -. x0 >= y1 -. y0 then fun i -> sinks.(i).Placement.x
        else fun i -> sinks.(i).Placement.y
      in
      let sorted = Array.copy indices in
      Array.sort (fun a b -> Float.compare (key a) (key b)) sorted;
      let groups = min branching n in
      let children = List.map build (chunk sorted groups) in
      let x, y = centroid children in
      Tap { x; y; children }
  in
  build (Array.init (Array.length sinks) (fun i -> i))

let rec internal_count = function
  | Sink_leaf _ -> 0
  | Tap { children; _ } -> 1 + List.fold_left (fun a c -> a + internal_count c) 0 children

let rec leaf_count = function
  | Sink_leaf _ -> 1
  | Tap { children; _ } -> List.fold_left (fun a c -> a + leaf_count c) 0 children

let manhattan (x0, y0) (x1, y1) = Float.abs (x1 -. x0) +. Float.abs (y1 -. y0)

(* Insert one repeater at the midpoint of the longest parent-child edge.
   Returns the rebuilt tree.  When all edges are degenerate (zero
   length), insert above a leaf chosen at random so progress is still
   made. *)
let insert_one rng tree =
  let best : (float * int list) ref = ref (-1.0, []) in
  (* Identify edges by the path of child indices from the root. *)
  let rec scan path node =
    match node with
    | Sink_leaf _ -> ()
    | Tap { children; _ } ->
      let here = position node in
      List.iteri
        (fun i child ->
          let len = manhattan here (position child) in
          let jitter = Rng.float rng ~bound:1e-6 in
          if len +. jitter > fst !best then best := (len +. jitter, List.rev (i :: path));
          scan (i :: path) child)
        children
  in
  scan [] tree;
  let _, path = !best in
  let rec rebuild path node =
    match (path, node) with
    | [], _ -> assert false
    | [ i ], Tap ({ children; _ } as tap) ->
      let children =
        List.mapi
          (fun j child ->
            if j <> i then child
            else
              let px, py = position node in
              let cx, cy = position child in
              Tap
                {
                  x = 0.5 *. (px +. cx);
                  y = 0.5 *. (py +. cy);
                  children = [ child ];
                })
          children
      in
      Tap { tap with children }
    | i :: rest, Tap ({ children; _ } as tap) ->
      let children =
        List.mapi (fun j child -> if j = i then rebuild rest child else child) children
      in
      Tap { tap with children }
    | _ :: _, Sink_leaf _ -> assert false
  in
  match path with
  | [] ->
    (* Root itself is a sink leaf: wrap it. *)
    let x, y = position tree in
    Tap { x; y; children = [ tree ] }
  | _ -> rebuild path tree

let add_repeaters rng tree ~extra =
  if extra < 0 then invalid_arg "Topology.add_repeaters: extra < 0";
  let rec go k tree = if k = 0 then tree else go (k - 1) (insert_one rng tree) in
  go extra tree

let budgeted sinks ~taps =
  if taps < 1 then invalid_arg "Topology.budgeted: taps < 1";
  let n = Array.length sinks in
  if n = 0 then invalid_arg "Topology.budgeted: no sinks";
  let leaf i =
    Sink_leaf { index = i; x = sinks.(i).Placement.x; y = sinks.(i).Placement.y }
  in
  (* Split a group along its longer axis into two near-equal halves. *)
  let split indices =
    let xs = Array.map (fun i -> sinks.(i).Placement.x) indices in
    let ys = Array.map (fun i -> sinks.(i).Placement.y) indices in
    let x0, x1 = Repro_util.Stats.min_max xs in
    let y0, y1 = Repro_util.Stats.min_max ys in
    let key =
      if x1 -. x0 >= y1 -. y0 then fun i -> sinks.(i).Placement.x
      else fun i -> sinks.(i).Placement.y
    in
    let sorted = Array.copy indices in
    Array.sort (fun a b -> Float.compare (key a) (key b)) sorted;
    let h = Array.length sorted / 2 in
    (Array.sub sorted 0 h, Array.sub sorted h (Array.length sorted - h))
  in
  (* [build indices budget] consumes exactly [budget] taps (>= 1). *)
  let rec build indices budget =
    let m = Array.length indices in
    if budget = 1 || m = 1 then
      let children = Array.to_list (Array.map leaf indices) in
      let x, y = centroid children in
      Tap { x; y; children }
    else begin
      let i1, i2 = split indices in
      let n1 = Array.length i1 and n2 = Array.length i2 in
      let rest = budget - 1 in
      (* Proportional budget split, each side capped to its own maximum
         (a side with k sinks can consume at most k-1+1 = k taps via
         nested bisection down to singleton groups). *)
      let b1 =
        let raw =
          int_of_float
            (Float.round (float_of_int rest *. float_of_int n1 /. float_of_int m))
        in
        max 0 (min raw rest)
      in
      let cap side_n b = min b (max 0 (side_n - 1)) in
      let b1 = cap n1 b1 in
      let b2 = cap n2 (rest - b1) in
      let b1 = cap n1 (rest - b2) in
      let attach indices budget =
        if budget = 0 then Array.to_list (Array.map leaf indices)
        else [ build indices budget ]
      in
      let children = attach i1 b1 @ attach i2 b2 in
      let x, y = centroid children in
      Tap { x; y; children }
    end
  in
  let max_taps = max 1 (n - 1) in
  build (Array.init n (fun i -> i)) (min taps max_taps)
