module Cell = Repro_cell.Cell
module Library = Repro_cell.Library
module Tree = Repro_clocktree.Tree
module Wire = Repro_clocktree.Wire
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing

(* Snaking stops once the skew is at most [target_skew] ps or after
   [max_iterations] passes; no snaked net exceeds [max_snake] um. *)
let target_skew = 4.0
let max_iterations = 30
let max_snake = 1200.0

let fanout_target = 4

(* Level sizes of the internal-buffer tree, root (size 1) first, summing to
   exactly [internals].  Every root-leaf path crosses every level exactly
   once, so all sinks see the same number of buffers — the property that
   gives commercial CTS its near-zero skew.  The surplus budget of deep
   benchmarks (ISPD'09) becomes full repeater levels of fanout 1. *)
let level_sizes ~internals ~leaves =
  if internals < 1 then invalid_arg "Synthesis.level_sizes: internals < 1";
  if leaves < 1 then invalid_arg "Synthesis.level_sizes: leaves < 1";
  if internals = 1 then [ 1 ]
  else begin
    let ladder m =
      (* Geometric ladder 1, ..., m with growth <= fanout_target. *)
      let rec up sizes size =
        if size = 1 then sizes
        else
          let above = (size + fanout_target - 1) / fanout_target in
          up (above :: sizes) above
      in
      up [ m ] m
    in
    let target_m = max 1 (min leaves ((leaves + 2) / 4)) in
    let rec fit m =
      if m <= 1 then [ 1 ]
      else
        let l = ladder m in
        if List.fold_left ( + ) 0 l <= internals then l else fit (m - 1)
    in
    let base = fit (min target_m (internals - 1)) in
    let base = if List.length base = 1 then [ 1; internals - 1 ] else base in
    let sum = List.fold_left ( + ) 0 base in
    let slack = internals - sum in
    if slack < 0 then [ 1; internals - 1 ]
    else begin
      let m = List.nth base (List.length base - 1) in
      let full = slack / m and rem = slack mod m in
      (* Insert [full] repeater levels of size m above the deepest level,
         then slot a level of size [rem] at the unique position that keeps
         the sizes non-decreasing from root to leaves (a level must not be
         larger than the one below it). *)
      let rec add_full k sizes =
        if k = 0 then sizes
        else
          match List.rev sizes with
          | deepest :: above_rev ->
            add_full (k - 1) (List.rev (deepest :: deepest :: above_rev))
          | [] -> assert false
      in
      let with_full = add_full full base in
      if rem = 0 then with_full
      else begin
        let rec slot = function
          | [] -> [ rem ]
          | next :: rest when rem <= next -> rem :: next :: rest
          | next :: rest -> next :: slot rest
        in
        match with_full with
        | root :: rest -> root :: slot rest
        | [] -> assert false
      end
    end
  end

(* Recursively split [count] geographic groups out of a point set, median
   cuts along the longer axis, group sizes proportional to the requested
   group counts. *)
let partition points indices count =
  let rec go indices count =
    if count = 1 then [ indices ]
    else begin
      let xs = Array.map (fun i -> fst points.(i)) indices in
      let ys = Array.map (fun i -> snd points.(i)) indices in
      let x0, x1 = Repro_util.Stats.min_max xs in
      let y0, y1 = Repro_util.Stats.min_max ys in
      let key =
        if x1 -. x0 >= y1 -. y0 then fun i -> fst points.(i)
        else fun i -> snd points.(i)
      in
      let sorted = Array.copy indices in
      Array.sort (fun a b -> Float.compare (key a) (key b)) sorted;
      let c1 = count / 2 in
      let c2 = count - c1 in
      let n = Array.length sorted in
      let n1 = max c1 (min (n - c2) (n * c1 / count)) in
      go (Array.sub sorted 0 n1) c1 @ go (Array.sub sorted n1 (n - n1)) c2
    end
  in
  go indices count

let manhattan x0 y0 x1 y1 = Float.abs (x1 -. x0) +. Float.abs (y1 -. y0)

(* Smallest buffer whose RC stage delay stays within a generous budget:
   commercial CTS trades stage delay for area/power, and oversized
   internal buffers would make the non-leaf current spike dominate the
   chip peak (the paper's premise is that the leaves dominate, [24]). *)
let smallest_drive_for load =
  let ok drive = 0.69 *. (6.36 /. float_of_int drive) *. load <= 28.0 in
  let rec pick = function
    | [] -> 32
    | d :: rest -> if ok d then d else pick rest
  in
  pick [ 4; 8; 16; 32 ]

let build ~rng sinks ~internals =
  ignore rng;
  if internals < 1 then invalid_arg "Synthesis.build: internals < 1";
  let n_sinks = Array.length sinks in
  if n_sinks = 0 then invalid_arg "Synthesis.build: no sinks";
  let sizes = level_sizes ~internals ~leaves:n_sinks in
  let sink_points = Array.map (fun s -> (s.Placement.x, s.Placement.y)) sinks in
  let centroid pts members =
    if Array.length members = 0 then invalid_arg "Synthesis.build: empty group";
    let n = float_of_int (Array.length members) in
    let sx = Array.fold_left (fun a i -> a +. fst pts.(i)) 0.0 members in
    let sy = Array.fold_left (fun a i -> a +. snd pts.(i)) 0.0 members in
    (sx /. n, sy /. n)
  in
  (* Bottom-up clustering: group sinks under the deepest level, then each
     level's taps under the level above.  levels entries are
     (x, y, members) where members index the level below (the deepest
     level's members index the sinks). *)
  let deepest_size = List.nth sizes (List.length sizes - 1) in
  let sink_groups =
    partition sink_points (Array.init n_sinks (fun i -> i)) deepest_size
  in
  let deepest_level =
    Array.of_list
      (List.map
         (fun members ->
           let x, y = centroid sink_points members in
           (x, y, members))
         sink_groups)
  in
  let rec build_up levels below_level = function
    | [] -> levels
    | size :: above_sizes ->
      let below_points = Array.map (fun (x, y, _) -> (x, y)) below_level in
      let groups =
        partition below_points
          (Array.init (Array.length below_level) (fun i -> i))
          size
      in
      let level =
        Array.of_list
          (List.map
             (fun members ->
               let x, y = centroid below_points members in
               (x, y, members))
             groups)
      in
      build_up (level :: levels) level above_sizes
  in
  let upper_sizes = List.rev (List.tl (List.rev sizes)) in
  let levels =
    Array.of_list (build_up [ deepest_level ] deepest_level (List.rev upper_sizes))
  in
  let num_levels = Array.length levels in
  (* Assign ids: internal taps level by level (root first), then leaves. *)
  let offsets = Array.make num_levels 0 in
  let running = ref 0 in
  Array.iteri
    (fun k level ->
      offsets.(k) <- !running;
      running := !running + Array.length level)
    levels;
  let leaf_offset = !running in
  let total = leaf_offset + n_sinks in
  let parent = Array.make total None in
  let children = Array.make total [] in
  let pos = Array.make total (0.0, 0.0) in
  let wire_len = Array.make total 0.0 in
  let kind = Array.make total Tree.Internal in
  let sink_cap = Array.make total 0.0 in
  Array.iteri
    (fun k level ->
      Array.iteri
        (fun j (x, y, members) ->
          let id = offsets.(k) + j in
          pos.(id) <- (x, y);
          let attach cid cx cy =
            parent.(cid) <- Some id;
            pos.(cid) <- (cx, cy);
            wire_len.(cid) <- manhattan x y cx cy;
            children.(id) <- cid :: children.(id)
          in
          if k = num_levels - 1 then
            Array.iter
              (fun sink_idx ->
                let cid = leaf_offset + sink_idx in
                kind.(cid) <- Tree.Leaf;
                sink_cap.(cid) <- sinks.(sink_idx).Placement.cap;
                attach cid sinks.(sink_idx).Placement.x
                  sinks.(sink_idx).Placement.y)
              members
          else
            Array.iter
              (fun below_j ->
                let cid = offsets.(k + 1) + below_j in
                let bx, by, _ = levels.(k + 1).(below_j) in
                attach cid bx by)
              members)
        level)
    levels;
  let children = Array.map List.rev children in
  (* Size internal cells level by level, deepest first, with a uniform
     drive per level (sized for the worst load in the level) so that
     same-level taps have identical intrinsic delays — the level-based
     sizing discipline of commercial CTS. *)
  let cells = Array.make total (Library.buf 8) in
  let node_load id =
    List.fold_left
      (fun acc c ->
        acc +. (Wire.cap_per_um *. wire_len.(c)) +. cells.(c).Cell.input_cap)
      0.0 children.(id)
  in
  for k = num_levels - 1 downto 0 do
    let level = levels.(k) in
    let worst = ref 0.0 in
    Array.iteri
      (fun j _ -> worst := Float.max !worst (node_load (offsets.(k) + j)))
      level;
    let drive = smallest_drive_for !worst in
    Array.iteri
      (fun j _ -> cells.(offsets.(k) + j) <- Library.buf drive)
      level
  done;
  let nodes =
    Array.init total (fun id ->
        {
          Tree.id;
          parent = parent.(id);
          children = children.(id);
          kind = kind.(id);
          x = fst pos.(id);
          y = snd pos.(id);
          wire = Wire.of_length wire_len.(id);
          sink_cap = sink_cap.(id);
          default_cell = cells.(id);
        })
  in
  Tree.create nodes

let rebuild_with_lengths tree lengths =
  let nodes =
    Array.map
      (fun nd -> { nd with Tree.wire = Wire.of_length lengths.(nd.Tree.id) })
      (Tree.nodes tree)
  in
  Tree.create nodes

(* Extra Elmore delay contributed by a leaf net of length [len] into an
   input pin [cin]: r*len * (c*len/2 + cin). *)
let snake_delay len ~cin =
  Wire.res_per_um *. len *. ((Wire.cap_per_um *. len /. 2.0) +. cin)

(* Smallest length whose snake_delay is [target]. *)
let length_for_delay target ~cin =
  let a = Wire.res_per_um *. Wire.cap_per_um /. 2.0 in
  let b = Wire.res_per_um *. cin in
  ((-.b) +. sqrt ((b *. b) +. (4.0 *. a *. target))) /. (2.0 *. a)

(* Sibling-relative delay balancing, the bottom-up discipline of DME:
   every child net is snaked so that its subtree's slowest sink matches
   the slowest sibling subtree.  The wire capacitance a snake adds slows
   the shared parent, but that shift is common to all siblings and hence
   skew-neutral; residual cross-parent differences are what the next
   iteration (driven by fresh timing) removes. *)
let equalize_skew tree =
  let env = Timing.nominal () in
  let rec iterate tree k best best_skew =
    let asg = Assignment.default tree ~num_modes:1 in
    let res = Timing.analyze tree asg env ~edge:Repro_cell.Electrical.Rising in
    let skew = Timing.skew tree res in
    let best, best_skew =
      if skew < best_skew then (tree, skew) else (best, best_skew)
    in
    if skew <= target_skew || k >= max_iterations then best
    else begin
      let n = Tree.size tree in
      (* Slowest sink arrival in each node's subtree. *)
      let subtree_max = Array.make n neg_infinity in
      let order = Tree.topological_order tree in
      for i = n - 1 downto 0 do
        let nd = Tree.node tree order.(i) in
        match nd.Tree.kind with
        | Tree.Leaf -> subtree_max.(nd.Tree.id) <- res.Timing.sink_arrival.(nd.Tree.id)
        | Tree.Internal ->
          subtree_max.(nd.Tree.id) <-
            List.fold_left
              (fun acc c -> Float.max acc subtree_max.(c))
              neg_infinity nd.Tree.children
      done;
      let lengths =
        Array.map (fun nd -> nd.Tree.wire.Wire.length) (Tree.nodes tree)
      in
      Array.iter
        (fun nd ->
          match nd.Tree.kind with
          | Tree.Leaf -> ()
          | Tree.Internal ->
            let slowest =
              List.fold_left
                (fun acc c -> Float.max acc subtree_max.(c))
                neg_infinity nd.Tree.children
            in
            List.iter
              (fun c ->
                let deficit = slowest -. subtree_max.(c) in
                if deficit > 0.1 then begin
                  let cin = (Assignment.cell asg c).Cell.input_cap in
                  let current = snake_delay lengths.(c) ~cin in
                  let wanted = current +. (0.7 *. deficit) in
                  let len =
                    Float.min max_snake (length_for_delay wanted ~cin)
                  in
                  lengths.(c) <- Float.max lengths.(c) len
                end)
              nd.Tree.children)
        (Tree.nodes tree);
      iterate (rebuild_with_lengths tree lengths) (k + 1) best best_skew
    end
  in
  iterate tree 0 tree infinity

let synthesize ~rng sinks ~internals =
  equalize_skew (build ~rng sinks ~internals)

let nominal_skew tree =
  let asg = Assignment.default tree ~num_modes:1 in
  let res =
    Timing.analyze tree asg (Timing.nominal ()) ~edge:Repro_cell.Electrical.Rising
  in
  Timing.skew tree res
