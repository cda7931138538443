module Layered = Repro_mosp.Layered
module Pareto = Repro_mosp.Pareto

type arc = { src : int; dst : int; weight : float array }

type t = {
  n : int;
  dim : int;
  out : (int * float array) list array; (* out.(v) = (dst, weight) *)
  in_degree : int array;
  arcs : int;
  topo : int array;
}

let create ~num_vertices ~arcs =
  if num_vertices < 1 then invalid_arg "Dag.create: num_vertices < 1";
  let dim =
    match arcs with [] -> 0 | a :: _ -> Array.length a.weight
  in
  let out = Array.make num_vertices [] in
  let in_degree = Array.make num_vertices 0 in
  List.iter
    (fun a ->
      if a.src < 0 || a.src >= num_vertices || a.dst < 0 || a.dst >= num_vertices
      then invalid_arg "Dag.create: arc endpoint out of range";
      if a.src = a.dst then invalid_arg "Dag.create: self loop";
      if Array.length a.weight <> dim then
        invalid_arg "Dag.create: inconsistent weight dimension";
      if Array.exists (fun w -> w < 0.0) a.weight then
        invalid_arg "Dag.create: negative weight component";
      out.(a.src) <- (a.dst, a.weight) :: out.(a.src);
      in_degree.(a.dst) <- in_degree.(a.dst) + 1)
    arcs;
  (* Kahn's algorithm: also detects cycles. *)
  let topo = Array.make num_vertices (-1) in
  let deg = Array.copy in_degree in
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) deg;
  let pos = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    topo.(!pos) <- v;
    incr pos;
    List.iter
      (fun (u, _) ->
        deg.(u) <- deg.(u) - 1;
        if deg.(u) = 0 then Queue.add u queue)
      out.(v)
  done;
  if !pos <> num_vertices then invalid_arg "Dag.create: graph has a cycle";
  { n = num_vertices; dim; out; in_degree; arcs = List.length arcs; topo }

let num_vertices t = t.n
let num_arcs t = t.arcs
let dimension t = t.dim
let topological_order t = Array.copy t.topo

type path = { vertices : int list; cost : float array }

let check_vertex t name v =
  if v < 0 || v >= t.n then invalid_arg ("Dag." ^ name ^ ": vertex out of range")

(* Per-objective lower bound from each vertex to [dst] (used for the
   ε-grid scaling and the admissible truncation rank): reverse-topo DP
   over component-wise minima. *)
let suffix_minima t ~dst =
  let inf = Array.make t.dim infinity in
  let best = Array.make t.n inf in
  best.(dst) <- Array.make t.dim 0.0;
  for i = t.n - 1 downto 0 do
    let v = t.topo.(i) in
    List.iter
      (fun (u, w) ->
        if best.(u) != inf || u = dst then begin
          let cand =
            Array.init t.dim (fun k -> w.(k) +. best.(u).(k))
          in
          if best.(v) == inf then best.(v) <- cand
          else
            best.(v) <-
              Array.init t.dim (fun k -> Float.min best.(v).(k) cand.(k))
        end)
      t.out.(v)
  done;
  best

let pareto_paths ?(epsilon = 0.01) ?(max_labels = 20_000) t ~src ~dst =
  if epsilon < 0.0 then invalid_arg "Dag.pareto_paths: epsilon < 0";
  if max_labels < 1 then invalid_arg "Dag.pareto_paths: max_labels < 1";
  check_vertex t "pareto_paths" src;
  check_vertex t "pareto_paths" dst;
  if t.dim = 0 then
    if src = dst then [ { vertices = [ src ]; cost = [||] } ] else []
  else begin
    let suffix = suffix_minima t ~dst in
    let reachable v = Float.is_finite suffix.(v).(0) || v = dst in
    let deltas =
      let lb = suffix.(src) in
      Array.map
        (fun l ->
          if Float.is_finite l then epsilon *. l /. float_of_int (t.n + 1)
          else 0.0)
        lb
    in
    (* labels.(v): non-dominated (cost, reversed vertex list) at v. *)
    let labels : Pareto.label list array = Array.make t.n [] in
    labels.(src) <-
      [ { Pareto.cost = Array.make t.dim 0.0; choices_rev = [ src ] } ];
    let truncate v ls =
      if List.length ls <= max_labels then ls
      else begin
        let project (l : Pareto.label) =
          let m = ref 0.0 in
          Array.iteri
            (fun k c ->
              let s = suffix.(v).(k) in
              let x = if Float.is_finite s then c +. s else c in
              if x > !m then m := x)
            l.Pareto.cost;
          !m
        in
        let arr = Array.of_list (List.map (fun l -> (project l, l)) ls) in
        Array.sort (fun ((a : float), _) (b, _) -> compare a b) arr;
        Array.to_list (Array.map snd (Array.sub arr 0 max_labels))
      end
    in
    Array.iter
      (fun v ->
        if labels.(v) <> [] && reachable v then begin
          let pruned = Pareto.grid_prune ~deltas labels.(v) in
          let pruned =
            if t.dim <= 8 && List.length pruned <= 256 then
              Pareto.non_dominated pruned
            else pruned
          in
          let pruned = truncate v pruned in
          labels.(v) <- pruned;
          if v <> dst then
            List.iter
              (fun (u, w) ->
                if reachable u then
                  let extended =
                    List.map
                      (fun (l : Pareto.label) ->
                        {
                          Pareto.cost =
                            Array.init t.dim (fun k -> l.Pareto.cost.(k) +. w.(k));
                          choices_rev = u :: l.Pareto.choices_rev;
                        })
                      labels.(v)
                  in
                  labels.(u) <- List.rev_append extended labels.(u))
              t.out.(v)
        end)
      t.topo;
    List.map
      (fun (l : Pareto.label) ->
        { vertices = List.rev l.Pareto.choices_rev; cost = l.Pareto.cost })
      labels.(dst)
  end

let min_max_path ?epsilon ?max_labels t ~src ~dst =
  match pareto_paths ?epsilon ?max_labels t ~src ~dst with
  | [] -> None
  | paths ->
    let worst p = Array.fold_left Float.max 0.0 p.cost in
    Some
      (List.fold_left
         (fun best p -> if worst p < worst best then p else best)
         (List.hd paths) (List.tl paths))

let of_layered graph =
  let rows = Layered.options graph in
  let dim = Layered.dimension graph in
  let offsets = Array.make (Array.length rows) 0 in
  let counter = ref 1 in
  Array.iteri
    (fun i row ->
      offsets.(i) <- !counter;
      counter := !counter + Array.length row)
    rows;
  let dst = !counter in
  let arcs = ref [] in
  (* src -> first row. *)
  (match Array.length rows with
  | 0 -> arcs := [ { src = 0; dst; weight = Array.copy (Layered.dest_weight graph) } ]
  | nrows ->
    Array.iteri
      (fun c w -> arcs := { src = 0; dst = offsets.(0) + c; weight = Array.copy w } :: !arcs)
      rows.(0);
    for i = 0 to nrows - 2 do
      Array.iteri
        (fun c' w ->
          for c = 0 to Array.length rows.(i) - 1 do
            arcs :=
              { src = offsets.(i) + c; dst = offsets.(i + 1) + c';
                weight = Array.copy w }
              :: !arcs
          done)
        rows.(i + 1)
    done;
    let last = nrows - 1 in
    for c = 0 to Array.length rows.(last) - 1 do
      arcs :=
        { src = offsets.(last) + c; dst;
          weight = Array.copy (Layered.dest_weight graph) }
        :: !arcs
    done);
  ignore dim;
  (create ~num_vertices:(dst + 1) ~arcs:!arcs, 0, dst)
