module Verrors = Repro_util.Verrors
module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell
module Layered = Repro_mosp.Layered
module Warburton = Repro_mosp.Warburton
module Trace = Repro_obs.Trace
module Par = Repro_par.Par

type mode = Context.mode = {
  env : Timing.env;
  timing : Timing.result;
  sinks : Intervals.sink array;
  tables : Noise_table.t array;
}

type intersection = {
  intervals : Intervals.interval array;
  cell_avail : bool array array;
  chosen_candidate : int array array array;
  degree_of_freedom : int;
}

type t = {
  tree : Tree.t;
  base : Assignment.t;
  params : Context.params;
  cell_universe : Cell.t array;
  sink_cells : bool array array;
  zones : Zones.t;
  modes : mode array;
  intersections : intersection list;
}

(* Per mode and interval: which universe cells are admitted per sink, and
   via which (minimal-arrival) candidate. *)
let mode_cell_admission universe (sinks : Intervals.sink array) interval =
  let num_cells = Array.length universe in
  let admit = Array.make_matrix (Array.length sinks) num_cells false in
  let via =
    Array.init (Array.length sinks) (fun _ -> Array.make num_cells (-1))
  in
  Array.iteri
    (fun row (s : Intervals.sink) ->
      Array.iteri
        (fun ci (c : Intervals.candidate) ->
          if
            c.Intervals.arrival >= interval.Intervals.lo -. 1e-9
            && c.Intervals.arrival <= interval.Intervals.hi +. 1e-9
          then begin
            match
              Array.to_list universe
              |> List.mapi (fun k cell -> (k, cell))
              |> List.find_opt (fun (_, cell) -> Cell.equal cell c.Intervals.cell)
            with
            | None -> ()
            | Some (k, _) ->
              if
                via.(row).(k) < 0
                || s.Intervals.candidates.(via.(row).(k)).Intervals.arrival
                   > c.Intervals.arrival
              then via.(row).(k) <- ci;
              admit.(row).(k) <- true
          end)
        s.Intervals.candidates)
    sinks;
  (admit, via)

let per_mode_interval_cap = 10

(* The one guard-dependent step: per-mode feasible intervals at the
   effective kappa, then their feasible cross-mode intersections. *)
let intersections t =
  let params = t.params in
  let effective_kappa = Context.effective_kappa params in
  (* Per-mode feasible intervals, deduplicated at the cell level and
     capped by DoF. *)
  let per_mode_intervals =
    Array.map
      (fun md ->
        let ivs =
          Intervals.feasible_intervals ~coalesce:params.Context.coalesce
            md.sinks ~kappa:effective_kappa
        in
        let seen = Hashtbl.create 16 in
        let described =
          List.filter_map
            (fun iv ->
              let admit, via = mode_cell_admission t.cell_universe md.sinks iv in
              let key = Intervals.signature admit in
              if Hashtbl.mem seen key then None
              else begin
                Hashtbl.add seen key ();
                Some (iv, admit, via, Context.degree_of_freedom admit)
              end)
            ivs
        in
        let described =
          List.sort (fun (_, _, _, a) (_, _, _, b) -> Int.compare b a) described
        in
        List.filteri (fun i _ -> i < per_mode_interval_cap) described)
      t.modes
  in
  (* Cartesian product of per-mode intervals -> feasible intersections.
     The per-mode lists are DoF-capped, so additionally force in, per
     mode, the TRIVIAL window anchored at the maximum base-assignment
     arrival: the combo of trivial windows always admits keeping every
     sink's current cell (the paper's guaranteed solution after ADB
     embedding), so it must never be pruned away. *)
  let num_rows = Array.length t.sink_cells in
  let num_cells = Array.length t.cell_universe in
  let trivial_described =
    Array.mapi
      (fun m md ->
        let hi =
          Array.fold_left
            (fun acc (s : Intervals.sink) ->
              let base_cell = Assignment.cell t.base s.Intervals.leaf_id in
              let extra =
                Assignment.extra_delay t.base ~mode:m s.Intervals.leaf_id
              in
              let arrival =
                Array.fold_left
                  (fun best (c : Intervals.candidate) ->
                    if
                      Cell.equal c.Intervals.cell base_cell
                      && Float.abs (c.Intervals.extra -. extra) < 1e-9
                    then c.Intervals.arrival
                    else best)
                  nan s.Intervals.candidates
              in
              if Float.is_nan arrival then acc else Float.max acc arrival)
            neg_infinity md.sinks
        in
        let iv = { Intervals.lo = hi -. effective_kappa; hi } in
        let admit, via = mode_cell_admission t.cell_universe md.sinks iv in
        (iv, admit, via, Context.degree_of_freedom admit))
      t.modes
  in
  let per_mode_intervals =
    Array.mapi
      (fun m described -> trivial_described.(m) :: described)
      per_mode_intervals
  in
  let rec product = function
    | [] -> [ [] ]
    | choices :: rest ->
      let tails = product rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices
  in
  let combos = product (Array.to_list per_mode_intervals) in
  let seen = Hashtbl.create 64 in
  let intersections =
    List.filter_map
      (fun combo ->
        let combo = Array.of_list combo in
        let cell_avail =
          Array.init num_rows (fun row ->
              Array.init num_cells (fun k ->
                  t.sink_cells.(row).(k)
                  && Array.for_all
                       (fun (_, admit, _, _) -> admit.(row).(k))
                       combo))
        in
        let ok =
          Array.for_all (fun row -> Array.exists (fun b -> b) row) cell_avail
        in
        if not ok then None
        else begin
          let key = Intervals.signature cell_avail in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            let chosen_candidate =
              Array.map (fun (_, _, via, _) -> via) combo
            in
            Some
              {
                intervals = Array.map (fun (iv, _, _, _) -> iv) combo;
                cell_avail;
                chosen_candidate;
                degree_of_freedom = Context.degree_of_freedom cell_avail;
              }
          end
        end)
      combos
  in
  let intersections =
    List.sort
      (fun a b -> Int.compare b.degree_of_freedom a.degree_of_freedom)
      intersections
  in
  List.filteri
    (fun i _ -> i < params.Context.max_interval_classes)
    intersections

let create ?(params = Context.default_params) ?cells_of tree ~base ~envs ~cells =
  if Array.length envs = 0 then invalid_arg "Multimode.create: no modes";
  if Array.length envs <> Assignment.num_modes base then
    invalid_arg "Multimode.create: envs/assignment mode count mismatch";
  if cells = [] then invalid_arg "Multimode.create: empty cell library";
  let cells_of =
    match cells_of with Some f -> f | None -> fun _ -> cells
  in
  (* The cell universe is the union of the per-leaf libraries. *)
  let leaves = Tree.leaves tree in
  let universe = ref [] in
  Array.iter
    (fun nd ->
      List.iter
        (fun c ->
          if not (List.exists (Cell.equal c) !universe) then
            universe := c :: !universe)
        (cells_of nd.Tree.id))
    leaves;
  let cell_universe = Array.of_list (List.rev !universe) in
  let sink_cells =
    Array.map
      (fun nd ->
        let lib = cells_of nd.Tree.id in
        Array.map (fun cell -> List.exists (Cell.equal cell) lib) cell_universe)
      leaves
  in
  let zones = Zones.partition tree ~side:params.Context.zone_side in
  (* Each mode is the single-mode build under its own environment; its
     noise tables fan out over the zones. *)
  let modes =
    Array.mapi
      (fun m env ->
        if env.Timing.mode <> m then
          invalid_arg "Multimode.create: env.mode must equal its index";
        Context.build_mode params tree ~base ~zones ~cells_of env)
      envs
  in
  let t =
    { tree; base; params; cell_universe; sink_cells; zones; modes;
      intersections = [] }
  in
  { t with intersections = intersections t }

let with_sibling_guard t sibling_guard =
  let t = { t with params = { t.params with Context.sibling_guard } } in
  { t with intersections = intersections t }

let feasible t = t.intersections <> []

type outcome = {
  assignment : Assignment.t;
  intersection : intersection;
  predicted_peak_ua : float;
  zone_peaks : float array;
  approximate : bool;
}

(* Solve one zone under one intersection: returns (universe cell index per
   zone sink, zone peak estimate). *)
let solve_zone t inter zi =
  let table0 = t.modes.(0).tables.(zi) in
  let rows = table0.Noise_table.sink_rows in
  let num_modes = Array.length t.modes in
  let admitted_cells =
    Array.map
      (fun row ->
        let cells = ref [] in
        Array.iteri
          (fun k ok -> if ok then cells := k :: !cells)
          inter.cell_avail.(row);
        Array.of_list (List.rev !cells))
      rows
  in
  let weight_of zrow row k =
    Array.concat
      (Array.to_list
         (Array.init num_modes (fun m ->
              let ci = inter.chosen_candidate.(m).(row).(k) in
              assert (ci >= 0);
              t.modes.(m).tables.(zi).Noise_table.noise.(zrow).(ci))))
  in
  let options =
    Array.mapi
      (fun zrow row ->
        Array.map (fun k -> weight_of zrow row k) admitted_cells.(zrow))
      rows
  in
  let dest_weight =
    Array.concat
      (Array.to_list
         (Array.init num_modes (fun m ->
              t.modes.(m).tables.(zi).Noise_table.nonleaf)))
  in
  let graph = Layered.create ~options ~dest_weight in
  let solution =
    Warburton.solve_min_max ~epsilon:t.params.Context.epsilon
      ~max_labels:t.params.Context.max_labels graph
  in
  let cells_chosen =
    Array.mapi
      (fun zrow opt -> admitted_cells.(zrow).(opt))
      solution.Warburton.choices
  in
  (cells_chosen, solution.Warburton.objective, solution.Warburton.capped)

let apply t inter per_zone_cells =
  let asg = ref t.base in
  Array.iteri
    (fun zi cells_chosen ->
      let table0 = t.modes.(0).tables.(zi) in
      Array.iteri
        (fun zrow k ->
          let row = table0.Noise_table.sink_rows.(zrow) in
          let leaf = t.modes.(0).sinks.(row).Intervals.leaf_id in
          let cell = t.cell_universe.(k) in
          asg := Assignment.set_cell !asg leaf cell;
          if Cell.is_adjustable cell then
            Array.iteri
              (fun m _ ->
                let ci = inter.chosen_candidate.(m).(row).(k) in
                let cand = t.modes.(m).sinks.(row).Intervals.candidates.(ci) in
                asg :=
                  Assignment.set_extra_delay !asg ~mode:m leaf
                    cand.Intervals.extra)
              t.modes)
        cells_chosen)
    per_zone_cells;
  !asg

(* Everything [solve_zone t inter zi] reads of [inter]: per zone row and
   mode, the candidate admitting each universe cell, or -1. *)
let zone_key t inter zi =
  let num_cells = Array.length t.cell_universe in
  Array.map
    (fun row ->
      Array.init
        (Array.length t.modes * num_cells)
        (fun j ->
          let k = j mod num_cells in
          if inter.cell_avail.(row).(k) then
            inter.chosen_candidate.(j / num_cells).(row).(k)
          else -1))
    t.modes.(0).tables.(zi).Noise_table.sink_rows

let solve t =
  Trace.with_span ~name:"multimode.solve"
    ~attrs:[ ("intersections", string_of_int (List.length t.intersections)) ]
  @@ fun () ->
  let best =
    Context.search_classes ~span:"multimode.intersection"
      ~zone_label:"multimode.zone_solve" ~num_zones:(Zones.num_zones t.zones)
      ~zone_sinks:(fun zi ->
        Array.length t.modes.(0).tables.(zi).Noise_table.sinks)
      ~dof:(fun inter -> inter.degree_of_freedom)
      ~zone_key:(zone_key t)
      ~solve_zone:(fun inter zi _ -> solve_zone t inter zi)
      ~peak:(fun (_, p, _) -> p)
      ~capped:(fun (_, _, c) -> c)
      t.intersections
  in
  match best with
  | None ->
    raise
      (Verrors.Error
         (Context.infeasible_window t.params ~stage:"multimode.solve"
            (Context.Modes (Array.map (fun md -> md.sinks) t.modes))))
  | Some (inter, peak, per_zone) ->
    {
      assignment = apply t inter (Array.map (fun (c, _, _) -> c) per_zone);
      intersection = inter;
      predicted_peak_ua = peak;
      zone_peaks = Array.map (fun (_, p, _) -> p) per_zone;
      approximate = Array.exists (fun (_, _, capped) -> capped) per_zone;
    }

let degree_of_freedom_table t =
  List.map
    (fun inter ->
      let per_zone =
        Par.parallel_init ~label:"multimode.zone_solve"
          (Zones.num_zones t.zones) (solve_zone t inter)
      in
      ( inter.degree_of_freedom,
        Array.fold_left (fun acc (_, p, _) -> Float.max acc p) 0.0 per_zone ))
    t.intersections
