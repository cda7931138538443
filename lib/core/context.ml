module Verrors = Repro_util.Verrors
module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell
module Electrical = Repro_cell.Electrical
module Obs_metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Flight = Repro_obs.Flight
module Obs_clock = Repro_obs.Clock
module Par = Repro_par.Par

module Log = (val Logs.src_log (Repro_obs.Log.src "wavemin.context"))

let sinks_g = Obs_metrics.gauge "context.sinks"
let zones_g = Obs_metrics.gauge "context.zones"
let classes_g = Obs_metrics.gauge "context.interval_classes"
let feasible_intervals_g = Obs_metrics.gauge "context.feasible_intervals"

type params = {
  kappa : float;
  epsilon : float;
  num_slots : int;
  zone_side : float;
  max_labels : int;
  coalesce : float;
  max_interval_classes : int;
  sibling_guard : float;
}

let default_params =
  {
    kappa = 20.0;
    epsilon = 0.01;
    num_slots = 158;
    zone_side = 50.0;
    max_labels = 400;
    coalesce = 0.25;
    max_interval_classes = 16;
    sibling_guard = 4.0;
  }

type interval_class = {
  interval : Intervals.interval;
  avail : bool array array;
  degree_of_freedom : int;
}

type t = {
  tree : Tree.t;
  base : Assignment.t;
  env : Timing.env;
  timing : Timing.result;
  params : params;
  cells : Cell.t array;
  sinks : Intervals.sink array;
  zones : Zones.t;
  tables : Noise_table.t array;
  classes : interval_class list;
}

let degree_of_freedom avail =
  Array.fold_left
    (fun acc row ->
      acc + Array.fold_left (fun a b -> if b then a + 1 else a) 0 row)
    0 avail

let create ?(params = default_params) ?env ?base tree ~cells =
  if cells = [] then invalid_arg "Context.create: empty cell library";
  Trace.with_span ~name:"context.create"
    ~attrs:[ ("leaves", string_of_int (Array.length (Tree.leaves tree))) ]
  @@ fun () ->
  let env = match env with Some e -> e | None -> Timing.nominal () in
  let base =
    match base with Some a -> a | None -> Assignment.default tree ~num_modes:1
  in
  let timing, falling =
    Trace.with_span ~name:"context.timing" (fun () ->
        ( Timing.analyze tree base env ~edge:Electrical.Rising,
          Timing.analyze tree base env ~edge:Electrical.Falling ))
  in
  let sinks =
    Trace.with_span ~name:"context.sinks" (fun () ->
        Intervals.collect tree base env timing ~cells)
  in
  let zones = Zones.partition tree ~side:params.zone_side in
  let num_leaves = Array.length (Tree.leaves tree) in
  let internal_ids = Array.map (fun nd -> nd.Tree.id) (Tree.internals tree) in
  let global_internal =
    if Array.length internal_ids = 0 then
      { Electrical.idd = Repro_waveform.Pwl.zero; iss = Repro_waveform.Pwl.zero }
    else
      Waveforms.period_rail_currents tree base env ~node_ids:internal_ids
        ~period:Noise_table.default_period ()
  in
  let tables =
    Trace.with_span ~name:"context.noise_tables"
      ~attrs:[ ("zones", string_of_int (Zones.num_zones zones)) ]
    @@ fun () ->
    (* One candidate-waveform memo for all zones: a leaf lives in
       exactly one zone, so cross-zone traffic is nil, but within a zone
       every delay step of an adjustable cell shares its pulse pair. *)
    let cache = Waveforms.create_cache () in
    Par.parallel_map ~label:"context.noise_tables"
      (fun zone ->
        (* Each zone accounts for a leaf-proportional share of the
           chip-global non-leaf background; shares sum to 1, so the
           per-zone objectives jointly balance the global waveform. *)
        let share =
          float_of_int (Array.length zone.Zones.leaf_ids)
          /. float_of_int (max 1 num_leaves)
        in
        Noise_table.build tree base env ~rising:timing ~falling ~sinks ~zone
          ~num_slots:params.num_slots
          ~background:(global_internal, share) ~cache ())
      (Zones.zones zones)
  in
  let classes =
    Trace.with_span ~name:"context.interval_classes" @@ fun () ->
    let effective_kappa =
      Float.max 1.0 (params.kappa -. params.sibling_guard)
    in
    let feasible =
      Intervals.feasible_intervals ~coalesce:params.coalesce sinks
        ~kappa:effective_kappa
    in
    Obs_metrics.set feasible_intervals_g (float_of_int (List.length feasible));
    (* Flight-record which sinks bound the window: the forensic answer
       to "why is this kappa (in)feasible" in a post-mortem dump. *)
    if Flight.enabled () then begin
      match Intervals.binding_sinks sinks with
      | None -> ()
      | Some b ->
        Flight.record
          (Flight.Window
             { kappa_ps = effective_kappa;
               feasible = List.length feasible;
               min_width_ps = Intervals.min_window_width b;
               earliest_leaf = b.Intervals.earliest_leaf;
               earliest_ps = b.Intervals.earliest_ps;
               latest_leaf = b.Intervals.latest_leaf;
               latest_ps = b.Intervals.latest_ps })
    end;
    let seen = Hashtbl.create 32 in
    let classes =
      List.filter_map
        (fun interval ->
          let avail = Intervals.availability sinks interval in
          let key = Intervals.signature avail in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some
              { interval; avail; degree_of_freedom = degree_of_freedom avail }
          end)
        feasible
    in
    let classes =
      List.sort
        (fun a b -> Int.compare b.degree_of_freedom a.degree_of_freedom)
        classes
    in
    List.filteri (fun i _ -> i < params.max_interval_classes) classes
  in
  Obs_metrics.set sinks_g (float_of_int (Array.length sinks));
  Obs_metrics.set zones_g (float_of_int (Zones.num_zones zones));
  Obs_metrics.set classes_g (float_of_int (List.length classes));
  Log.debug (fun m ->
      m "context: %d sinks, %d zones, %d interval classes"
        (Array.length sinks) (Zones.num_zones zones) (List.length classes));
  {
    tree;
    base;
    env;
    timing;
    params;
    cells = Array.of_list cells;
    sinks;
    zones;
    tables;
    classes;
  }

let feasible t = t.classes <> []

type outcome = {
  assignment : Assignment.t;
  interval : Intervals.interval;
  predicted_peak_ua : float;
  zone_peaks : float array;
  approximate : bool;
}

let zone_avail t avail (table : Noise_table.t) =
  ignore t;
  Array.map (fun row -> avail.(row)) table.Noise_table.sink_rows

let apply_choices t per_zone_choices =
  let asg = ref t.base in
  Array.iteri
    (fun zi choices ->
      let table = t.tables.(zi) in
      Array.iteri
        (fun sink_idx cand_idx ->
          let sink = table.Noise_table.sinks.(sink_idx) in
          let cand = sink.Intervals.candidates.(cand_idx) in
          asg := Assignment.set_cell !asg sink.Intervals.leaf_id cand.Intervals.cell;
          if Cell.is_adjustable cand.Intervals.cell then
            asg :=
              Assignment.set_extra_delay !asg ~mode:t.env.Timing.mode
                sink.Intervals.leaf_id cand.Intervals.extra)
        choices)
    per_zone_choices;
  !asg

let solve_with t ~zone_solver =
  Trace.with_span ~name:"context.solve"
    ~attrs:[ ("classes", string_of_int (List.length t.classes)) ]
  @@ fun () ->
  let best = ref None in
  List.iteri
    (fun cls_idx cls ->
      Trace.with_span ~name:"context.class"
        ~attrs:
          [ ("index", string_of_int cls_idx);
            ("dof", string_of_int cls.degree_of_freedom) ]
      @@ fun () ->
      (* Zones are independent once the class's availability is fixed;
         results are index-addressed and label-budget charges replay in
         zone order, so the fan-out is deterministic. *)
      let per_zone =
        Par.parallel_init ~label:"context.zone_solve"
          (Array.length t.tables)
          (fun zi ->
            let table = t.tables.(zi) in
            Trace.with_span ~name:"context.zone_solve"
              ~attrs:[ ("zone", string_of_int zi) ]
            @@ fun () ->
            (* Zone_start/Zone_end bracket the solver's Label_row events
               on this domain — how `explain` attributes rows to zones. *)
            let flight = Flight.enabled () in
            let t0 = if flight then Obs_clock.now_ns () else 0L in
            if flight then
              Flight.record
                (Flight.Zone_start
                   { cls = cls_idx;
                     zone = zi;
                     sinks = Array.length table.Noise_table.sinks });
            let avail = zone_avail t cls.avail table in
            let choices, capped = zone_solver t table ~avail in
            let peak = Noise_table.zone_objective table ~choices in
            if flight then
              Flight.record
                (Flight.Zone_end
                   { cls = cls_idx;
                     zone = zi;
                     peak_ua = peak;
                     capped;
                     wall_ms =
                       Int64.to_float (Int64.sub (Obs_clock.now_ns ()) t0)
                       /. 1e6 });
            (choices, capped, peak))
      in
      let peak =
        Array.fold_left (fun acc (_, _, p) -> Float.max acc p) 0.0 per_zone
      in
      match !best with
      | Some (_, best_peak, _) when best_peak <= peak -> ()
      | Some _ | None -> best := Some (cls, peak, per_zone))
    t.classes;
  match !best with
  | None ->
    let effective_kappa =
      Float.max 1.0 (t.params.kappa -. t.params.sibling_guard)
    in
    Verrors.fail ~code:Verrors.Infeasible_window ~stage:"context.solve"
      ~hints:
        [ "widen the skew window (larger kappa) or reduce sibling_guard";
          "run `wavemin validate` for a per-sink feasibility breakdown" ]
      (Printf.sprintf
         "%s (effective kappa %.2f ps = kappa %.2f ps - sibling guard %.2f \
          ps)"
         (Intervals.infeasibility_message t.sinks ~kappa:effective_kappa)
         effective_kappa t.params.kappa t.params.sibling_guard)
  | Some (cls, peak, per_zone) ->
    let assignment =
      apply_choices t (Array.map (fun (c, _, _) -> c) per_zone)
    in
    let approximate =
      Array.exists (fun (_, capped, _) -> capped) per_zone
    in
    if approximate then
      Log.info (fun m ->
          m
            "winning interval class solved with a truncated label set; \
             the result is approximate beyond the epsilon guarantee");
    {
      assignment;
      interval = cls.interval;
      predicted_peak_ua = peak;
      zone_peaks = Array.map (fun (_, _, p) -> p) per_zone;
      approximate;
    }
