module Cell = Repro_cell.Cell
module Assignment = Repro_clocktree.Assignment
module Verrors = Repro_util.Verrors
module Rng = Repro_util.Rng
module Trace = Repro_obs.Trace
module Anneal = Repro_sa.Anneal
module Eval = Repro_sa.Eval

type config = {
  seed : int;
  max_classes : int;
  anneal : Anneal.config;
}

let default_config =
  { seed = 1; max_classes = 4; anneal = Anneal.default_config }

let warm_config = { default_config with anneal = Anneal.quench_config }

type stats = {
  zones : int;
  proposed : int;
  accepted : int;
  rejected : int;
  flips : int;
  resizes : int;
  pairs : int;
  restarts : int;
}

let stats_of_anneal zones (a : Anneal.stats) =
  {
    zones;
    proposed = a.Anneal.proposed;
    accepted = a.Anneal.accepted;
    rejected = a.Anneal.rejected;
    flips = a.Anneal.flips;
    resizes = a.Anneal.resizes;
    pairs = a.Anneal.pairs;
    restarts = a.Anneal.restarts_done;
  }

let problem_of (table : Noise_table.t) ~avail =
  {
    Eval.rows = table.Noise_table.noise;
    base = table.Noise_table.nonleaf;
    avail;
  }

(* Move tags: the flip class is the cell polarity, the resize axis is
   drive strength refined by the adjustable-delay step, so a resize
   walks the size/delay ladder without changing polarity. *)
let tags_of (table : Noise_table.t) =
  Array.map
    (fun (sink : Intervals.sink) ->
      Array.map
        (fun (c : Intervals.candidate) ->
          {
            Anneal.group =
              (match Cell.polarity c.Intervals.cell with
              | Cell.Positive -> 0
              | Cell.Negative -> 1);
            size =
              (float_of_int c.Intervals.cell.Cell.drive *. 1e6)
              +. c.Intervals.extra;
          })
        sink.Intervals.candidates)
    table.Noise_table.sinks

let first_available ~stage (avail : bool array) =
  let rec find i =
    if i >= Array.length avail then
      invalid_arg (stage ^ ": sink without available candidate")
    else if avail.(i) then i
    else find (i + 1)
  in
  find 0

(* Cold start: every sink at its first admitted candidate (the library
   order is deterministic). *)
let cold_init (table : Noise_table.t) ~avail =
  ignore table;
  Array.map (first_available ~stage:"Clk_sa.cold_init") avail

(* Warm start: map the previous assignment of each sink back to a
   candidate index.  The exact (cell, extra) pair may not be admitted
   by this interval class; prefer an exact match, then the same cell at
   the nearest extra-delay step, then the first available candidate. *)
let warm_init (ctx : Context.t) (table : Noise_table.t) ~avail ~previous =
  Array.mapi
    (fun zi (sink : Intervals.sink) ->
      let prev_cell = Assignment.cell previous sink.Intervals.leaf_id in
      let prev_extra =
        if Cell.is_adjustable prev_cell then
          Assignment.extra_delay previous ~mode:ctx.Context.env.Repro_clocktree.Timing.mode
            sink.Intervals.leaf_id
        else 0.0
      in
      let best = ref (-1) and best_gap = ref infinity in
      Array.iteri
        (fun ci (c : Intervals.candidate) ->
          if avail.(zi).(ci) && Cell.equal c.Intervals.cell prev_cell then begin
            let gap = Float.abs (c.Intervals.extra -. prev_extra) in
            if gap < !best_gap then begin
              best := ci;
              best_gap := gap
            end
          end)
        sink.Intervals.candidates;
      if !best >= 0 then !best
      else first_available ~stage:"Clk_sa.warm_init" avail.(zi))
    table.Noise_table.sinks

let optimize_stats ?(config = default_config) ?warm (ctx : Context.t) =
  Trace.with_span ~name:"clk_sa.optimize" @@ fun () ->
  let classes =
    List.filteri (fun i _ -> i < config.max_classes) ctx.Context.classes
  in
  let tables = ctx.Context.tables in
  let nzones = Array.length tables in
  (* One stats slot per (class, zone), each written by its own task and
     folded in index order after the search: deterministic at any job
     count. *)
  let slots = Array.make (List.length classes * nzones) Anneal.zero_stats in
  let best =
    (* The anneal's stream depends on the class index, so the memo key
       carries it: no zone result is shared across classes and no class
       is skipped. *)
    Context.search_classes ~span:"clk_sa.class" ~zone_label:"clk_sa.zone_solve"
      ~num_zones:nzones
      ~zone_sinks:(fun zi -> Array.length tables.(zi).Noise_table.sinks)
      ~dof:(fun (_, (cls : Context.interval_class)) ->
        cls.Context.degree_of_freedom)
      ~zone_key:(fun (cls_idx, (cls : Context.interval_class)) zi ->
        (cls_idx, Context.zone_avail ctx cls.Context.avail tables.(zi)))
      ~solve_zone:(fun _ zi (cls_idx, avail) ->
        let table = tables.(zi) in
        let init =
          match warm with
          | Some previous -> warm_init ctx table ~avail ~previous
          | None -> cold_init table ~avail
        in
        (* One Rng.of_instance stream per (class, zone): bit-identical
           randomness no matter how zones are chunked across domains. *)
        let rng = Rng.of_instance ~seed:config.seed ((cls_idx * nzones) + zi) in
        let choices, _obj, stats =
          Anneal.solve ~zone:zi ~config:config.anneal (problem_of table ~avail)
            ~tags:(tags_of table) ~init ~rng
        in
        slots.((cls_idx * nzones) + zi) <- stats;
        (* Class selection uses the exact table objective, the same
           yardstick every other solver is measured by. *)
        (choices, Noise_table.zone_objective table ~choices))
      ~peak:snd ~capped:(fun _ -> false)
      (List.mapi (fun i cls -> (i, cls)) classes)
  in
  match best with
  | None ->
    raise
      (Verrors.Error
         (Context.infeasible_window ctx.Context.params ~stage:"clk_sa.optimize"
            (Context.Sinks ctx.Context.sinks)))
  | Some ((_, cls), peak, per_zone) ->
    ( {
        Context.assignment =
          Context.apply_choices ctx (Array.map fst per_zone);
        interval = cls.Context.interval;
        predicted_peak_ua = peak;
        zone_peaks = Array.map snd per_zone;
        approximate = false;
      },
      stats_of_anneal (Array.length slots)
        (Array.fold_left Anneal.add_stats Anneal.zero_stats slots) )

let optimize ctx = fst (optimize_stats ctx)
