module Verrors = Repro_util.Verrors
module Cell = Repro_cell.Cell

let buckets = 512

let polarity_of (table : Noise_table.t) zi ci =
  Cell.polarity
    table.Noise_table.sinks.(zi).Intervals.candidates.(ci).Intervals.cell

let zone_balance_objective (table : Noise_table.t) ~choices =
  let pos = ref 0.0 and neg = ref 0.0 in
  Array.iteri
    (fun zi ci ->
      let p = table.Noise_table.cand_peak.(zi).(ci) in
      match polarity_of table zi ci with
      | Cell.Positive -> pos := !pos +. p
      | Cell.Negative -> neg := !neg +. p)
    choices;
  Float.max !pos !neg

(* DP over the discretized positive-rail sum: state = bucket of the
   positive sum, value = minimum achievable negative sum; backpointers
   recover the choices. *)
let zone_solver (ctx : Context.t) (table : Noise_table.t) ~avail =
  ignore ctx;
  let num_sinks = Array.length table.Noise_table.sinks in
  Array.iteri
    (fun zi row ->
      ignore zi;
      if not (Array.exists (fun b -> b) row) then
        invalid_arg "Clk_peakmin.zone_solver: sink without available candidate")
    avail;
  let max_pos =
    (* Upper bound: every sink takes its largest positive-rail peak. *)
    let acc = ref 0.0 in
    for zi = 0 to num_sinks - 1 do
      let best = ref 0.0 in
      Array.iteri
        (fun ci ok ->
          if ok then best := Float.max !best table.Noise_table.cand_peak.(zi).(ci))
        avail.(zi);
      acc := !acc +. !best
    done;
    Float.max 1.0 !acc
  in
  let width = max_pos /. float_of_int buckets in
  let bucket_of v = min buckets (int_of_float (ceil (v /. width))) in
  let nan_row () = Array.make (buckets + 1) infinity in
  let dp = ref (nan_row ()) in
  !dp.(0) <- 0.0;
  (* back.(zi).(bucket) = (previous bucket, candidate index) *)
  let back = Array.init num_sinks (fun _ -> Array.make (buckets + 1) (-1, -1)) in
  for zi = 0 to num_sinks - 1 do
    let next = nan_row () in
    Array.iteri
      (fun ci ok ->
        if ok then begin
          let p = table.Noise_table.cand_peak.(zi).(ci) in
          match polarity_of table zi ci with
          | Cell.Positive ->
            let shift = bucket_of p in
            for b = 0 to buckets - shift do
              let v = !dp.(b) in
              if v < next.(b + shift) then begin
                next.(b + shift) <- v;
                back.(zi).(b + shift) <- (b, ci)
              end
            done
          | Cell.Negative ->
            for b = 0 to buckets do
              let v = !dp.(b) +. p in
              if v < next.(b) then begin
                next.(b) <- v;
                back.(zi).(b) <- (b, ci)
              end
            done
        end)
      avail.(zi);
    dp := next
  done;
  (* Pick the final bucket minimizing max(pos, neg). *)
  let best_bucket = ref (-1) and best_obj = ref infinity in
  for b = 0 to buckets do
    let neg = !dp.(b) in
    if neg < infinity then begin
      let pos = float_of_int b *. width in
      let obj = Float.max pos neg in
      if obj < !best_obj then begin
        best_obj := obj;
        best_bucket := b
      end
    end
  done;
  assert (!best_bucket >= 0);
  let choices = Array.make num_sinks 0 in
  let b = ref !best_bucket in
  for zi = num_sinks - 1 downto 0 do
    let prev, ci = back.(zi).(!b) in
    assert (ci >= 0);
    choices.(zi) <- ci;
    b := prev
  done;
  (choices, false)

(* Class selection with the baseline's own (timing-blind) objective:
   the zone result is (choices, balance objective).  The DP is a pure
   function of (table, avail), so the zone memo and the class cut-off
   are exact. *)
let optimize (ctx : Context.t) =
  Repro_obs.Trace.with_span ~name:"peakmin.optimize" @@ fun () ->
  let tables = ctx.Context.tables in
  match
    Context.search_classes ~span:"peakmin.class"
      ~zone_label:"peakmin.zone_solve" ~num_zones:(Array.length tables)
      ~zone_sinks:(fun zi -> Array.length tables.(zi).Noise_table.sinks)
      ~dof:(fun (cls : Context.interval_class) ->
        cls.Context.degree_of_freedom)
      ~zone_key:(fun (cls : Context.interval_class) zi ->
        Context.zone_avail ctx cls.Context.avail tables.(zi))
      ~solve_zone:(fun _ zi avail ->
        let choices, _capped = zone_solver ctx tables.(zi) ~avail in
        (choices, zone_balance_objective tables.(zi) ~choices))
      ~peak:snd ~capped:(fun _ -> false) ctx.Context.classes
  with
  | None ->
    raise
      (Verrors.Error
         (Context.infeasible_window ctx.Context.params
            ~stage:"clk_peakmin.optimize" (Context.Sinks ctx.Context.sinks)))
  | Some (cls, _, per_zone) ->
    let choices = Array.map fst per_zone in
    (* The reported peak is the fine-grained zone estimate, so outcomes
       compare across solvers. *)
    let zone_peaks =
      Array.mapi
        (fun zi choices -> Noise_table.zone_objective tables.(zi) ~choices)
        choices
    in
    {
      Context.assignment = Context.apply_choices ctx choices;
      interval = cls.Context.interval;
      predicted_peak_ua = Array.fold_left Float.max 0.0 zone_peaks;
      zone_peaks;
      approximate = false;
    }
