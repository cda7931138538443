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

(* Class selection with the baseline's own (timing-blind) objective. *)
let optimize (ctx : Context.t) =
  Repro_obs.Trace.with_span ~name:"peakmin.optimize" @@ fun () ->
  let best = ref None in
  List.iter
    (fun (cls : Context.interval_class) ->
      let per_zone =
        Array.map
          (fun (table : Noise_table.t) ->
            let avail =
              Array.map
                (fun row -> cls.Context.avail.(row))
                table.Noise_table.sink_rows
            in
            let choices, _capped = zone_solver ctx table ~avail in
            (table, choices))
          ctx.Context.tables
      in
      let own_objective =
        Array.fold_left
          (fun acc (table, choices) ->
            Float.max acc (zone_balance_objective table ~choices))
          0.0 per_zone
      in
      match !best with
      | Some (_, best_obj) when best_obj <= own_objective -> ()
      | Some _ | None -> best := Some ((cls, per_zone), own_objective))
    ctx.Context.classes;
  match !best with
  | None ->
    raise
      (Verrors.Error
         (Context.infeasible_window ctx.Context.params
            ~stage:"clk_peakmin.optimize" (Context.Sinks ctx.Context.sinks)))
  | Some ((cls, per_zone), _) ->
    let assignment = ref ctx.Context.base in
    Array.iter
      (fun ((table : Noise_table.t), choices) ->
        Array.iteri
          (fun zi ci ->
            let sink = table.Noise_table.sinks.(zi) in
            let cell = sink.Intervals.candidates.(ci).Intervals.cell in
            assignment :=
              Repro_clocktree.Assignment.set_cell !assignment
                sink.Intervals.leaf_id cell)
          choices)
      per_zone;
    let zone_peaks =
      Array.map
        (fun (table, choices) -> Noise_table.zone_objective table ~choices)
        per_zone
    in
    {
      Context.assignment = !assignment;
      interval = cls.Context.interval;
      predicted_peak_ua = Array.fold_left Float.max 0.0 zone_peaks;
      zone_peaks;
      approximate = false;
    }
