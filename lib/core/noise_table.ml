module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Electrical = Repro_cell.Electrical
module Pwl = Repro_waveform.Pwl

type t = {
  zone : Zones.zone;
  slots : Slots.t array;
  sinks : Intervals.sink array;
  sink_rows : int array;
  noise : float array array array;
  nonleaf : float array;
  cand_peak : float array array;
}

let default_period = 2000.0

let add_currents (a : Electrical.currents) (b : Electrical.currents) =
  {
    Electrical.idd = Pwl.add a.Electrical.idd b.Electrical.idd;
    iss = Pwl.add a.Electrical.iss b.Electrical.iss;
  }

let build tree asg env ~rising ~falling ?(period = default_period) ~sinks
    ~zone ~num_slots ?background ?cache () =
  Repro_obs.Fault.trip Repro_obs.Fault.Noise_table ~site:"noise_table.build";
  let row_of_leaf = Hashtbl.create 16 in
  Array.iteri
    (fun row (s : Intervals.sink) ->
      Hashtbl.replace row_of_leaf s.Intervals.leaf_id row)
    sinks;
  let sink_rows =
    Array.map
      (fun leaf ->
        match Hashtbl.find_opt row_of_leaf leaf with
        | Some row -> row
        | None -> invalid_arg "Noise_table.build: zone leaf missing from sinks")
      zone.Zones.leaf_ids
  in
  let zone_sinks = Array.map (fun row -> sinks.(row)) sink_rows in
  (* Per candidate: the unshifted rising-edge and (already
     period/2-shifted) falling-edge pulse pairs.  The candidate's
     adjustable delay step is applied later as a sampling-time offset —
     no shifted or merged waveform is ever materialized, and candidates
     of one cell that differ only in delay step share the pair through
     the memo. *)
  let cand_base =
    Array.map
      (fun (s : Intervals.sink) ->
        Array.map
          (fun (c : Intervals.candidate) ->
            Waveforms.candidate_period_currents ?cache tree env ~rising
              ~falling s.Intervals.leaf_id c.Intervals.cell ~period)
          s.Intervals.candidates)
      zone_sinks
  in
  (* Slot selection: the paper samples both rails at both clock edges
     (Sec. III); every candidate pulse peak is a priority instant and
     the remaining budget is spread over the two per-edge leaf switching
     windows (Fig. 7).  A delayed pulse peaks at base peak + extra. *)
  let peak_times rail_of =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun si per_cand ->
              let s = zone_sinks.(si) in
              List.concat
                (Array.to_list
                   (Array.mapi
                      (fun ci (r, f) ->
                        let extra =
                          s.Intervals.candidates.(ci).Intervals.extra
                        in
                        [ Pwl.peak_time (rail_of r) +. extra;
                          Pwl.peak_time (rail_of f) +. extra ])
                      per_cand)))
            cand_base))
  in
  let window part =
    let acc = ref None in
    Array.iteri
      (fun si per_cand ->
        let s = zone_sinks.(si) in
        Array.iteri
          (fun ci pair ->
            let extra = s.Intervals.candidates.(ci).Intervals.extra in
            let (c : Electrical.currents) = part pair in
            let shifted w =
              match Pwl.support w with
              | None -> None
              | Some (a, b) -> Some (a +. extra, b +. extra)
            in
            let union bounds =
              match (bounds, !acc) with
              | None, _ -> ()
              | Some (a, b), None -> acc := Some (a, b)
              | Some (a, b), Some (lo, hi) ->
                acc := Some (Float.min a lo, Float.max b hi)
            in
            union (shifted c.Electrical.idd);
            union (shifted c.Electrical.iss))
          per_cand)
      cand_base;
    !acc
  in
  let windows = List.filter_map (fun w -> w) [ window fst; window snd ] in
  (* Reference waveform for the grid: the zone's default leaf cells over
     the whole period. *)
  let reference =
    let r =
      Waveforms.total_rail_currents tree asg env rising
        ~node_ids:zone.Zones.leaf_ids ()
    in
    let f =
      Waveforms.total_rail_currents tree asg env falling
        ~node_ids:zone.Zones.leaf_ids ()
    in
    add_currents r
      {
        Electrical.idd = Pwl.shift f.Electrical.idd (period /. 2.0);
        iss = Pwl.shift f.Electrical.iss (period /. 2.0);
      }
  in
  let slots =
    Slots.of_currents reference ~count:num_slots
      ~extra_vdd:(peak_times (fun (c : Electrical.currents) -> c.Electrical.idd))
      ~extra_gnd:(peak_times (fun (c : Electrical.currents) -> c.Electrical.iss))
      ~windows ()
  in
  let nonleaf_currents =
    match background with
    | Some (global, share) ->
      (* The zone accounts for a leaf-proportional share of the entire
         chip's non-leaf current; the shares sum to one, so optimizing
         zones independently balances the global waveform without
         double counting. *)
      {
        Electrical.idd = Pwl.scale global.Electrical.idd share;
        iss = Pwl.scale global.Electrical.iss share;
      }
    | None ->
      if Array.length zone.Zones.internal_ids = 0 then
        { Electrical.idd = Pwl.zero; iss = Pwl.zero }
      else
        let r =
          Waveforms.total_rail_currents tree asg env rising
            ~node_ids:zone.Zones.internal_ids ()
        in
        let f =
          Waveforms.total_rail_currents tree asg env falling
            ~node_ids:zone.Zones.internal_ids ()
        in
        add_currents r
          {
            Electrical.idd = Pwl.shift f.Electrical.idd (period /. 2.0);
            iss = Pwl.shift f.Electrical.iss (period /. 2.0);
          }
  in
  let clamp = Array.map (fun v -> Float.max 0.0 v) in
  let nonleaf = clamp (Slots.sample slots nonleaf_currents) in
  (* Sample every candidate straight from its unshifted pulse pair onto
     reused per-rail scratch buffers: two in-place accumulation passes
     per rail (rising + falling pulse) with the delay step folded into
     the sampling times, then a clamped scatter into the row. *)
  let num_slots_total = Array.length slots in
  let rail_indices rail =
    Array.of_list
      (List.filter_map (fun x -> x)
         (Array.to_list
            (Array.mapi
               (fun si (slot : Slots.t) ->
                 if slot.Slots.rail = rail then Some si else None)
               slots)))
  in
  let vdd_idx = rail_indices Repro_cell.Cell.Vdd_rail in
  let gnd_idx = rail_indices Repro_cell.Cell.Gnd_rail in
  let vdd_times = Array.map (fun si -> slots.(si).Slots.time) vdd_idx in
  let gnd_times = Array.map (fun si -> slots.(si).Slots.time) gnd_idx in
  let vdd_buf = Array.make (Array.length vdd_idx) 0.0 in
  let gnd_buf = Array.make (Array.length gnd_idx) 0.0 in
  let sample_candidate (r : Electrical.currents) (f : Electrical.currents)
      ~extra =
    let out = Array.make num_slots_total 0.0 in
    Pwl.sample_into ~shift:extra r.Electrical.idd ~times:vdd_times
      ~into:vdd_buf;
    Pwl.add_into ~shift:extra f.Electrical.idd ~times:vdd_times ~into:vdd_buf;
    Array.iteri
      (fun k si -> out.(si) <- Float.max 0.0 vdd_buf.(k))
      vdd_idx;
    Pwl.sample_into ~shift:extra r.Electrical.iss ~times:gnd_times
      ~into:gnd_buf;
    Pwl.add_into ~shift:extra f.Electrical.iss ~times:gnd_times ~into:gnd_buf;
    Array.iteri
      (fun k si -> out.(si) <- Float.max 0.0 gnd_buf.(k))
      gnd_idx;
    out
  in
  let noise =
    Array.mapi
      (fun si per_cand ->
        let s = zone_sinks.(si) in
        Array.mapi
          (fun ci (r, f) ->
            sample_candidate r f
              ~extra:s.Intervals.candidates.(ci).Intervals.extra)
          per_cand)
      cand_base
  in
  (* The characterized peak is shift-invariant, so it is computed on the
     unshifted pair without building the summed waveform. *)
  let cand_peak =
    Array.map
      (Array.map (fun ((r : Electrical.currents), (f : Electrical.currents)) ->
           Float.max
             (Pwl.peak2 r.Electrical.idd f.Electrical.idd)
             (Pwl.peak2 r.Electrical.iss f.Electrical.iss)))
      cand_base
  in
  { zone; slots; sinks = zone_sinks; sink_rows; noise; nonleaf; cand_peak }

let zone_objective t ~choices =
  if Array.length choices <> Array.length t.sinks then
    invalid_arg "Noise_table.zone_objective: arity mismatch";
  let acc = Array.copy t.nonleaf in
  Array.iteri
    (fun zi ci ->
      let v = t.noise.(zi).(ci) in
      for si = 0 to Array.length v - 1 do
        acc.(si) <- acc.(si) +. v.(si)
      done)
    choices;
  Repro_util.Floats.fold_max 0.0 acc
