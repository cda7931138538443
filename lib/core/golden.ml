module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Electrical = Repro_cell.Electrical
module Pwl = Repro_waveform.Pwl
module Grid = Repro_powergrid.Grid
module Noise = Repro_powergrid.Noise
module Trace = Repro_obs.Trace

type metrics = {
  peak_current_ma : float;
  vdd_noise_mv : float;
  gnd_noise_mv : float;
  skew_ps : float;
}

let default_period = 2000.0

let default_grid tree =
  let side =
    Array.fold_left
      (fun acc nd -> Float.max acc (Float.max nd.Tree.x nd.Tree.y))
      1.0 (Tree.nodes tree)
  in
  Grid.create ~die_side:(side *. 1.02) ()

let node_injections tree asg env ~period =
  let rising = Timing.analyze tree asg env ~edge:Electrical.Rising in
  let falling = Timing.analyze tree asg env ~edge:Electrical.Falling in
  let per_node nd =
    let id = nd.Tree.id in
    let r = Waveforms.node_currents tree asg env rising id in
    let f = Waveforms.node_currents tree asg env falling id in
    let idd =
      Pwl.add r.Electrical.idd (Pwl.shift f.Electrical.idd (period /. 2.0))
    in
    let iss =
      Pwl.add r.Electrical.iss (Pwl.shift f.Electrical.iss (period /. 2.0))
    in
    (nd, { Electrical.idd; iss })
  in
  (rising, Array.map per_node (Tree.nodes tree))

let evaluate ?(period = default_period) ?grid ?(noise_samples = 48) tree asg env =
  let grid = match grid with Some g -> g | None -> default_grid tree in
  let rising, vdd_inj, gnd_inj, total_idd, total_iss =
    Trace.with_span ~name:"golden.injections" (fun () ->
        let rising, injections = node_injections tree asg env ~period in
        let rail field =
          Array.fold_right
            (fun ((nd : Tree.node), c) acc ->
              { Noise.x = nd.Tree.x; y = nd.Tree.y; waveform = field c } :: acc)
            injections []
        in
        let vdd_inj = rail (fun c -> c.Electrical.idd) in
        let gnd_inj = rail (fun c -> c.Electrical.iss) in
        let total inj = Pwl.sum (List.map (fun i -> i.Noise.waveform) inj) in
        (rising, vdd_inj, gnd_inj, total vdd_inj, total gnd_inj))
  in
  let peak_ua = Float.max (Pwl.peak total_idd) (Pwl.peak total_iss) in
  let report =
    Trace.with_span ~name:"powergrid.noise" (fun () ->
        let times =
          Noise.default_times (vdd_inj @ gnd_inj) ~count:noise_samples
        in
        Noise.evaluate grid ~vdd:vdd_inj ~gnd:gnd_inj ~times)
  in
  {
    peak_current_ma = peak_ua /. 1000.0;
    vdd_noise_mv = report.Noise.vdd_noise_mv;
    gnd_noise_mv = report.Noise.gnd_noise_mv;
    skew_ps = Timing.skew tree rising;
  }

let worst_over_modes ?period ?grid ?noise_samples tree asg envs =
  if Array.length envs = 0 then
    invalid_arg "Golden.worst_over_modes: no modes";
  let metrics =
    Array.map (fun env -> evaluate ?period ?grid ?noise_samples tree asg env) envs
  in
  Array.fold_left
    (fun acc m ->
      {
        peak_current_ma = Float.max acc.peak_current_ma m.peak_current_ma;
        vdd_noise_mv = Float.max acc.vdd_noise_mv m.vdd_noise_mv;
        gnd_noise_mv = Float.max acc.gnd_noise_mv m.gnd_noise_mv;
        skew_ps = Float.max acc.skew_ps m.skew_ps;
      })
    metrics.(0) metrics
