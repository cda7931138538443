module Pwl = Repro_waveform.Pwl
module Floats = Repro_util.Floats

type injection = { x : float; y : float; waveform : Pwl.t }

(* The mesh node of each injection, resolved once per rail rather than
   once per time sample. *)
let injection_nodes grid injections =
  Array.map (fun inj -> Grid.node_at grid ~x:inj.x ~y:inj.y) injections

(* [currents] := the nodal current draw at [time], summed per node in
   injection order. *)
let nodal_currents_into currents ~nodes injections time =
  Array.fill currents 0 (Array.length currents) 0.0;
  Array.iteri
    (fun k inj ->
      let node = nodes.(k) in
      currents.(node) <- currents.(node) +. Pwl.eval inj.waveform time)
    injections

let rail_noise_mv grid ~injections ~times =
  let injections = Array.of_list injections in
  let nodes = injection_nodes grid injections in
  let currents = Array.make (Grid.num_nodes grid) 0.0 in
  let drops = Array.make (Grid.num_nodes grid) 0.0 in
  Array.fold_left
    (fun worst time ->
      nodal_currents_into currents ~nodes injections time;
      Grid.solve_into grid ~injection:currents drops;
      Floats.max worst (Floats.fold_max_abs 0.0 drops))
    0.0 times
  /. 1000.0

type report = { vdd_noise_mv : float; gnd_noise_mv : float }

let evaluate grid ~vdd ~gnd ~times =
  {
    vdd_noise_mv = rail_noise_mv grid ~injections:vdd ~times;
    gnd_noise_mv = rail_noise_mv grid ~injections:gnd ~times;
  }

let default_times injections ~count =
  let span =
    List.fold_left
      (fun acc inj ->
        match (Pwl.support inj.waveform, acc) with
        | None, acc -> acc
        | Some (a, b), None -> Some (a, b)
        | Some (a, b), Some (lo, hi) -> Some (Float.min a lo, Float.max b hi))
      None injections
  in
  match span with
  | None -> [||]
  | Some (lo, hi) -> Repro_waveform.Sampling.uniform ~t0:lo ~t1:hi ~count
