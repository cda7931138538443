module Pwl = Repro_waveform.Pwl

type config = { decap_ff : float; dt : float }

let default_config = { decap_ff = 2000.0; dt = 5.0 }

type result = {
  times : float array;
  worst_drop_mv : float;
  worst_node : int;
  worst_time : float;
  envelope_mv : float array;
}

(* Unit note: node voltages are in uV (uA through Ohm).  The capacitor
   current C dv/dt with C in fF, v in uV and t in ps is 1e-3 uA, hence
   the 1e-3 factor on the equivalent conductance. *)
let cap_conductance ~decap_ff ~dt = 1.0e-3 *. decap_ff /. dt

let span injections =
  List.fold_left
    (fun acc (i : Noise.injection) ->
      match (Pwl.support i.Noise.waveform, acc) with
      | None, acc -> acc
      | Some (a, b), None -> Some (a, b)
      | Some (a, b), Some (lo, hi) -> Some (Float.min a lo, Float.max b hi))
    None injections

let simulate grid ?(config = default_config) ~injections () =
  if config.dt <= 0.0 then invalid_arg "Transient.simulate: dt <= 0";
  if config.decap_ff < 0.0 then invalid_arg "Transient.simulate: decap < 0";
  match span injections with
  | None ->
    { times = [||]; worst_drop_mv = 0.0; worst_node = 0; worst_time = 0.0;
      envelope_mv = [||] }
  | Some (t0, t1) ->
    let n = Grid.num_nodes grid in
    let g_cap = cap_conductance ~decap_ff:config.decap_ff ~dt:config.dt in
    let diag = Array.make n g_cap in
    (* Run one RC time constant past the last pulse so stored charge
       drains back through the grid. *)
    let settle =
      if g_cap > 0.0 then Float.min 200.0 (10.0 *. config.dt) else 0.0
    in
    let steps =
      max 2 (int_of_float (ceil ((t1 -. t0 +. settle) /. config.dt)) + 1)
    in
    let times =
      Array.init steps (fun k -> t0 +. (config.dt *. float_of_int k))
    in
    let injections = Array.of_list injections in
    let nodes = Noise.injection_nodes grid injections in
    let rhs = Array.make n 0.0 in
    let v = ref (Array.make n 0.0) in
    let worst = ref 0.0 and worst_node = ref 0 and worst_time = ref t0 in
    let envelope =
      Array.mapi
        (fun _k time ->
          Noise.nodal_currents_into rhs ~nodes injections time;
          for i = 0 to n - 1 do
            if not (Grid.is_pad grid i) then
              rhs.(i) <- rhs.(i) +. (g_cap *. !v.(i))
          done;
          let v' = Grid.solve_shifted grid ~diag ~injection:rhs in
          v := v';
          let step_max = ref 0.0 and step_node = ref 0 in
          Array.iteri
            (fun i d ->
              let a = Float.abs d in
              if a > !step_max then begin
                step_max := a;
                step_node := i
              end)
            v';
          if !step_max > !worst then begin
            worst := !step_max;
            worst_node := !step_node;
            worst_time := time
          end;
          !step_max /. 1000.0)
        times
    in
    {
      times;
      worst_drop_mv = !worst /. 1000.0;
      worst_node = !worst_node;
      worst_time = !worst_time;
      envelope_mv = envelope;
    }

let resistive_reference grid ~injections ~times =
  Noise.rail_noise_mv grid ~injections ~times
