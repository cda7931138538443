(** Transient power-grid noise evaluation.

    Plays the role of the paper's HSPICE power-grid simulation: the
    current pulse of every clock buffering element is injected at its
    nearest mesh node, the resistive grid is solved at a set of time
    samples, and the reported V_DD (resp. Gnd) noise is the worst voltage
    drop (resp. bounce) seen at any node over all samples — the
    "maximum voltage fluctuation" of Table V. *)

type injection = {
  x : float;  (** um position of the drawing cell. *)
  y : float;
  waveform : Repro_waveform.Pwl.t;  (** uA over ps on this rail. *)
}

val injection_nodes : Grid.t -> injection array -> int array
(** The mesh node ({!Grid.node_at}) of each injection.  Positions do
    not move over time, so callers resolve them once per rail. *)

val nodal_currents_into :
  float array -> nodes:int array -> injection array -> float -> unit
(** [nodal_currents_into currents ~nodes injections time] overwrites
    [currents] (one entry per mesh node) with the current drawn at
    [time], each injection added to its node [nodes.(k)] in array
    order. *)

val rail_noise_mv :
  Grid.t -> injections:injection list -> times:float array -> float
(** Worst voltage fluctuation (mV) on one rail: for each sample time the
    grid is solved with the instantaneous currents and the maximal nodal
    drop is taken; the result is the max over samples.  With currents in
    uA and segment resistances in Ohm the drops come out in uV and are
    converted to mV. *)

type report = {
  vdd_noise_mv : float;
  gnd_noise_mv : float;
}

val evaluate :
  Grid.t ->
  vdd:injection list ->
  gnd:injection list ->
  times:float array ->
  report
(** Both rails at once (each rail is an independent mesh by symmetry). *)

val default_times : injection list -> count:int -> float array
(** A uniform time grid covering the union of the injection supports
    ([count] samples; empty when there are no injections). *)
