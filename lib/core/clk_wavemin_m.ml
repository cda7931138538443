module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell
module Library = Repro_cell.Library

type outcome = {
  assignment : Assignment.t;
  predicted_peak_ua : float;
  num_adbs : int;
  num_adis : int;
  used_adb_embedding : bool;
  skews : float array;
  feasible : bool;
  approximate : bool;
}

let default_buffers = Library.experiment_buffers
let default_inverters = Library.experiment_inverters

let adb_embedded_only ?(params = Context.default_params) tree ~envs =
  let base = Assignment.default tree ~num_modes:(Array.length envs) in
  Adb_embedding.embed tree base ~envs ~kappa:params.Context.kappa

let count_cells asg tree pred =
  let count = ref 0 in
  Array.iter
    (fun (nd : Tree.node) ->
      if pred (Assignment.cell asg nd.Tree.id) then incr count)
    (Tree.nodes tree);
  !count

let is_adb (c : Cell.t) = c.Cell.kind = Cell.Adjustable_buffer
let is_adi (c : Cell.t) = c.Cell.kind = Cell.Adjustable_inverter

let finish tree params envs asg predicted ~used_adb_embedding ~approximate =
  {
    assignment = asg;
    predicted_peak_ua = predicted;
    num_adbs = count_cells asg tree is_adb;
    num_adis = count_cells asg tree is_adi;
    used_adb_embedding;
    skews = Adb_embedding.skews tree asg envs;
    feasible =
      Array.for_all
        (fun s -> s <= params.Context.kappa)
        (Adb_embedding.skews tree asg envs);
    approximate;
  }

(* Solve with verification: the optimizer's intervals use base-timing
   arrivals minus the sibling guard; if the realized skew still exceeds
   kappa (the sibling shifts were larger than the guard), retry with a
   widened guard before giving up.  The modes are built once; a retry
   re-derives only the guard-dependent intersections. *)
let solve_verified params tree envs ?cells_of ~base ~cells () =
  let rec attempt ctx tries =
    if not (Multimode.feasible ctx) then None
    else begin
      let sol = Multimode.solve ctx in
      let skews = Adb_embedding.skews tree sol.Multimode.assignment envs in
      if Array.for_all (fun s -> s <= params.Context.kappa) skews || tries <= 0
      then Some sol
      else
        attempt
          (Multimode.with_sibling_guard ctx
             (ctx.Multimode.params.Context.sibling_guard +. 3.0))
          (tries - 1)
    end
  in
  attempt (Multimode.create ~params ?cells_of tree ~base ~envs ~cells) 2

let optimize ?(params = Context.default_params) ?(buffers = default_buffers)
    ?(inverters = default_inverters) tree ~envs =
  if Array.length envs = 0 then invalid_arg "Clk_wavemin_m.optimize: no modes";
  Repro_obs.Trace.with_span ~name:"wavemin_m.optimize"
    ~attrs:[ ("modes", string_of_int (Array.length envs)) ]
  @@ fun () ->
  let plain = buffers @ inverters in
  let base = Assignment.default tree ~num_modes:(Array.length envs) in
  (* Attempt 1: polarity assignment and sizing alone. *)
  match solve_verified params tree envs ~base ~cells:plain () with
  | Some sol ->
    finish tree params envs sol.Multimode.assignment sol.Multimode.predicted_peak_ua
      ~used_adb_embedding:false ~approximate:sol.Multimode.approximate
  | None ->
    (* Attempt 2: ADB embedding, then re-optimize; ADB leaves choose
       between the same-drive ADB and ADI, plain leaves keep B u I.
       Embedding targets a bound tightened by the sibling guard (plus a
       small margin) so that the re-optimization still finds feasible
       intervals inside kappa. *)
    let embed_kappa =
      Float.max 2.0
        (params.Context.kappa -. params.Context.sibling_guard -. 2.0)
    in
    let embedded = Adb_embedding.embed tree base ~envs ~kappa:embed_kappa in
    let base = embedded.Adb_embedding.assignment in
    let cells_of leaf =
      let current = Assignment.cell base leaf in
      if Cell.is_adjustable current then
        [ Library.adb current.Cell.drive; Library.adi current.Cell.drive ]
      else plain
    in
    (match solve_verified params tree envs ~cells_of ~base ~cells:plain () with
    | Some sol ->
      finish tree params envs sol.Multimode.assignment
        sol.Multimode.predicted_peak_ua ~used_adb_embedding:true
        ~approximate:sol.Multimode.approximate
    | None ->
      (* Trivial fallback (guaranteed by construction after embedding):
         keep the embedded design unchanged. *)
      finish tree params envs base 0.0 ~used_adb_embedding:true
        ~approximate:false)
