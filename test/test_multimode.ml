module Multimode = Repro_core.Multimode
module Context = Repro_core.Context
module Adb_embedding = Repro_core.Adb_embedding
module Clk_wavemin_m = Repro_core.Clk_wavemin_m
module Tree = Repro_clocktree.Tree
module Timing = Repro_clocktree.Timing
module Assignment = Repro_clocktree.Assignment
module Islands = Repro_cts.Islands
module Library = Repro_cell.Library
module Cell = Repro_cell.Cell
module Rng = Repro_util.Rng

let die_side = 150.0

let tree ?(seed = 909) ?(leaves = 12) ?(internals = 4) () =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed)
      (Repro_cts.Placement.square_die die_side) ~count:leaves ()
  in
  Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:(seed + 1)) sinks ~internals

let params =
  { Context.default_params with
    Context.num_slots = 16;
    max_interval_classes = 6;
    kappa = 30.0 }

(* Two power modes over two vertical islands: M0 all 1.1 V, M1 drops
   half the die to 0.9 V. *)
let envs_for tree_v =
  let islands = Islands.grid ~die_side ~count:2 in
  let m0 = Islands.uniform_mode islands ~vdd:1.1 in
  let m1 =
    Array.mapi (fun i _ -> if i = 0 then 1.1 else 0.9)
      (Islands.uniform_mode islands ~vdd:1.1)
  in
  ignore tree_v;
  [| { (Timing.nominal ~mode:0 ()) with
       Timing.vdd_of = (fun nd -> Islands.vdd_of_node islands m0 nd) };
     { (Timing.nominal ~mode:1 ()) with
       Timing.vdd_of = (fun nd -> Islands.vdd_of_node islands m1 nd) } |]

let plain_cells = [ Library.buf 8; Library.buf 16; Library.inv 8; Library.inv 16 ]

(* ------------------------------------------------------------------ *)
(* Multimode context                                                   *)

let test_create_validates_modes () =
  let t = tree () in
  let base = Assignment.default t ~num_modes:2 in
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Multimode.create: envs/assignment mode count mismatch")
    (fun () ->
      ignore
        (Multimode.create ~params t ~base ~envs:[| Timing.nominal () |]
           ~cells:plain_cells))

let test_create_checks_env_mode_index () =
  let t = tree () in
  let base = Assignment.default t ~num_modes:2 in
  let bad = [| Timing.nominal ~mode:0 (); Timing.nominal ~mode:0 () |] in
  Alcotest.check_raises "env mode"
    (Invalid_argument "Multimode.create: env.mode must equal its index") (fun () ->
      ignore (Multimode.create ~params t ~base ~envs:bad ~cells:plain_cells))

let test_single_mode_reduces_to_context () =
  (* With one nominal mode, multimode must be feasible whenever the
     single-mode context is. *)
  let t = tree () in
  let base = Assignment.default t ~num_modes:1 in
  let mm =
    Multimode.create ~params t ~base ~envs:[| Timing.nominal () |]
      ~cells:plain_cells
  in
  let ctx = Context.create ~params t ~cells:plain_cells in
  Alcotest.(check bool) "same feasibility" (Context.feasible ctx)
    (Multimode.feasible mm)

let test_intersections_feasible () =
  let t = tree () in
  let envs = envs_for t in
  let base = Assignment.default t ~num_modes:2 in
  let mm = Multimode.create ~params t ~base ~envs ~cells:plain_cells in
  List.iter
    (fun inter ->
      Alcotest.(check int) "one interval per mode" 2
        (Array.length inter.Multimode.intervals);
      (* Every sink admits at least one cell. *)
      Array.iter
        (fun row ->
          Alcotest.(check bool) "row non-empty" true (Array.exists (fun b -> b) row))
        inter.Multimode.cell_avail)
    mm.Multimode.intersections

let test_chosen_candidates_consistent () =
  let t = tree () in
  let envs = envs_for t in
  let base = Assignment.default t ~num_modes:2 in
  let mm = Multimode.create ~params t ~base ~envs ~cells:plain_cells in
  match mm.Multimode.intersections with
  | [] -> () (* nothing to check when infeasible *)
  | inter :: _ ->
    Array.iteri
      (fun m via ->
        Array.iteri
          (fun row per_cell ->
            Array.iteri
              (fun k ci ->
                if inter.Multimode.cell_avail.(row).(k) then begin
                  Alcotest.(check bool) "candidate present" true (ci >= 0);
                  let cand =
                    mm.Multimode.modes.(m).Multimode.sinks.(row)
                      .Repro_core.Intervals.candidates.(ci)
                  in
                  let iv = inter.Multimode.intervals.(m) in
                  Alcotest.(check bool) "inside interval" true
                    (cand.Repro_core.Intervals.arrival
                     >= iv.Repro_core.Intervals.lo -. 1e-6
                    && cand.Repro_core.Intervals.arrival
                       <= iv.Repro_core.Intervals.hi +. 1e-6);
                  Alcotest.(check bool) "right cell" true
                    (Cell.equal cand.Repro_core.Intervals.cell
                       mm.Multimode.cell_universe.(k))
                end)
              per_cell)
          via)
      inter.Multimode.chosen_candidate

let test_solve_respects_skew_in_all_modes () =
  (* Raw Multimode.solve guarantees kappa under base-timing arrivals;
     the realized skew may exceed it by at most the sibling shift in
     excess of the guard (small).  The verified flow (ClkWaveMin-M)
     must meet kappa exactly — both are checked. *)
  let t = tree () in
  let envs = envs_for t in
  let base = Assignment.default t ~num_modes:2 in
  let mm = Multimode.create ~params t ~base ~envs ~cells:plain_cells in
  if Multimode.feasible mm then begin
    let sol = Multimode.solve mm in
    let skews = Adb_embedding.skews t sol.Multimode.assignment envs in
    Array.iter
      (fun s ->
        Alcotest.(check bool) "raw solve within kappa + slack" true
          (s <= params.Context.kappa +. 3.0))
      skews
  end;
  let o = Clk_wavemin_m.optimize ~params t ~envs in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "verified flow within kappa" true
        (s <= params.Context.kappa +. 1e-6))
    o.Clk_wavemin_m.skews

let test_dof_table_nonempty () =
  let t = tree () in
  let envs = envs_for t in
  let base = Assignment.default t ~num_modes:2 in
  let mm = Multimode.create ~params t ~base ~envs ~cells:plain_cells in
  if Multimode.feasible mm then begin
    let table = Multimode.degree_of_freedom_table mm in
    Alcotest.(check bool) "rows" true (table <> []);
    List.iter
      (fun (dof, peak) ->
        Alcotest.(check bool) "positive dof" true (dof > 0);
        Alcotest.(check bool) "positive peak" true (peak > 0.0))
      table
  end

let test_solve_matches_memo_free_classes () =
  (* [solve] shares the zone memo and class cut-off of
     [Context.search_classes]; [degree_of_freedom_table] solves every
     zone of every intersection.  The winner must be the table's first
     least peak, bit for bit, at any job count. *)
  List.iter
    (fun seed ->
      let t = tree ~seed () in
      let envs = envs_for t in
      let base = Assignment.default t ~num_modes:2 in
      let mm = Multimode.create ~params t ~base ~envs ~cells:plain_cells in
      if Multimode.feasible mm then begin
        let table = Multimode.degree_of_freedom_table mm in
        let best_i, best_peak =
          List.fold_left
            (fun (bi, bp) (i, (_, p)) -> if bp <= p then (bi, bp) else (i, p))
            (-1, infinity)
            (List.mapi (fun i row -> (i, row)) table)
        in
        List.iter
          (fun jobs ->
            let sol =
              Repro_par.Par.with_jobs jobs (fun () -> Multimode.solve mm)
            in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d jobs %d: same intersection" seed jobs)
              true
              (sol.Multimode.intersection
              == List.nth mm.Multimode.intersections best_i);
            Alcotest.(check int64)
              (Printf.sprintf "seed %d jobs %d: same peak bits" seed jobs)
              (Int64.bits_of_float best_peak)
              (Int64.bits_of_float sol.Multimode.predicted_peak_ua))
          [ 1; 4 ]
      end)
    [ 909; 17; 4242 ]

(* ------------------------------------------------------------------ *)
(* ClkWaveMin-M                                                        *)

let test_wavemin_m_runs () =
  let t = tree ~leaves:10 ~internals:3 () in
  let envs = envs_for t in
  let o = Clk_wavemin_m.optimize ~params t ~envs in
  Alcotest.(check bool) "feasible output" true o.Clk_wavemin_m.feasible;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "skews" true (s <= params.Context.kappa +. 1e-6))
    o.Clk_wavemin_m.skews

let test_wavemin_m_tight_kappa_uses_adbs () =
  (* A very tight skew bound across 0.9/1.1 V islands cannot be met by
     sizing alone: the flow must fall back to ADB embedding. *)
  let t = tree ~leaves:10 ~internals:3 () in
  let envs = envs_for t in
  let tight = { params with Context.kappa = 6.0 } in
  let o = Clk_wavemin_m.optimize ~params:tight t ~envs in
  Alcotest.(check bool) "used embedding" true o.Clk_wavemin_m.used_adb_embedding;
  Alcotest.(check bool) "placed ADBs or ADIs" true
    (o.Clk_wavemin_m.num_adbs + o.Clk_wavemin_m.num_adis > 0)

let test_embedding_guarantees_intersection () =
  (* The paper's guarantee: after ADB embedding succeeds at a bound
     tighter than kappa by the guard, the multimode context (with ADB
     leaves restricted to {ADB, ADI}) always has the trivial
     keep-everything intersection. *)
  let t = tree () in
  let envs = envs_for t in
  let kappa = 30.0 in
  let base = Assignment.default t ~num_modes:2 in
  let e =
    Adb_embedding.embed t base ~envs
      ~kappa:(kappa -. params.Context.sibling_guard -. 2.0)
  in
  if e.Adb_embedding.feasible then begin
    let basee = e.Adb_embedding.assignment in
    let cells_of leaf =
      let current = Assignment.cell basee leaf in
      if Cell.is_adjustable current then
        [ Library.adb current.Cell.drive; Library.adi current.Cell.drive ]
      else plain_cells
    in
    let mm =
      Multimode.create ~params:{ params with Context.kappa } ~cells_of t
        ~base:basee ~envs ~cells:plain_cells
    in
    Alcotest.(check bool) "trivial intersection exists" true
      (Multimode.feasible mm)
  end

(* The sibling-guard retry: on this tree the solutions at guards 0 and
   3 ps break kappa, so ClkWaveMin-M widens the guard twice.  Each widened context must equal a fresh build at that guard,
   and optimize must return what fresh builds per guard would give. *)
let test_guard_retry_matches_fresh_create () =
  let t = tree ~seed:5 ~leaves:10 ~internals:3 () in
  let envs = envs_for t in
  let params = { params with Context.kappa = 20.0; sibling_guard = 0.0 } in
  let base = Assignment.default t ~num_modes:2 in
  let fresh guard =
    Multimode.create ~params:{ params with Context.sibling_guard = guard } t
      ~base ~envs ~cells:plain_cells
  in
  let solve mm =
    let sol = Multimode.solve mm in
    let ok =
      Array.for_all
        (fun s -> s <= params.Context.kappa)
        (Adb_embedding.skews t sol.Multimode.assignment envs)
    in
    (sol, ok)
  in
  let first = fresh params.Context.sibling_guard in
  Alcotest.(check bool) "first guard breaks kappa" false (snd (solve first));
  (* The retry loop of ClkWaveMin-M, once over widened contexts and
     once over fresh ones. *)
  let rec retry widened tries =
    let guard = widened.Multimode.params.Context.sibling_guard in
    let built = fresh guard in
    Alcotest.(check bool)
      (Printf.sprintf "intersections at guard %g" guard)
      true
      (widened.Multimode.intersections = built.Multimode.intersections);
    Alcotest.(check bool)
      (Printf.sprintf "modes shared at guard %g" guard)
      true
      (widened.Multimode.modes == first.Multimode.modes);
    let sol, ok = solve built in
    if ok || tries <= 0 then (sol, guard)
    else retry (Multimode.with_sibling_guard widened (guard +. 3.0)) (tries - 1)
  in
  let sol, last_guard = retry first 2 in
  Alcotest.(check (float 0.0)) "widened twice" 6.0 last_guard;
  let o = Clk_wavemin_m.optimize ~params t ~envs in
  Alcotest.(check bool) "no ADB embedding" false
    o.Clk_wavemin_m.used_adb_embedding;
  Alcotest.(check bool) "assignment" true
    (o.Clk_wavemin_m.assignment = sol.Multimode.assignment);
  Alcotest.(check int64) "predicted peak bits"
    (Int64.bits_of_float sol.Multimode.predicted_peak_ua)
    (Int64.bits_of_float o.Clk_wavemin_m.predicted_peak_ua)

let test_adb_embedded_only_reference () =
  let t = tree ~leaves:10 ~internals:3 () in
  let envs = envs_for t in
  let tight = { params with Context.kappa = 6.0 } in
  let r = Clk_wavemin_m.adb_embedded_only ~params:tight t ~envs in
  Alcotest.(check int) "skews per mode" 2 (Array.length r.Adb_embedding.skews)

let () =
  Alcotest.run "repro_core_multimode"
    [
      ( "context",
        [
          Alcotest.test_case "validates modes" `Quick test_create_validates_modes;
          Alcotest.test_case "checks env mode index" `Quick
            test_create_checks_env_mode_index;
          Alcotest.test_case "single mode reduces" `Quick
            test_single_mode_reduces_to_context;
          Alcotest.test_case "intersections feasible" `Quick
            test_intersections_feasible;
          Alcotest.test_case "chosen candidates consistent" `Quick
            test_chosen_candidates_consistent;
        ] );
      ( "solve",
        [
          Alcotest.test_case "skew in all modes" `Quick
            test_solve_respects_skew_in_all_modes;
          Alcotest.test_case "dof table" `Quick test_dof_table_nonempty;
          Alcotest.test_case "solve == memo-free classes" `Quick
            test_solve_matches_memo_free_classes;
        ] );
      ( "wavemin-m",
        [
          Alcotest.test_case "runs" `Quick test_wavemin_m_runs;
          Alcotest.test_case "tight kappa uses ADBs" `Quick
            test_wavemin_m_tight_kappa_uses_adbs;
          Alcotest.test_case "embedding guarantees intersection" `Quick
            test_embedding_guarantees_intersection;
          Alcotest.test_case "embedded-only reference" `Quick
            test_adb_embedded_only_reference;
          Alcotest.test_case "guard retry == fresh create" `Quick
            test_guard_retry_matches_fresh_create;
        ] );
    ]
