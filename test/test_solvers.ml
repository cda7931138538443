module Context = Repro_core.Context
module Clk_wavemin = Repro_core.Clk_wavemin
module Clk_wavemin_f = Repro_core.Clk_wavemin_f
module Clk_peakmin = Repro_core.Clk_peakmin
module Noise_table = Repro_core.Noise_table
module Intervals = Repro_core.Intervals
module Golden = Repro_core.Golden
module Flow = Repro_core.Flow
module Tree = Repro_clocktree.Tree
module Timing = Repro_clocktree.Timing
module Assignment = Repro_clocktree.Assignment
module Library = Repro_cell.Library
module Cell = Repro_cell.Cell
module Rng = Repro_util.Rng

let tree ?(seed = 515) ?(leaves = 16) ?(internals = 5) () =
  let sinks =
    Repro_cts.Placement.random_sinks (Rng.create ~seed)
      (Repro_cts.Placement.square_die 150.0) ~count:leaves ()
  in
  Repro_cts.Synthesis.synthesize ~rng:(Rng.create ~seed:(seed + 1)) sinks ~internals

let cells = Flow.leaf_library ()

(* Two drive-8 fixed cells plus their adjustable twins: every leaf gets
   delay-step candidates, so a solver that drops the extra delay of its
   choice returns a different assignment. *)
let adb_cells = [ Library.buf 8; Library.inv 8; Library.adb 8; Library.adi 8 ]

let small_params =
  { Context.default_params with Context.num_slots = 24; max_interval_classes = 6 }

let context ?(params = small_params) () =
  Context.create ~params (tree ()) ~cells

(* ------------------------------------------------------------------ *)
(* Context                                                             *)

let test_context_feasible () =
  let ctx = context () in
  Alcotest.(check bool) "feasible" true (Context.feasible ctx)

let test_context_classes_sorted_by_dof () =
  let ctx = context () in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "descending DoF" true
        (a.Context.degree_of_freedom >= b.Context.degree_of_freedom);
      check rest
    | [ _ ] | [] -> ()
  in
  check ctx.Context.classes

let test_context_rejects_empty_cells () =
  Alcotest.check_raises "cells" (Invalid_argument "Context.create: empty cell library")
    (fun () -> ignore (Context.create (tree ()) ~cells:[]))

let test_context_infeasible_kappa () =
  let params = { small_params with Context.kappa = 0.01 } in
  let ctx = Context.create ~params (tree ()) ~cells in
  Alcotest.(check bool) "infeasible" false (Context.feasible ctx);
  (* The failure is now a structured error: code [Infeasible_window],
     with a diagnosis (binding sinks, the minimum feasible window width,
     the effective kappa) in the message; assert its load-bearing pieces
     rather than the exact prose. *)
  match Clk_wavemin.optimize ctx with
  | _ -> Alcotest.fail "solve must fail on an infeasible kappa"
  | exception Repro_util.Verrors.Error e ->
    Alcotest.(check string)
      "code" "infeasible-window"
      (Repro_util.Verrors.code_name e.Repro_util.Verrors.code);
    let msg = e.Repro_util.Verrors.message in
    let contains needle =
      let n = String.length needle and h = String.length msg in
      let rec go i =
        i + n <= h && (String.sub msg i n = needle || go (i + 1))
      in
      Alcotest.(check bool) ("message mentions " ^ needle) true (go 0)
    in
    contains "no feasible interval";
    contains "kappa";
    contains "leaf "

(* The whole Infeasible_window error of every caller, pinned on one
   infeasible tree: code, stage, subject, message and hints, byte for
   byte.  The four single-mode callers share the binding-sink
   diagnosis; ClkWaveMin-M wraps it per mode. *)
let test_infeasible_window_pinned () =
  let module Verrors = Repro_util.Verrors in
  let params = { small_params with Context.kappa = 0.01 } in
  let t = tree () in
  let ctx = Context.create ~params t ~cells in
  let diagnosis =
    "no feasible interval: no window of width kappa = 1.00 ps anchored at \
     a candidate arrival covers every sink, although the binding sinks \
     only require 0.00 ps (leaf 6's candidates end earliest at 181.89 ps, \
     leaf 5's start latest at 177.70 ps); the sinks' arrival sets leave \
     gaps, so raise kappa or loosen coalescing"
  in
  let window =
    "(effective kappa 1.00 ps = kappa 0.01 ps - sibling guard 4.00 ps)"
  in
  let widen = "widen the skew window (larger kappa) or reduce sibling_guard" in
  let validate = "run `wavemin validate` for a per-sink feasibility breakdown" in
  let expect ~stage ~hints message =
    { Verrors.code = Verrors.Infeasible_window; stage; subject = None;
      message; hints }
  in
  let check (e : Verrors.t) (want : Verrors.t) =
    Alcotest.(check string) (want.stage ^ " code")
      (Verrors.code_name want.code) (Verrors.code_name e.code);
    Alcotest.(check string) (want.stage ^ " stage") want.stage e.stage;
    Alcotest.(check (option string)) (want.stage ^ " subject") want.subject
      e.subject;
    Alcotest.(check string) (want.stage ^ " message") want.message e.message;
    Alcotest.(check (list string)) (want.stage ^ " hints") want.hints e.hints
  in
  let raised f want =
    match f () with
    | () -> Alcotest.fail (want.Verrors.stage ^ " must fail")
    | exception Verrors.Error e -> check e want
  in
  let single stage = expect ~stage ~hints:[ widen; validate ] (diagnosis ^ " " ^ window) in
  raised (fun () -> ignore (Clk_wavemin.optimize ctx)) (single "context.solve");
  raised (fun () -> ignore (Repro_core.Clk_sa.optimize ctx)) (single "clk_sa.optimize");
  raised (fun () -> ignore (Clk_peakmin.optimize ctx)) (single "clk_peakmin.optimize");
  (match Repro_core.Preflight.check_feasibility ~params t ~cells with
  | [ e ] ->
    check e
      (expect ~stage:"preflight.feasibility" ~hints:[ widen ]
         (diagnosis ^ " " ^ window))
  | ds -> Alcotest.failf "preflight: %d diagnostics, want 1" (List.length ds));
  let envs = [| Timing.nominal ~mode:0 (); Timing.nominal ~mode:1 () |] in
  let mm =
    Repro_core.Multimode.create ~params t
      ~base:(Assignment.default t ~num_modes:2) ~envs ~cells
  in
  raised
    (fun () -> ignore (Repro_core.Multimode.solve mm))
    (expect ~stage:"multimode.solve"
       ~hints:[ widen; "drop or relax the mode that is infeasible on its own" ]
       ("no feasible intersection across 2 mode(s): no cell admits every \
         sink in every mode " ^ window ^ "; mode 0: " ^ diagnosis
       ^ "; mode 1: " ^ diagnosis))

(* ------------------------------------------------------------------ *)
(* Skew safety: every algorithm's output must respect kappa            *)

let skew_of ctx asg =
  let timing =
    Timing.analyze ctx.Context.tree asg ctx.Context.env
      ~edge:Repro_cell.Electrical.Rising
  in
  Timing.skew ctx.Context.tree timing

let check_skew name optimize =
  let ctx = context () in
  let outcome = optimize ctx in
  let skew = skew_of ctx outcome.Context.assignment in
  Alcotest.(check bool)
    (name ^ " respects kappa")
    true
    (skew <= ctx.Context.params.Context.kappa +. 1e-6)

let test_wavemin_skew () = check_skew "wavemin" Clk_wavemin.optimize
let test_wavemin_f_skew () = check_skew "wavemin-f" Clk_wavemin_f.optimize
let test_peakmin_skew () = check_skew "peakmin" Clk_peakmin.optimize

(* ------------------------------------------------------------------ *)
(* Quality relations                                                   *)

let test_wavemin_predicts_leq_greedy () =
  (* The approximation search cannot be worse than the greedy under the
     same model (both pick from the same classes/zones; wavemin
     minimizes the zone estimate that greedy also reports). *)
  let ctx = context () in
  let a = Clk_wavemin.optimize ctx in
  let b = Clk_wavemin_f.optimize ctx in
  Alcotest.(check bool) "estimate ordering" true
    (a.Context.predicted_peak_ua <= b.Context.predicted_peak_ua +. 1e-6)

let test_optimized_beats_initial_golden () =
  let t = tree ~leaves:24 ~internals:7 () in
  let env = Timing.nominal () in
  let initial = Assignment.default t ~num_modes:1 in
  let m0 = Golden.evaluate t initial env in
  let ctx = Context.create ~params:small_params ~env t ~cells in
  let o = Clk_wavemin.optimize ctx in
  let m1 = Golden.evaluate t o.Context.assignment env in
  Alcotest.(check bool) "peak reduced" true
    (m1.Golden.peak_current_ma < m0.Golden.peak_current_ma)

let test_polarity_mix_produced () =
  let ctx = context () in
  let o = Clk_wavemin.optimize ctx in
  let inv =
    Assignment.count_leaves o.Context.assignment ctx.Context.tree
      ~pred:(fun c -> Cell.polarity c = Cell.Negative)
  in
  let total = Tree.num_leaves ctx.Context.tree in
  Alcotest.(check bool) "some inverters" true (inv > 0);
  Alcotest.(check bool) "some buffers" true (inv < total)

let test_zone_choices_are_available () =
  let ctx = context () in
  let cls = List.hd ctx.Context.classes in
  Array.iter
    (fun table ->
      let avail =
        Array.map
          (fun row -> cls.Context.avail.(row))
          table.Noise_table.sink_rows
      in
      List.iter
        (fun (name, solver) ->
          let choices, _ = solver ctx table ~avail in
          Array.iteri
            (fun zi ci ->
              Alcotest.(check bool) (name ^ " picks available") true avail.(zi).(ci))
            choices)
        [ ("wavemin", Clk_wavemin.zone_solver);
          ("greedy", Clk_wavemin_f.zone_solver);
          ("peakmin", Clk_peakmin.zone_solver) ])
    ctx.Context.tables

let test_peakmin_balances_rails () =
  (* On a uniform zone, PeakMin must split polarities roughly in half. *)
  let ctx = context () in
  let o = Clk_peakmin.optimize ctx in
  let inv =
    Assignment.count_leaves o.Context.assignment ctx.Context.tree
      ~pred:(fun c -> Cell.polarity c = Cell.Negative)
  in
  let total = Tree.num_leaves ctx.Context.tree in
  Alcotest.(check bool) "roughly half" true
    (inv >= total / 4 && inv <= 3 * total / 4)

let test_peakmin_balance_objective () =
  let ctx = context () in
  let table = ctx.Context.tables.(0) in
  let n = Array.length table.Noise_table.sinks in
  let choices = Array.make n 0 in
  (* all BUF_X8: everything on the positive rail *)
  let all_pos = Clk_peakmin.zone_balance_objective table ~choices in
  let manual =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun zi _ -> table.Noise_table.cand_peak.(zi).(0)) choices)
  in
  Alcotest.(check (float 1e-9)) "sum" manual all_pos

let test_mosp_encoding_rejects_empty_row () =
  let ctx = context () in
  let table = ctx.Context.tables.(0) in
  let n = Array.length table.Noise_table.sinks in
  let avail = Array.make_matrix n 4 false in
  Alcotest.check_raises "empty row"
    (Invalid_argument "Clk_wavemin.to_mosp: sink without available candidate")
    (fun () -> ignore (Clk_wavemin.to_mosp table ~avail))

let test_mosp_encoding_structure () =
  let ctx = context () in
  let table = ctx.Context.tables.(0) in
  let cls = List.hd ctx.Context.classes in
  let avail =
    Array.map (fun row -> cls.Context.avail.(row)) table.Noise_table.sink_rows
  in
  let graph, mapping = Clk_wavemin.to_mosp table ~avail in
  Alcotest.(check int) "rows = sinks"
    (Array.length table.Noise_table.sinks)
    (Repro_mosp.Layered.num_rows graph);
  Alcotest.(check int) "dim = slots"
    (Array.length table.Noise_table.nonleaf)
    (Repro_mosp.Layered.dimension graph);
  Array.iteri
    (fun row admitted ->
      Array.iter
        (fun ci -> Alcotest.(check bool) "mapping valid" true avail.(row).(ci))
        admitted)
    mapping

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)

let test_flow_run_tree () =
  let t = tree () in
  let r =
    match
      Flow.run (Flow.prepare ~params:small_params ~name:"toy" t)
        (Flow.Single Flow.Wavemin_fast)
    with
    | Ok r -> r
    | Error (e, _) -> Alcotest.fail (Repro_util.Verrors.to_string e)
  in
  Alcotest.(check string) "name" "toy" r.Flow.benchmark;
  Alcotest.(check bool) "skew bound" true
    (r.Flow.metrics.Golden.skew_ps <= small_params.Context.kappa +. 1e-6);
  Alcotest.(check bool) "positive metrics" true
    (r.Flow.metrics.Golden.peak_current_ma > 0.0)

let context_creates f =
  Repro_obs.Trace.reset ();
  Repro_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Repro_obs.Trace.set_enabled false)
    (fun () ->
      f ();
      List.length
        (List.filter
           (fun s -> s.Repro_obs.Trace.name = "context.create")
           (Repro_obs.Trace.spans ())))

let test_flow_context_built_once () =
  (* Concurrent runs of different solvers on one prepared design share
     a single context build.  The tree is big enough that a build spans
     a thread switch, so an unguarded memo would build more than once. *)
  let prep =
    Flow.prepare ~params:small_params ~name:"once"
      (tree ~leaves:160 ~internals:16 ())
  in
  let algorithms =
    List.concat_map
      (fun alg -> [ alg; alg ])
      [ Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast; Flow.Sa ]
  in
  let results = Array.make (List.length algorithms) None in
  let creates =
    context_creates (fun () ->
        List.mapi
          (fun i alg ->
            Thread.create
              (fun () -> results.(i) <- Some (Flow.run prep (Flow.Single alg)))
              ())
          algorithms
        |> List.iter Thread.join)
  in
  Array.iter
    (function
      | Some (Ok _) -> ()
      | Some (Error (e, _)) -> Alcotest.fail (Repro_util.Verrors.to_string e)
      | None -> Alcotest.fail "thread did not finish")
    results;
  Alcotest.(check int) "one context.create" 1 creates

let test_flow_failed_context_not_memoized () =
  let prep = Flow.prepare ~params:small_params ~name:"retry" (tree ()) in
  let run () = Flow.run prep (Flow.Single Flow.Wavemin_fast) in
  let creates =
    context_creates (fun () ->
        (match Repro_obs.Fault.set_spec "noise-table:1" with
        | Error msg -> Alcotest.fail msg
        | Ok () -> ());
        let faulted =
          Fun.protect ~finally:Repro_obs.Fault.clear (fun () -> run ())
        in
        Alcotest.(check bool) "faulted build fails" true (Result.is_error faulted);
        Alcotest.(check bool) "next run retries" true (Result.is_ok (run ()));
        Alcotest.(check bool) "then reuses" true (Result.is_ok (run ())))
  in
  Alcotest.(check int) "failed build + one successful build" 2 creates

let test_flow_improvement_pct () =
  Alcotest.(check (float 1e-9)) "pos" 50.0
    (Flow.improvement_pct ~baseline:10.0 ~value:5.0);
  Alcotest.(check (float 1e-9)) "neg" (-50.0)
    (Flow.improvement_pct ~baseline:10.0 ~value:15.0);
  Alcotest.(check (float 1e-9)) "zero baseline" 0.0
    (Flow.improvement_pct ~baseline:0.0 ~value:5.0)

let test_flow_names () =
  Alcotest.(check string) "wavemin" "ClkWaveMin" (Flow.algorithm_name Flow.Wavemin);
  Alcotest.(check string) "fast" "ClkWaveMin-f" (Flow.algorithm_name Flow.Wavemin_fast);
  Alcotest.(check string) "baseline" "ClkPeakMin" (Flow.algorithm_name Flow.Peakmin);
  Alcotest.(check string) "initial" "Initial" (Flow.algorithm_name Flow.Initial)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_all_solvers_respect_kappa =
  QCheck.Test.make ~name:"solver outputs respect kappa" ~count:8
    QCheck.(int_range 1 10000)
    (fun seed ->
      let t = tree ~seed ~leaves:10 ~internals:3 () in
      let ctx = Context.create ~params:small_params t ~cells in
      (not (Context.feasible ctx))
      || List.for_all
           (fun optimize ->
             let o = optimize ctx in
             skew_of ctx o.Context.assignment
             <= small_params.Context.kappa +. 1e-6)
           [ Clk_wavemin.optimize; Clk_wavemin_f.optimize; Clk_peakmin.optimize ])

(* ------------------------------------------------------------------ *)
(* Zone memo and class cut-off                                         *)

(* The class loop [Context.solve_with] replaced: every zone of every
   class solved, no memo, no cut-off.  Also returns each class's peak. *)
let reference_solve (ctx : Context.t) ~zone_solver =
  let best = ref None in
  let class_peaks =
    List.map
      (fun (cls : Context.interval_class) ->
        let per_zone =
          Array.map
            (fun table ->
              let avail = Context.zone_avail ctx cls.Context.avail table in
              let choices, capped = zone_solver ctx table ~avail in
              (choices, capped, Noise_table.zone_objective table ~choices))
            ctx.Context.tables
        in
        let peak =
          Array.fold_left (fun acc (_, _, p) -> Float.max acc p) 0.0 per_zone
        in
        (match !best with
        | Some (_, best_peak, _) when best_peak <= peak -> ()
        | Some _ | None -> best := Some (cls, peak, per_zone));
        peak)
      ctx.Context.classes
  in
  let outcome =
    Option.map
      (fun ((cls : Context.interval_class), peak, per_zone) ->
        {
          Context.assignment =
            Context.apply_choices ctx (Array.map (fun (c, _, _) -> c) per_zone);
          interval = cls.Context.interval;
          predicted_peak_ua = peak;
          zone_peaks = Array.map (fun (_, _, p) -> p) per_zone;
          approximate = Array.exists (fun (_, c, _) -> c) per_zone;
        })
      !best
  in
  (outcome, Array.of_list class_peaks)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_outcome tree (a : Context.outcome) (b : Context.outcome) =
  let same_asg id =
    Cell.equal
      (Assignment.cell a.Context.assignment id)
      (Assignment.cell b.Context.assignment id)
    && same_float
         (Assignment.extra_delay a.Context.assignment ~mode:0 id)
         (Assignment.extra_delay b.Context.assignment ~mode:0 id)
  in
  Array.for_all (fun nd -> same_asg nd.Tree.id) (Tree.nodes tree)
  && same_float a.Context.interval.Intervals.lo b.Context.interval.Intervals.lo
  && same_float a.Context.interval.Intervals.hi b.Context.interval.Intervals.hi
  && same_float a.Context.predicted_peak_ua b.Context.predicted_peak_ua
  && Array.length a.Context.zone_peaks = Array.length b.Context.zone_peaks
  && Array.for_all2 same_float a.Context.zone_peaks b.Context.zone_peaks
  && a.Context.approximate = b.Context.approximate

(* [zone_solver] wrapped to count its calls per (zone, avail); zone
   solves run on several domains at jobs > 1. *)
let counting (ctx : Context.t) zone_solver =
  let calls = Hashtbl.create 64 and lock = Mutex.create () in
  let wrapped c table ~avail =
    let zi = ref (-1) in
    Array.iteri (fun i t -> if t == table then zi := i) ctx.Context.tables;
    Mutex.protect lock (fun () ->
        let key = (!zi, avail) in
        Hashtbl.replace calls key
          (1 + Option.value ~default:0 (Hashtbl.find_opt calls key)));
    zone_solver c table ~avail
  in
  (calls, wrapped)

let prop_solve_with_matches_reference =
  let module Flight = Repro_obs.Flight in
  QCheck.Test.make ~count:12
    ~name:"solve_with == memo-free class loop, one solve per zone graph"
    QCheck.(
      quad (int_range 1 10000) (int_range 6 24) (oneofl [ 12.0; 20.0; 30.0 ])
        (oneofl [ 4; 16; 400 ]))
    (fun (seed, leaves, kappa, max_labels) ->
      let t = tree ~seed ~leaves ~internals:4 () in
      let params = { small_params with Context.kappa; max_labels } in
      List.for_all
        (fun cells ->
          let ctx = Context.create ~params t ~cells in
          (not (Context.feasible ctx))
          || List.for_all
               (fun zone_solver ->
                 let want, class_peaks = reference_solve ctx ~zone_solver in
                 let want = Option.get want in
                 List.for_all
                   (fun jobs ->
                     let calls, wrapped = counting ctx zone_solver in
                     let was_enabled = Flight.enabled ()
                     and capacity = Flight.capacity () in
                     Flight.set_capacity 100_000;
                     Flight.set_enabled true;
                     let got =
                       Fun.protect
                         ~finally:(fun () ->
                           Flight.set_enabled was_enabled;
                           Flight.set_capacity capacity)
                         (fun () ->
                           let got =
                             Repro_par.Par.with_jobs jobs (fun () ->
                                 Context.solve_with ctx ~zone_solver:wrapped)
                           in
                           (got, Flight.events ()))
                     in
                     let got, events = got in
                     let skips =
                       List.filter_map
                         (fun (e : Flight.event) ->
                           match e.Flight.kind with
                           | Flight.Class_skip { cls; peak_ua; best_ua; _ } ->
                             Some (cls, peak_ua, best_ua)
                           | _ -> None)
                         events
                     in
                     (* Every zone graph of the classes not skipped, each
                        solved exactly once. *)
                     let expected = Hashtbl.create 64 in
                     List.iteri
                       (fun ci (cls : Context.interval_class) ->
                         if not (List.exists (fun (c, _, _) -> c = ci) skips) then
                           Array.iteri
                             (fun zi table ->
                               Hashtbl.replace expected
                                 (zi, Context.zone_avail ctx cls.Context.avail table)
                                 ())
                             ctx.Context.tables)
                       ctx.Context.classes;
                     same_outcome t want got
                     && Hashtbl.length calls = Hashtbl.length expected
                     && Hashtbl.fold
                          (fun key n ok -> ok && n = 1 && Hashtbl.mem expected key)
                          calls true
                     (* A skip names a zone peak that bounds the class's
                        own peak and already loses to the incumbent. *)
                     && List.for_all
                          (fun (cls, peak, best) ->
                            best <= peak && peak <= class_peaks.(cls))
                          skips)
                   [ 1; 2; 4 ])
               [ Clk_wavemin.zone_solver; Clk_wavemin_f.zone_solver ])
        [ cells; adb_cells ])

(* ------------------------------------------------------------------ *)
(* ClkPeakMin and ClkSA on the shared class search                     *)

module Clk_sa = Repro_core.Clk_sa
module Anneal = Repro_sa.Anneal

(* The class loop ClkPeakMin kept before it ran on the shared search:
   every zone of every class, no memo, the class chosen by the balance
   objective (earlier wins a tie), the winner applied with
   [Context.apply_choices]. *)
let reference_peakmin (ctx : Context.t) =
  let tables = ctx.Context.tables in
  let best = ref None in
  List.iter
    (fun (cls : Context.interval_class) ->
      let choices =
        Array.map
          (fun table ->
            fst
              (Clk_peakmin.zone_solver ctx table
                 ~avail:(Context.zone_avail ctx cls.Context.avail table)))
          tables
      in
      let own =
        Array.fold_left Float.max 0.0
          (Array.map2
             (fun table choices ->
               Clk_peakmin.zone_balance_objective table ~choices)
             tables choices)
      in
      match !best with
      | Some (_, _, best_own) when best_own <= own -> ()
      | Some _ | None -> best := Some (cls, choices, own))
    ctx.Context.classes;
  Option.map
    (fun ((cls : Context.interval_class), choices, _) ->
      let zone_peaks =
        Array.map2
          (fun table choices -> Noise_table.zone_objective table ~choices)
          tables choices
      in
      {
        Context.assignment = Context.apply_choices ctx choices;
        interval = cls.Context.interval;
        predicted_peak_ua = Array.fold_left Float.max 0.0 zone_peaks;
        zone_peaks;
        approximate = false;
      })
    !best

(* ClkSA's own per-(class, zone) anneal loop, kept as the reference:
   the top [max_classes] classes, a cold start at each sink's first
   admitted candidate, stream [(class * zones) + zone], stats summed in
   (class, zone) order. *)
let reference_sa (ctx : Context.t) =
  let config = Clk_sa.default_config in
  let nzones = Array.length ctx.Context.tables in
  let classes =
    List.filteri (fun i _ -> i < config.Clk_sa.max_classes) ctx.Context.classes
  in
  let best = ref None and total = ref Anneal.zero_stats in
  List.iteri
    (fun cls_idx (cls : Context.interval_class) ->
      let per_zone =
        Array.mapi
          (fun zi (table : Noise_table.t) ->
            let avail = Context.zone_avail ctx cls.Context.avail table in
            let tags =
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
            in
            let init =
              Array.map
                (fun row ->
                  let rec first i = if row.(i) then i else first (i + 1) in
                  first 0)
                avail
            in
            let choices, _, stats =
              Anneal.solve ~zone:zi ~config:config.Clk_sa.anneal
                {
                  Repro_sa.Eval.rows = table.Noise_table.noise;
                  base = table.Noise_table.nonleaf;
                  avail;
                }
                ~tags ~init
                ~rng:
                  (Rng.of_instance ~seed:config.Clk_sa.seed
                     ((cls_idx * nzones) + zi))
            in
            total := Anneal.add_stats !total stats;
            (choices, Noise_table.zone_objective table ~choices))
          ctx.Context.tables
      in
      let peak =
        Array.fold_left (fun acc (_, p) -> Float.max acc p) 0.0 per_zone
      in
      match !best with
      | Some (_, best_peak, _) when best_peak <= peak -> ()
      | Some _ | None -> best := Some (cls, peak, per_zone))
    classes;
  let t = !total in
  ( Option.map
      (fun ((cls : Context.interval_class), peak, per_zone) ->
        {
          Context.assignment =
            Context.apply_choices ctx (Array.map fst per_zone);
          interval = cls.Context.interval;
          predicted_peak_ua = peak;
          zone_peaks = Array.map snd per_zone;
          approximate = false;
        })
      !best,
    {
      Clk_sa.zones = List.length classes * nzones;
      proposed = t.Anneal.proposed;
      accepted = t.Anneal.accepted;
      rejected = t.Anneal.rejected;
      flips = t.Anneal.flips;
      resizes = t.Anneal.resizes;
      pairs = t.Anneal.pairs;
      restarts = t.Anneal.restarts_done;
    } )

let prop_peakmin_sa_match_reference =
  QCheck.Test.make ~count:8
    ~name:"peakmin, sa == their own class loops at jobs 1/2/4"
    QCheck.(
      triple (int_range 1 10000) (int_range 6 24) (oneofl [ 12.0; 20.0; 30.0 ]))
    (fun (seed, leaves, kappa) ->
      let t = tree ~seed ~leaves ~internals:4 () in
      let params = { small_params with Context.kappa } in
      List.for_all
        (fun cells ->
          let ctx = Context.create ~params t ~cells in
          (not (Context.feasible ctx))
          ||
          let peakmin = Option.get (reference_peakmin ctx) in
          let sa, sa_stats = reference_sa ctx in
          let sa = Option.get sa in
          List.for_all
            (fun jobs ->
              Repro_par.Par.with_jobs jobs (fun () ->
                  let got_sa, got_stats = Clk_sa.optimize_stats ctx in
                  same_outcome t peakmin (Clk_peakmin.optimize ctx)
                  && same_outcome t sa got_sa
                  && got_stats = sa_stats))
            [ 1; 2; 4 ])
        [ cells; adb_cells ])

(* ClkPeakMin used to apply only the chosen cell, dropping the delay
   step of every adjustable candidate it picked.  Re-solve the winning
   class's zones with the exposed zone solver (a pure function of
   (table, avail)) and check each leaf carries its choice's cell and
   extra delay. *)
let test_peakmin_applies_extra_delay () =
  let ctx = Context.create ~params:small_params (tree ()) ~cells:adb_cells in
  let o = Clk_peakmin.optimize ctx in
  let cls =
    List.find
      (fun (c : Context.interval_class) ->
        c.Context.interval = o.Context.interval)
      ctx.Context.classes
  in
  let stepped = ref 0 in
  Array.iter
    (fun (table : Noise_table.t) ->
      let choices, _ =
        Clk_peakmin.zone_solver ctx table
          ~avail:(Context.zone_avail ctx cls.Context.avail table)
      in
      Array.iteri
        (fun i ci ->
          let sink = table.Noise_table.sinks.(i) in
          let cand = sink.Intervals.candidates.(ci) in
          let leaf = sink.Intervals.leaf_id in
          Alcotest.(check bool) "chosen cell" true
            (Cell.equal cand.Intervals.cell
               (Assignment.cell o.Context.assignment leaf));
          if Cell.is_adjustable cand.Intervals.cell then begin
            if cand.Intervals.extra <> 0.0 then incr stepped;
            Alcotest.(check (float 0.0))
              (Printf.sprintf "leaf %d extra delay" leaf)
              cand.Intervals.extra
              (Assignment.extra_delay o.Context.assignment ~mode:0 leaf)
          end)
        choices)
    ctx.Context.tables;
  Alcotest.(check bool) "some chosen candidate has a delay step" true
    (!stepped > 0)

let () =
  Alcotest.run "repro_core_solvers"
    [
      ( "context",
        [
          Alcotest.test_case "feasible" `Quick test_context_feasible;
          Alcotest.test_case "classes sorted" `Quick
            test_context_classes_sorted_by_dof;
          Alcotest.test_case "rejects empty cells" `Quick
            test_context_rejects_empty_cells;
          Alcotest.test_case "infeasible kappa" `Quick test_context_infeasible_kappa;
          Alcotest.test_case "infeasible window pinned" `Quick
            test_infeasible_window_pinned;
        ] );
      ( "skew safety",
        [
          Alcotest.test_case "wavemin" `Quick test_wavemin_skew;
          Alcotest.test_case "wavemin-f" `Quick test_wavemin_f_skew;
          Alcotest.test_case "peakmin" `Quick test_peakmin_skew;
        ] );
      ( "quality",
        [
          Alcotest.test_case "wavemin <= greedy estimate" `Quick
            test_wavemin_predicts_leq_greedy;
          Alcotest.test_case "beats initial (golden)" `Quick
            test_optimized_beats_initial_golden;
          Alcotest.test_case "polarity mix" `Quick test_polarity_mix_produced;
          Alcotest.test_case "choices available" `Quick test_zone_choices_are_available;
          Alcotest.test_case "peakmin balances" `Quick test_peakmin_balances_rails;
          Alcotest.test_case "peakmin objective" `Quick test_peakmin_balance_objective;
          Alcotest.test_case "peakmin applies extra delay" `Quick
            test_peakmin_applies_extra_delay;
          Alcotest.test_case "mosp rejects empty row" `Quick
            test_mosp_encoding_rejects_empty_row;
          Alcotest.test_case "mosp structure (Algorithm 1)" `Quick
            test_mosp_encoding_structure;
        ] );
      ( "flow",
        [
          Alcotest.test_case "run tree" `Quick test_flow_run_tree;
          Alcotest.test_case "context built once" `Quick
            test_flow_context_built_once;
          Alcotest.test_case "failed context not memoized" `Quick
            test_flow_failed_context_not_memoized;
          Alcotest.test_case "improvement pct" `Quick test_flow_improvement_pct;
          Alcotest.test_case "names" `Quick test_flow_names;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_all_solvers_respect_kappa; prop_solve_with_matches_reference;
            prop_peakmin_sa_match_reference ]
      );
    ]
