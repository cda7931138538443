(* Bechamel micro-benchmarks: one Test.make per reproduced table's
   algorithmic kernel, timed on a fixed s13207 zone workload so the
   runtime comparison of Table VI has a rigorous counterpart. *)

open Bechamel
open Toolkit

module Context = Repro_core.Context
module Noise_table = Repro_core.Noise_table
module Waveforms = Repro_core.Waveforms
module Flow = Repro_core.Flow
module Pareto = Repro_mosp.Pareto
module Pwl = Repro_waveform.Pwl

let make_workload () =
  let spec = Repro_cts.Benchmarks.find "s13207" in
  let tree = Repro_cts.Benchmarks.synthesize spec in
  let params = { Context.default_params with Context.num_slots = 32 } in
  let ctx = Context.create ~params tree ~cells:(Flow.leaf_library ()) in
  let cls = List.hd ctx.Context.classes in
  let table = ctx.Context.tables.(0) in
  let avail =
    Array.map (fun row -> cls.Context.avail.(row)) table.Noise_table.sink_rows
  in
  (ctx, table, avail)

(* The first zone of the same tree as a Warburton instance at the
   default parameters: 158 slots, so 158 objectives per label — the
   regime where per-label ε-grid work shows, unlike the 32-slot workload
   above. *)
let default_zone_graph (ctx : Context.t) =
  let ctx =
    Context.create ~params:Context.default_params ctx.Context.tree
      ~cells:(Flow.leaf_library ())
  in
  let cls = List.hd ctx.Context.classes in
  let table = ctx.Context.tables.(0) in
  let avail =
    Array.map (fun row -> cls.Context.avail.(row)) table.Noise_table.sink_rows
  in
  (ctx.Context.params, fst (Repro_core.Clk_wavemin.to_mosp table ~avail))

(* Micro-kernels introduced by the flat-array rewrite: the dominance
   filter, in-place PWL sampling, the candidate-waveform memo, and the
   Warburton label kernel at full slot count. *)
let kernel_tests ctx =
  let test name f = Test.make ~name (Staged.stage f) in
  let params, zone_graph = default_zone_graph ctx in
  (* Synthetic Pareto frontier: 256 six-dimensional labels, the size
     regime where the solver still runs the exact dominance filter. *)
  let rng = Repro_util.Rng.create ~seed:7 in
  let labels =
    List.init 256 (fun _ ->
        { Pareto.cost =
            Array.init 6 (fun _ -> Repro_util.Rng.float rng ~bound:100.0);
          choices_rev = [] })
  in
  let rise =
    Pwl.triangle ~start:0.0 ~peak_time:40.0 ~finish:120.0 ~height:900.0
  in
  let fall =
    Pwl.triangle ~start:10.0 ~peak_time:70.0 ~finish:200.0 ~height:650.0
  in
  let times = Array.init 64 (fun i -> float_of_int i *. 3.5) in
  let buf = Array.make 64 0.0 in
  let tree = ctx.Context.tree in
  let base = ctx.Context.base in
  let env = ctx.Context.env in
  let rising = ctx.Context.timing in
  let falling =
    Repro_clocktree.Timing.analyze tree base env
      ~edge:Repro_cell.Electrical.Falling
  in
  let sinks = ctx.Context.sinks in
  let zone = (Repro_core.Zones.zones ctx.Context.zones).(0) in
  let num_slots = ctx.Context.params.Context.num_slots in
  let build cache =
    Noise_table.build tree base env ~rising ~falling ~sinks ~zone ~num_slots
      ~cache ()
  in
  let warm_cache = Waveforms.create_cache () in
  ignore (build warm_cache);
  Test.make_grouped ~name:"kernels"
    [ test "Pareto.non_dominated (256x6)" (fun () ->
          Pareto.non_dominated labels);
      test "Pwl.add + eval (allocating)" (fun () ->
          let w = Pwl.add rise fall in
          Array.iteri (fun i t -> buf.(i) <- Pwl.eval w t) times);
      test "Pwl.sample_into + add_into (in place)" (fun () ->
          Pwl.sample_into rise ~times ~into:buf;
          Pwl.add_into fall ~times ~into:buf);
      test "Noise_table.build (cold cache)" (fun () ->
          build (Waveforms.create_cache ()));
      test "Noise_table.build (warm cache)" (fun () -> build warm_cache);
      test "Warburton.solve_min_max (158 slots)" (fun () ->
          Repro_mosp.Warburton.solve_min_max ~epsilon:params.Context.epsilon
            ~max_labels:params.Context.max_labels zone_graph) ]

(* The annealer's core claim, measured: one move evaluated incrementally
   (subtract the old candidate row, add the new one, peak over slots —
   then an O(1) discard), the same move decided by the fused Metropolis
   scan (which stops at a slot that proves the rejection), and the full
   zone objective re-summed from scratch.  All walk the same cyclic move
   schedule. *)
let sa_eval_tests table avail =
  let module Eval = Repro_sa.Eval in
  let test name f = Test.make ~name (Staged.stage f) in
  let first_avail s =
    let rec go c = if avail.(s).(c) then c else go (c + 1) in
    go 0
  in
  let init = Array.mapi (fun s _ -> first_avail s) avail in
  let problem =
    { Eval.rows = table.Noise_table.noise;
      base = table.Noise_table.nonleaf;
      avail }
  in
  let ev = Eval.create problem ~init in
  let rng = Repro_util.Rng.create ~seed:11 in
  let moves =
    Array.init 256 (fun _ ->
        let s =
          Repro_util.Rng.int rng ~bound:(Array.length avail)
        in
        let cands =
          List.filter
            (fun c -> avail.(s).(c))
            (List.init (Array.length avail.(s)) Fun.id)
        in
        let c =
          List.nth cands
            (Repro_util.Rng.int rng ~bound:(List.length cands))
        in
        (s, c))
  in
  let choices = Array.copy init in
  let i = ref 0 and j = ref 0 and d = ref 0 in
  let sites = [| 0 |] and cands = [| 0 |] in
  (* The annealer's T0 calibration over this move schedule (a mean
     uphill move accepted with probability 0.8), cooled by 1/20, about
     60 stages of its 0.95 cooling: a mid-anneal temperature. *)
  let temp =
    let cur = Eval.objective ev and sum = ref 0.0 and count = ref 0 in
    Array.iter
      (fun (s, c) ->
        sites.(0) <- s;
        cands.(0) <- c;
        Eval.propose ev ~sites ~cands;
        Eval.discard ev;
        let delta = (Eval.score ev).Eval.proposed -. cur in
        if delta > 0.0 then begin
          sum := !sum +. delta;
          incr count
        end)
      moves;
    if !count = 0 then 1e-3
    else !sum /. float_of_int !count /. -.log 0.8 /. 20.0
  in
  let draws = Repro_util.Rng.create ~seed:13 in
  Test.make_grouped ~name:"sa-eval"
    [ test "delta eval per move (propose+discard)" (fun () ->
          let s, c = moves.(!i land 255) in
          incr i;
          sites.(0) <- s;
          cands.(0) <- c;
          Eval.propose ev ~sites ~cands;
          Eval.discard ev);
      (* The same moves, each proposed and decided in one call; an
         accepted one is discarded too, so every move sees the same
         committed state. *)
      test "decide per move (propose_metropolis+discard)" (fun () ->
          let s, c = moves.(!d land 255) in
          incr d;
          sites.(0) <- s;
          cands.(0) <- c;
          ignore (Eval.propose_metropolis ev ~sites ~cands ~temp ~rng:draws);
          Eval.discard ev);
      test "full zone_objective per move" (fun () ->
          let s, c = moves.(!j land 255) in
          incr j;
          let old = choices.(s) in
          choices.(s) <- c;
          ignore (Noise_table.zone_objective table ~choices);
          choices.(s) <- old) ]

let run () =
  Bench_common.section
    "Bechamel — zone-solver kernels (Table V/VI runtime counterpart, one s13207 zone)";
  let ctx, table, avail =
    Bench_common.report_stage "workload_setup" make_workload
  in
  let test name f = Test.make ~name (Staged.stage f) in
  let grouped =
    Test.make_grouped ~name:"wavemin"
      [ Test.make_grouped ~name:"zone-solvers"
          [ test "ClkWaveMin (Warburton)" (fun () ->
                Repro_core.Clk_wavemin.zone_solver ctx table ~avail);
            test "ClkWaveMin-f (greedy)" (fun () ->
                Repro_core.Clk_wavemin_f.zone_solver ctx table ~avail);
            test "ClkPeakMin (knapsack DP)" (fun () ->
                Repro_core.Clk_peakmin.zone_solver ctx table ~avail) ];
        kernel_tests ctx;
        sa_eval_tests table avail ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw =
    Bench_common.report_stage "measure" (fun () ->
        Benchmark.all cfg [ instance ] grouped)
  in
  let results = Analyze.all ols instance raw in
  Hashtbl.iter
    (fun name stats ->
      match Analyze.OLS.estimates stats with
      | Some (est :: _) ->
        Bench_common.record ~benchmark:"s13207-zone" ~algorithm:name
          ~runtime:[ ("ns_per_run", est) ]
          ();
        Bench_common.note "%-48s %14.1f ns/run" name est
      | Some [] | None -> Bench_common.note "%-48s (no estimate)" name)
    results
