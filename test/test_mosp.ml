module Layered = Repro_mosp.Layered
module Pareto = Repro_mosp.Pareto
module Warburton = Repro_mosp.Warburton

let check_close eps = Alcotest.(check (float eps))

let w xs = Array.of_list xs

(* A 2-row, 2-objective instance with a known min-max optimum:
   row 0: options (10,0) and (0,10); row 1: options (8,1) and (1,8);
   dest (0,0).  Balanced picks give (11,8) or (8,11) -> objective 11;
   unbalanced give (18,1)/(1,18).  *)
let small_graph () =
  Layered.create
    ~options:
      [| [| w [ 10.; 0. ]; w [ 0.; 10. ] |];
         [| w [ 8.; 1. ]; w [ 1.; 8. ] |] |]
    ~dest_weight:(w [ 0.; 0. ])

(* ------------------------------------------------------------------ *)
(* Layered                                                             *)

let test_layered_counts () =
  let g = small_graph () in
  Alcotest.(check int) "rows" 2 (Layered.num_rows g);
  Alcotest.(check int) "dim" 2 (Layered.dimension g);
  Alcotest.(check int) "vertices" 6 (Layered.num_vertices g);
  (* src->2 + 2*2 + 2->dest = 8 *)
  Alcotest.(check int) "arcs" 8 (Layered.num_arcs g)

let test_layered_path_cost () =
  let g = small_graph () in
  let c = Layered.path_cost g ~choices:[| 0; 1 |] in
  check_close 1e-12 "x" 11.0 c.(0);
  check_close 1e-12 "y" 8.0 c.(1)

let test_layered_validation () =
  Alcotest.check_raises "empty row"
    (Invalid_argument "Layered.create: empty row 0") (fun () ->
      ignore (Layered.create ~options:[| [||] |] ~dest_weight:(w [ 0. ])));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Layered.create: weight dimension mismatch") (fun () ->
      ignore
        (Layered.create ~options:[| [| w [ 1.; 2. ] |] |] ~dest_weight:(w [ 0. ])));
  Alcotest.check_raises "negative"
    (Invalid_argument "Layered.create: negative weight component") (fun () ->
      ignore (Layered.create ~options:[| [| w [ -1. ] |] |] ~dest_weight:(w [ 0. ])))

let test_layered_bad_choices () =
  let g = small_graph () in
  Alcotest.check_raises "arity"
    (Invalid_argument "Layered.path_cost: wrong number of choices") (fun () ->
      ignore (Layered.path_cost g ~choices:[| 0 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Layered.path_cost: choice out of range") (fun () ->
      ignore (Layered.path_cost g ~choices:[| 0; 5 |]))

(* ------------------------------------------------------------------ *)
(* Pareto                                                              *)

let lbl xs = { Pareto.cost = w xs; choices_rev = [] }

let test_dominates () =
  Alcotest.(check bool) "dominates" true (Pareto.dominates (w [ 1.; 2. ]) (w [ 2.; 2. ]));
  Alcotest.(check bool) "self" true (Pareto.dominates (w [ 1.; 2. ]) (w [ 1.; 2. ]));
  Alcotest.(check bool) "incomparable" false
    (Pareto.dominates (w [ 1.; 3. ]) (w [ 2.; 2. ]));
  Alcotest.(check bool) "dim mismatch" false (Pareto.dominates (w [ 1. ]) (w [ 1.; 2. ]))

let test_insert_prunes () =
  let set = Pareto.insert [ lbl [ 1.; 3. ] ] (lbl [ 3.; 1. ]) in
  Alcotest.(check int) "both kept" 2 (List.length set);
  let set = Pareto.insert set (lbl [ 0.5; 0.5 ]) in
  Alcotest.(check int) "dominator evicts" 1 (List.length set);
  let set = Pareto.insert set (lbl [ 1.0; 1.0 ]) in
  Alcotest.(check int) "dominated dropped" 1 (List.length set)

let test_non_dominated () =
  let set =
    Pareto.non_dominated [ lbl [ 1.; 5. ]; lbl [ 5.; 1. ]; lbl [ 3.; 3. ]; lbl [ 6.; 6. ] ]
  in
  Alcotest.(check int) "frontier" 3 (List.length set)

let test_grid_prune () =
  let labels = [ lbl [ 1.0; 1.0 ]; lbl [ 1.1; 1.1 ]; lbl [ 5.0; 5.0 ] ] in
  let pruned = Pareto.grid_prune ~deltas:(w [ 2.0; 2.0 ]) labels in
  Alcotest.(check int) "two cells" 2 (List.length pruned);
  (* Zero deltas = identity. *)
  Alcotest.(check int) "identity" 3
    (List.length (Pareto.grid_prune ~deltas:(w [ 0.0; 0.0 ]) labels))

let test_grid_prune_keeps_best () =
  let labels = [ lbl [ 1.9; 0.1 ]; lbl [ 1.0; 1.0 ] ] in
  (* Same cell under delta 2; representative is the min-max one. *)
  match Pareto.grid_prune ~deltas:(w [ 2.0; 2.0 ]) labels with
  | [ kept ] -> check_close 1e-12 "min max kept" 1.0 (Pareto.max_component kept)
  | l -> Alcotest.failf "expected 1, got %d" (List.length l)

let test_best_min_max () =
  (match Pareto.best_min_max [ lbl [ 9.; 1. ]; lbl [ 4.; 5. ]; lbl [ 6.; 6. ] ] with
  | Some best -> check_close 1e-12 "objective" 5.0 (Pareto.max_component best)
  | None -> Alcotest.fail "expected a label");
  Alcotest.(check bool) "empty" true (Pareto.best_min_max [] = None)

(* ------------------------------------------------------------------ *)
(* Warburton                                                           *)

let test_exhaustive_small () =
  let s = Warburton.exhaustive_min_max (small_graph ()) in
  check_close 1e-12 "objective" 11.0 s.Warburton.objective

let test_solver_matches_exhaustive_small () =
  let g = small_graph () in
  let s = Warburton.solve_min_max ~epsilon:0.0 g in
  check_close 1e-12 "exact epsilon=0" 11.0 s.Warburton.objective;
  let c = Layered.path_cost g ~choices:s.Warburton.choices in
  check_close 1e-12 "cost consistent"
    (Array.fold_left Float.max 0.0 c)
    s.Warburton.objective

let test_dest_weight_changes_optimum () =
  (* Observation 1: a biased dest (non-leaf) vector flips the optimal
     choice.  One row, options (10,0) vs (0,10); dest (0,9) makes the
     first option optimal (max 10 vs max 19). *)
  let g =
    Layered.create
      ~options:[| [| w [ 10.; 0. ]; w [ 0.; 10. ] |] |]
      ~dest_weight:(w [ 0.; 9. ])
  in
  let s = Warburton.solve_min_max ~epsilon:0.0 g in
  Alcotest.(check (array int)) "choice" [| 0 |] s.Warburton.choices;
  check_close 1e-12 "objective" 10.0 s.Warburton.objective

let test_pareto_paths_nondominated () =
  let g = small_graph () in
  let paths = Warburton.pareto_paths ~epsilon:0.0 g in
  List.iter
    (fun (a : Pareto.label) ->
      List.iter
        (fun (b : Pareto.label) ->
          if a != b then
            Alcotest.(check bool) "no strict domination" false
              (Pareto.dominates a.Pareto.cost b.Pareto.cost
              && a.Pareto.cost <> b.Pareto.cost))
        paths)
    paths

let test_epsilon_within_bound () =
  (* ε-approximation must stay within (1+ε) of the exact min-max. *)
  let rng = Repro_util.Rng.create ~seed:8 in
  for _ = 1 to 20 do
    let rows = 1 + Repro_util.Rng.int rng ~bound:5 in
    let dim = 1 + Repro_util.Rng.int rng ~bound:4 in
    let options =
      Array.init rows (fun _ ->
          Array.init
            (1 + Repro_util.Rng.int rng ~bound:4)
            (fun _ ->
              Array.init dim (fun _ -> Repro_util.Rng.float rng ~bound:100.0)))
    in
    let dest = Array.init dim (fun _ -> Repro_util.Rng.float rng ~bound:50.0) in
    let g = Layered.create ~options ~dest_weight:dest in
    let exact = Warburton.exhaustive_min_max g in
    let eps = 0.05 in
    let approx = Warburton.solve_min_max ~epsilon:eps g in
    Alcotest.(check bool) "within (1+eps)" true
      (approx.Warburton.objective
      <= (1.0 +. eps) *. exact.Warburton.objective +. 1e-6);
    Alcotest.(check bool) "not better than optimal" true
      (approx.Warburton.objective >= exact.Warburton.objective -. 1e-6)
  done

let test_max_labels_cap_safe () =
  (* Even with a tiny cap a valid path must come out. *)
  let g = small_graph () in
  let s = Warburton.solve_min_max ~max_labels:1 g in
  let c = Layered.path_cost g ~choices:s.Warburton.choices in
  check_close 1e-12 "consistent" (Array.fold_left Float.max 0.0 c) s.Warburton.objective

let test_exhaustive_guard () =
  let options = Array.make 30 [| w [ 1. ]; w [ 2. ] |] in
  let g = Layered.create ~options ~dest_weight:(w [ 0. ]) in
  Alcotest.check_raises "guard"
    (Invalid_argument "Warburton.exhaustive_min_max: too many paths") (fun () ->
      ignore (Warburton.exhaustive_min_max g))

let test_invalid_epsilon () =
  Alcotest.check_raises "epsilon"
    (Invalid_argument "Warburton.pareto_paths: epsilon < 0") (fun () ->
      ignore (Warburton.pareto_paths ~epsilon:(-0.1) (small_graph ())))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let instance_gen =
  QCheck.make
    ~print:(fun (rows, dim, seed) -> Printf.sprintf "rows=%d dim=%d seed=%d" rows dim seed)
    QCheck.Gen.(
      let* rows = int_range 1 4 in
      let* dim = int_range 1 3 in
      let* seed = int_range 0 10000 in
      return (rows, dim, seed))

(* Oracle instances: up to 6 rows of up to 4 options (4096 paths, well
   under the default label cap, so no row is ever truncated), in as
   many objectives as a real zone (158 slots). *)
let oracle_gen =
  QCheck.make
    ~print:(fun (rows, dim, seed) -> Printf.sprintf "rows=%d dim=%d seed=%d" rows dim seed)
    QCheck.Gen.(
      let* rows = int_range 1 6 in
      let* dim = oneof [ int_range 1 8; oneofl [ 40; 158 ] ] in
      let* seed = int_range 0 10000 in
      return (rows, dim, seed))

let build_instance (rows, dim, seed) =
  let rng = Repro_util.Rng.create ~seed in
  let options =
    Array.init rows (fun _ ->
        Array.init
          (1 + Repro_util.Rng.int rng ~bound:3)
          (fun _ -> Array.init dim (fun _ -> Repro_util.Rng.float rng ~bound:50.0)))
  in
  let dest = Array.init dim (fun _ -> Repro_util.Rng.float rng ~bound:20.0) in
  Layered.create ~options ~dest_weight:dest

let prop_exact_matches_exhaustive =
  QCheck.Test.make ~name:"epsilon=0 matches exhaustive min-max" ~count:100
    oracle_gen (fun params ->
      let g = build_instance params in
      let a = Warburton.solve_min_max ~epsilon:0.0 g in
      let b = Warburton.exhaustive_min_max g in
      Float.abs (a.Warburton.objective -. b.Warburton.objective) < 1e-6)

let prop_epsilon_within_exhaustive =
  QCheck.Test.make ~name:"epsilon>0 within (1+epsilon) of exhaustive min-max"
    ~count:100
    (QCheck.pair oracle_gen (QCheck.oneofl [ 0.01; 0.05; 0.5; 5.0 ]))
    (fun (params, epsilon) ->
      let g = build_instance params in
      let a = Warburton.solve_min_max ~epsilon g in
      let b = Warburton.exhaustive_min_max g in
      (not a.Warburton.capped)
      && a.Warburton.objective >= b.Warburton.objective -. 1e-6
      && a.Warburton.objective
         <= ((1.0 +. epsilon) *. b.Warburton.objective) +. 1e-6)

let prop_solution_cost_consistent =
  QCheck.Test.make ~name:"reported cost equals path cost" ~count:100 instance_gen
    (fun params ->
      let g = build_instance params in
      let s = Warburton.solve_min_max g in
      let c = Layered.path_cost g ~choices:s.Warburton.choices in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) c s.Warburton.cost)

(* ------------------------------------------------------------------ *)
(* Reference kernel                                                    *)

(* The label DP restated naively, in the shape of the earlier
   string-keyed kernel: list extension (label-major, choice-minor), an ε-grid prune on
   packed byte-string cell keys kept in first-seen cell order (smallest
   cached max wins a cell, the first seen on ties), dominance when
   dim <= 8 and at most 256 labels, and a cap ranked by
   (projection, extension index).  Every float is computed in the same
   order as the kernel, so the two must agree bit for bit. *)
type ref_label = { cost : float array; max_c : float; choices : int list }

let max_from_zero a = Array.fold_left (fun m v -> if v > m then v else m) 0.0 a

let row_minima dim row =
  Array.init dim (fun k ->
      Array.fold_left (fun acc w -> Float.min acc w.(k)) infinity row)

let reference_pareto ~epsilon ~max_labels graph =
  let rows = Layered.options graph in
  let dim = Layered.dimension graph in
  let dest = Layered.dest_weight graph in
  let num_rows = Array.length rows in
  let minima = Array.map (row_minima dim) rows in
  let deltas =
    if epsilon = 0.0 then Array.make dim 0.0
    else begin
      let lb = Array.copy dest in
      Array.iter (fun m -> Array.iteri (fun k v -> lb.(k) <- lb.(k) +. v) m) minima;
      Array.map (fun l -> epsilon *. l /. float_of_int (num_rows + 1)) lb
    end
  in
  let suffix = Array.make (num_rows + 1) dest in
  for i = num_rows - 1 downto 0 do
    suffix.(i) <- Array.mapi (fun k v -> v +. minima.(i).(k)) suffix.(i + 1)
  done;
  let dominates a b =
    let r = ref true in
    Array.iteri (fun d v -> if not (v <= b.cost.(d)) then r := false) a.cost;
    !r
  in
  let capped = ref false in
  let step labels row_index row =
    let ext =
      List.concat_map
        (fun l ->
          Array.to_list
            (Array.mapi
               (fun c w ->
                 let cost = Array.mapi (fun d v -> v +. w.(d)) l.cost in
                 { cost; max_c = max_from_zero cost; choices = c :: l.choices })
               row))
        labels
    in
    let ext = List.mapi (fun i l -> (i, l)) ext in
    let gridded =
      if Array.for_all (fun d -> d <= 0.0) deltas then ext
      else begin
        let table = Hashtbl.create 64 in
        let order = ref [] in
        List.iter
          (fun ((_, l) as x) ->
            let b = Buffer.create (8 * dim) in
            Array.iteri
              (fun d c ->
                let dlt = deltas.(d) in
                Buffer.add_int64_le b
                  (if dlt <= 0.0 then Int64.bits_of_float c
                   else Int64.of_float (floor (c /. dlt))))
              l.cost;
            let key = Buffer.contents b in
            match Hashtbl.find_opt table key with
            | Some (_, j) when j.max_c <= l.max_c -> ()
            | Some _ -> Hashtbl.replace table key x
            | None ->
              Hashtbl.add table key x;
              order := key :: !order)
          ext;
        List.rev_map (Hashtbl.find table) !order
      end
    in
    let filtered =
      if not (dim <= 8 && List.length gridded <= 256) then gridded
      else
        List.fold_left
          (fun kept ((_, l) as x) ->
            if List.exists (fun (_, k) -> k.max_c <= l.max_c && dominates k l) kept
            then kept
            else
              List.filter
                (fun (_, k) -> not (l.max_c <= k.max_c && dominates l k))
                kept
              @ [ x ])
          [] gridded
    in
    if List.length filtered <= max_labels then List.map snd filtered
    else begin
      capped := true;
      let remaining = suffix.(row_index + 1) in
      filtered
      |> List.map (fun (i, l) ->
             (max_from_zero (Array.mapi (fun d v -> v +. remaining.(d)) l.cost), i, l))
      |> List.sort (fun (a, ia, _) (b, ib, _) ->
             match Float.compare a b with 0 -> Int.compare ia ib | c -> c)
      |> List.filteri (fun r _ -> r < max_labels)
      |> List.map (fun (_, _, l) -> l)
    end
  in
  let start = [ { cost = Array.make dim 0.0; max_c = 0.0; choices = [] } ] in
  let final =
    snd
      (Array.fold_left
         (fun (i, labels) row -> (i + 1, step labels i row))
         (0, start) rows)
  in
  let with_dest =
    List.map
      (fun l ->
        { Pareto.cost = Array.mapi (fun d v -> v +. dest.(d)) l.cost;
          choices_rev = l.choices })
      final
  in
  let result =
    if dim <= 8 && List.length with_dest <= 256 then Pareto.non_dominated with_dest
    else with_dest
  in
  (result, !capped)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Instances built to make grid cells collide: small-integer weights
   (or coarse floats) and options that repeat an earlier option of the
   same row, so equal-cost prefixes reach the same cell and the
   first-seen tie-break decides the survivor. *)
let reference_gen =
  QCheck.make
    ~print:(fun (dim, rows, eps, cap, seed) ->
      Printf.sprintf "dim=%d rows=%d epsilon=%g max_labels=%d seed=%d" dim rows
        eps cap seed)
    QCheck.Gen.(
      let* dim = oneof [ int_range 1 8; oneofl [ 40; 158 ] ] in
      let* rows = int_range 1 8 in
      let* eps = oneofl [ 0.0; 0.01; 0.5; 5.0 ] in
      let* cap = oneofl [ 1; 7; 400 ] in
      let* seed = int_range 0 100_000 in
      return (dim, rows, eps, cap, seed))

let build_colliding (dim, rows, _, _, seed) =
  let rng = Repro_util.Rng.create ~seed in
  let integral = Repro_util.Rng.bool rng in
  let value () =
    if integral then float_of_int (Repro_util.Rng.int rng ~bound:4)
    else Repro_util.Rng.float rng ~bound:50.0
  in
  let options =
    Array.init rows (fun _ ->
        let k = 1 + Repro_util.Rng.int rng ~bound:6 in
        let row = Array.make k [||] in
        for c = 0 to k - 1 do
          row.(c) <-
            (if c > 0 && Repro_util.Rng.int rng ~bound:3 = 0 then
               Array.copy row.(Repro_util.Rng.int rng ~bound:c)
             else Array.init dim (fun _ -> value ()))
        done;
        row)
  in
  let dest = Array.init dim (fun _ -> value ()) in
  Layered.create ~options ~dest_weight:dest

let labels_agree (got, got_capped) (want, want_capped) =
  got_capped = want_capped
  && List.length got = List.length want
  && List.for_all2
       (fun (a : Pareto.label) (b : Pareto.label) ->
         same_bits a.Pareto.cost b.Pareto.cost
         && a.Pareto.choices_rev = b.Pareto.choices_rev)
       got want

let prop_matches_reference =
  QCheck.Test.make ~name:"kernel matches naive reference bit for bit" ~count:300
    reference_gen (fun ((_, _, epsilon, max_labels, _) as params) ->
      let g = build_colliding params in
      labels_agree
        (Warburton.pareto_paths_capped ~epsilon ~max_labels g)
        (reference_pareto ~epsilon ~max_labels g))

(* Grid quotients far outside the range the kernel hashes inline: every
   row offers a near-zero option, so the lower bounds (and the cell
   sizes) are denormal or zero while other costs are ordinary or huge —
   quotients past 2^62, infinite costs, zero-size cells.  Cells must
   still form exactly as in the reference. *)
let test_reference_extreme_quotients () =
  let rng = Repro_util.Rng.create ~seed:5 in
  for _ = 1 to 60 do
    let dim = 1 + Repro_util.Rng.int rng ~bound:4 in
    let value () =
      match Repro_util.Rng.int rng ~bound:5 with
      | 0 -> 0.0
      | 1 -> 1e-300
      | 2 -> 1e300
      | _ -> float_of_int (Repro_util.Rng.int rng ~bound:3)
    in
    let options =
      Array.init
        (1 + Repro_util.Rng.int rng ~bound:5)
        (fun _ ->
          Array.init
            (2 + Repro_util.Rng.int rng ~bound:3)
            (fun c ->
              if c = 0 then Array.init dim (fun _ -> Repro_util.Rng.pick rng [ 0.0; 1e-300 ])
              else Array.init dim (fun _ -> value ())))
    in
    let g = Layered.create ~options ~dest_weight:(Array.make dim 0.0) in
    List.iter
      (fun (epsilon, max_labels) ->
        Alcotest.(check bool)
          (Printf.sprintf "epsilon=%g max_labels=%d" epsilon max_labels)
          true
          (labels_agree
             (Warburton.pareto_paths_capped ~epsilon ~max_labels g)
             (reference_pareto ~epsilon ~max_labels g)))
      [ (0.01, 400); (0.5, 7); (5.0, 1); (5.0, 400) ]
  done

(* ------------------------------------------------------------------ *)
(* Counter parity                                                      *)

(* What the kernel prunes and caps on a real circuit, pinned: s13207
   ClkWaveMin at the default parameters.  A kernel rewrite that returns
   the same solution but prunes or caps differently changes these.  The
   Label_row events are compared as a sorted multiset, since zone
   solves record them from several domains at jobs > 1.  The class
   cut-off of [Context.solve_with] skips 4 of the 7 interval classes
   and no zone graph repeats among the other 3, so these are the
   counters of 45 zone solves (15 zones x 3 classes): 150 of the 350
   rows a memo-free class loop records, the same rows zone by zone. *)
let test_s13207_counter_parity () =
  let module Metrics = Repro_obs.Metrics in
  let module Flight = Repro_obs.Flight in
  let module Flow = Repro_core.Flow in
  let pruned = Metrics.counter "warburton.labels_pruned" in
  let capped = Metrics.counter "warburton.labels_capped" in
  let per_row = Metrics.histogram "warburton.labels_per_row" in
  let skipped = Metrics.counter "context.classes_skipped" in
  let hits = Metrics.counter "context.zone_memo_hits" in
  let pruned0 = Metrics.value pruned and capped0 = Metrics.value capped in
  let skipped0 = Metrics.value skipped and hits0 = Metrics.value hits in
  let rows0 = Metrics.histogram_stats per_row in
  let was_enabled = Flight.enabled () and capacity = Flight.capacity () in
  Flight.set_capacity 100_000;
  Flight.set_enabled true;
  let prepared =
    match Flow.prepare_benchmark (Repro_cts.Benchmarks.find "s13207") with
    | Ok p -> p
    | Error e -> Alcotest.fail (Repro_util.Verrors.to_string e)
  in
  (match Flow.run prepared (Flow.Single Flow.Wavemin) with
  | Ok _ -> ()
  | Error (e, _) -> Alcotest.fail (Repro_util.Verrors.to_string e));
  let rows =
    List.filter_map
      (fun (ev : Flight.event) ->
        match ev.Flight.kind with
        | Flight.Label_row { row; extended; kept; pruned; capped } ->
          Some (Printf.sprintf "%d,%d,%d,%d,%d" row extended kept pruned capped)
        | _ -> None)
      (Flight.events ())
  in
  Flight.set_enabled was_enabled;
  Flight.set_capacity capacity;
  let rows1 = Metrics.histogram_stats per_row in
  Alcotest.(check int) "labels_pruned" 0 (Metrics.value pruned - pruned0);
  Alcotest.(check int) "classes_skipped" 4 (Metrics.value skipped - skipped0);
  Alcotest.(check int) "zone_memo_hits" 0 (Metrics.value hits - hits0);
  Alcotest.(check int) "labels_capped" 15554 (Metrics.value capped - capped0);
  Alcotest.(check int) "labels_per_row count" 150
    (rows1.Metrics.count - rows0.Metrics.count);
  Alcotest.(check (float 0.0)) "labels_per_row sum" 11815.0
    (rows1.Metrics.sum -. rows0.Metrics.sum);
  Alcotest.(check int) "label_row events" 150 (List.length rows);
  Alcotest.(check string) "label_row contents"
    "31a1f08a01fdb73d597cd7acc1e9f2c1"
    (Digest.to_hex (Digest.string (String.concat ";" (List.sort compare rows))))

let () =
  Alcotest.run "repro_mosp"
    [
      ( "layered",
        [
          Alcotest.test_case "counts" `Quick test_layered_counts;
          Alcotest.test_case "path cost" `Quick test_layered_path_cost;
          Alcotest.test_case "validation" `Quick test_layered_validation;
          Alcotest.test_case "bad choices" `Quick test_layered_bad_choices;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "insert prunes" `Quick test_insert_prunes;
          Alcotest.test_case "non dominated" `Quick test_non_dominated;
          Alcotest.test_case "grid prune" `Quick test_grid_prune;
          Alcotest.test_case "grid prune keeps best" `Quick test_grid_prune_keeps_best;
          Alcotest.test_case "best min max" `Quick test_best_min_max;
        ] );
      ( "warburton",
        [
          Alcotest.test_case "exhaustive small" `Quick test_exhaustive_small;
          Alcotest.test_case "solver matches exhaustive" `Quick
            test_solver_matches_exhaustive_small;
          Alcotest.test_case "dest weight (Observation 1)" `Quick
            test_dest_weight_changes_optimum;
          Alcotest.test_case "pareto paths nondominated" `Quick
            test_pareto_paths_nondominated;
          Alcotest.test_case "epsilon bound" `Quick test_epsilon_within_bound;
          Alcotest.test_case "label cap safe" `Quick test_max_labels_cap_safe;
          Alcotest.test_case "exhaustive guard" `Quick test_exhaustive_guard;
          Alcotest.test_case "invalid epsilon" `Quick test_invalid_epsilon;
          Alcotest.test_case "reference at extreme quotients" `Quick
            test_reference_extreme_quotients;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_exact_matches_exhaustive;
            prop_epsilon_within_exhaustive;
            prop_solution_cost_consistent;
            prop_matches_reference ] );
      ( "counters",
        [ Alcotest.test_case "s13207 ClkWaveMin parity" `Quick
            test_s13207_counter_parity ] );
    ]
