module Rng = Repro_util.Rng
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Floats = Repro_util.Floats

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a ~bound:1000) (Rng.int b ~bound:1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a ~bound:1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b ~bound:1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng ~bound:13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create ~seed:7 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng ~bound:0))

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng ~bound:2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng ~lo:(-3.0) ~hi:(-1.0) in
    Alcotest.(check bool) "in range" true (v >= -3.0 && v < -1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:5 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian rng ~mu:10.0 ~sigma:2.0) in
  check_close 0.1 "mean" 10.0 (Stats.mean xs);
  check_close 0.1 "std" 2.0 (Stats.stddev xs)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:99 in
  let child = Rng.split parent in
  let a = Rng.int child ~bound:1_000_000 in
  (* Drawing more from the parent must not change the child's stream
     had we split at the same point. *)
  let parent2 = Rng.create ~seed:99 in
  let child2 = Rng.split parent2 in
  Alcotest.(check int) "split deterministic" a (Rng.int child2 ~bound:1_000_000)

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:17 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick () =
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 100 do
    let v = Rng.pick rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check_close 1e-9 "known" (sqrt 2.0) (Stats.stddev [| 1.0; 3.0; 1.0; 3.0; 1.0; 3.0 |] *. sqrt 2.0)

let test_stats_normalized_stddev () =
  check_close 1e-9 "known" 0.5 (Stats.normalized_stddev [| 1.0; 3.0 |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0; 2.0 |] in
  check_float "lo" (-1.0) lo;
  check_float "hi" 7.0 hi

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.percentile xs ~p:50.0);
  check_float "min" 1.0 (Stats.percentile xs ~p:0.0);
  check_float "max" 5.0 (Stats.percentile xs ~p:100.0);
  check_float "nearest rank, not interpolated" 1.0
    (Stats.percentile xs ~p:12.5)

let test_stats_percentile_nearest_rank () =
  (* The vectors of perfbench/test_metrics.py: linear interpolation
     would give 100.5, 190.05 and 198.01. *)
  let xs = Array.init 200 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 100.0 (Stats.percentile xs ~p:50.0);
  check_float "p95" 190.0 (Stats.percentile xs ~p:95.0);
  check_float "p99" 198.0 (Stats.percentile xs ~p:99.0)

let test_stats_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  check_close 1e-9 "perfect" 1.0 (Stats.correlation xs ys);
  let zs = [| 8.0; 6.0; 4.0; 2.0 |] in
  check_close 1e-9 "anti" (-1.0) (Stats.correlation xs zs)

let test_stats_fraction () =
  check_float "yield" 0.75
    (Stats.fraction_satisfying (fun x -> x <= 10.0) [| 1.0; 5.0; 10.0; 11.0 |]);
  check_float "empty" 0.0 (Stats.fraction_satisfying (fun _ -> true) [||])

let test_stats_empty_rejected () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  Alcotest.(check bool) "contains alpha" true
    (String.length out > 0 && contains out "alpha" && contains out "22")

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: arity mismatch with headers") (fun () ->
      Table.add_row t [ "only one" ])

let test_table_cells () =
  Alcotest.(check string) "float" "3.14" (Table.cell_f 3.14159);
  Alcotest.(check string) "float decimals" "3.1416" (Table.cell_f ~decimals:4 3.14159);
  Alcotest.(check string) "int" "42" (Table.cell_i 42);
  Alcotest.(check string) "pct" "12.50%" (Table.cell_pct 12.5)

(* Literal draws recorded from the boxed-[int64] generator this module
   replaced: any change of representation must leave every stream
   exactly as it was. *)
let test_rng_stream_pinned () =
  let check = Alcotest.(check int) in
  let a = Rng.create ~seed:42 in
  List.iter
    (fun v -> check "create ~seed:42" v (Rng.int a ~bound:1_000_000_007))
    [ 249768340; 869527453; 121944468; 953467420 ];
  Alcotest.(check string) "float draw" "0x1.378b0b448904p-5"
    (Printf.sprintf "%h" (Rng.float a ~bound:1.0));
  let b = Rng.of_instance ~seed:1 7 in
  List.iter
    (fun v -> check "of_instance ~seed:1 7" v (Rng.int b ~bound:max_int))
    [ 4243244265868361885; 1262316644242629240; 4233967967466052990 ];
  Alcotest.(check string) "instance float" "0x1.6f193020670fp-1"
    (Printf.sprintf "%h" (Rng.float b ~bound:1.0));
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  List.iter
    (fun v -> check "split child" v (Rng.int child ~bound:max_int))
    [ 1583154557381516417; 4407603814059511829; 2242891356538814700 ];
  List.iter
    (fun v -> check "split parent" v (Rng.int parent ~bound:max_int))
    [ 737456523031723072; 1284820937115690964 ];
  Alcotest.(check bool) "bool" false (Rng.bool parent)

let test_rng_int_allocates_nothing () =
  let r = Rng.create ~seed:3 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r ~bound:1000
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  if words > 16.0 then
    Alcotest.failf "10000 Rng.int draws allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Floats.max                                                          *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let specials =
  [ 0.0; -0.0; 1.0; -1.0; 2.5; -2.5; 1e-310; -1e-310; Float.max_float;
    Float.min_float; Float.infinity; Float.neg_infinity; Float.nan;
    -.Float.nan; Int64.float_of_bits 0x7FF0000000000001L ]

let test_floats_max_specials () =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if not (same_bits (Floats.max x y) (Float.max x y)) then
            Alcotest.failf "Floats.max %h %h = %h, Float.max gives %h" x y
              (Floats.max x y) (Float.max x y))
        specials)
    specials

let test_floats_fold_max () =
  let a = Array.of_list specials in
  let check name got want =
    Alcotest.(check bool) name true (same_bits got want)
  in
  check "fold_max, NaN inside"
    (Floats.fold_max 0.0 a) (Array.fold_left Float.max 0.0 a);
  let clean = [| -0.0; 0.0; -3.0; 2.0; 2.0; -7.5 |] in
  check "fold_max" (Floats.fold_max 0.0 clean) (Array.fold_left Float.max 0.0 clean);
  check "fold_max from -0" (Floats.fold_max (-0.0) [| -0.0 |]) (Float.max (-0.0) (-0.0));
  check "fold_max_abs" (Floats.fold_max_abs 0.0 clean)
    (Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 clean);
  check "fold_max empty" (Floats.fold_max 1.5 [||]) 1.5

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs ~p:lo <= Stats.percentile xs ~p:hi +. 1e-9)

let prop_stddev_nonneg =
  QCheck.Test.make ~name:"stddev non-negative" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun xs -> Stats.stddev xs >= 0.0)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (array small_int))
    (fun (seed, arr) ->
      let rng = Rng.create ~seed in
      let copy = Array.copy arr in
      Rng.shuffle rng copy;
      let s1 = Array.to_list arr |> List.sort compare in
      let s2 = Array.to_list copy |> List.sort compare in
      s1 = s2)

let prop_floats_max_bits =
  let special = QCheck.Gen.oneofl specials in
  let gen =
    QCheck.Gen.(
      pair
        (frequency [ (1, special); (3, float) ])
        (frequency [ (1, special); (3, float) ]))
  in
  QCheck.Test.make ~name:"Floats.max == Float.max bit for bit" ~count:2000
    (QCheck.make ~print:(fun (x, y) -> Printf.sprintf "(%h, %h)" x y) gen)
    (fun (x, y) ->
      same_bits (Floats.max x y) (Float.max x y)
      && same_bits (Floats.max x x) (Float.max x x))

let () =
  Alcotest.run "repro_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split deterministic" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "int allocates nothing" `Quick
            test_rng_int_allocates_nothing;
        ] );
      ( "floats",
        [
          Alcotest.test_case "max on specials" `Quick test_floats_max_specials;
          Alcotest.test_case "fold_max" `Quick test_floats_fold_max;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "normalized stddev" `Quick test_stats_normalized_stddev;
          Alcotest.test_case "min max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile nearest rank" `Quick
            test_stats_percentile_nearest_rank;
          Alcotest.test_case "correlation" `Quick test_stats_correlation;
          Alcotest.test_case "fraction" `Quick test_stats_fraction;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentile_monotone; prop_stddev_nonneg;
            prop_shuffle_preserves_multiset; prop_floats_max_bits ] );
    ]
