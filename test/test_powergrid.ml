module Grid = Repro_powergrid.Grid
module Noise = Repro_powergrid.Noise
module Pwl = Repro_waveform.Pwl

let check_close eps = Alcotest.(check (float eps))

let grid () = Grid.create ~die_side:100.0 ~nx:8 ~ny:8 ~segment_res:0.5 ()

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)

let test_create_validation () =
  Alcotest.check_raises "small" (Invalid_argument "Grid.create: mesh too small")
    (fun () -> ignore (Grid.create ~die_side:10.0 ~nx:1 ~ny:4 ()));
  Alcotest.check_raises "die" (Invalid_argument "Grid.create: non-positive dimension")
    (fun () -> ignore (Grid.create ~die_side:0.0 ()))

let test_num_nodes () = Alcotest.(check int) "8x8" 64 (Grid.num_nodes (grid ()))

let test_node_at_corners () =
  let g = grid () in
  Alcotest.(check int) "origin" 0 (Grid.node_at g ~x:0.0 ~y:0.0);
  Alcotest.(check int) "far corner" 63 (Grid.node_at g ~x:99.9 ~y:99.9);
  (* Clamping outside the die. *)
  Alcotest.(check int) "clamped" 0 (Grid.node_at g ~x:(-10.0) ~y:(-10.0))

let test_position_roundtrip () =
  let g = grid () in
  for id = 0 to Grid.num_nodes g - 1 do
    let x, y = Grid.position g id in
    Alcotest.(check int) "roundtrip" id (Grid.node_at g ~x ~y)
  done

let test_pads_on_boundary () =
  let g = grid () in
  Alcotest.(check bool) "corner is pad" true (Grid.is_pad g 0);
  (* Center of an 8x8 grid is not a pad. *)
  let center = Grid.node_at g ~x:50.0 ~y:50.0 in
  Alcotest.(check bool) "center not pad" false (Grid.is_pad g center)

let test_solve_zero_injection () =
  let g = grid () in
  let v = Grid.solve g ~injection:(Array.make (Grid.num_nodes g) 0.0) in
  Array.iter (fun d -> check_close 1e-9 "zero" 0.0 d) v

let test_solve_positive_drop () =
  let g = grid () in
  let inj = Array.make (Grid.num_nodes g) 0.0 in
  let center = Grid.node_at g ~x:50.0 ~y:50.0 in
  inj.(center) <- 1000.0;
  let v = Grid.solve g ~injection:inj in
  Alcotest.(check bool) "positive at source" true (v.(center) > 0.0);
  Alcotest.(check bool) "max at source" true
    (Array.for_all (fun d -> d <= v.(center) +. 1e-6) v);
  check_close 1e-9 "pads clamped" 0.0 v.(0)

let test_solve_length_mismatch () =
  let g = grid () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Grid.solve: injection length mismatch") (fun () ->
      ignore (Grid.solve g ~injection:[| 1.0 |]))

let test_solve_linear () =
  (* Superposition: solve(2i) = 2 solve(i). *)
  let g = grid () in
  let inj = Array.make (Grid.num_nodes g) 0.0 in
  inj.(27) <- 500.0;
  inj.(36) <- 250.0;
  let v1 = Grid.solve g ~injection:inj in
  let v2 = Grid.solve g ~injection:(Array.map (fun x -> 2.0 *. x) inj) in
  Array.iteri
    (fun i d -> check_close 1e-3 "linear" (2.0 *. d) v2.(i))
    v1

let test_effective_resistance_center_vs_edge () =
  let g = grid () in
  let center = Grid.node_at g ~x:50.0 ~y:50.0 in
  let near_pad = Grid.node_at g ~x:10.0 ~y:0.0 in
  let rc = Grid.effective_resistance g center in
  let re = Grid.effective_resistance g near_pad in
  Alcotest.(check bool) "center worse" true (rc > re);
  Alcotest.(check bool) "sane magnitude" true (rc > 0.0 && rc < 10.0)

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)

let pulse t0 h =
  Pwl.triangle ~start:t0 ~peak_time:(t0 +. 5.0) ~finish:(t0 +. 15.0) ~height:h

let test_rail_noise_zero_without_injection () =
  let g = grid () in
  check_close 1e-12 "no injections" 0.0
    (Noise.rail_noise_mv g ~injections:[] ~times:[| 0.0; 1.0 |])

let test_rail_noise_positive () =
  let g = grid () in
  let injections = [ { Noise.x = 50.0; y = 50.0; waveform = pulse 0.0 2000.0 } ] in
  let times = Noise.default_times injections ~count:32 in
  let noise = Noise.rail_noise_mv g ~injections ~times in
  Alcotest.(check bool) "positive" true (noise > 0.0);
  (* 2000 uA through ~1-2 Ohm effective -> a few mV. *)
  Alcotest.(check bool) "sane" true (noise < 20.0)

let test_noise_scales_with_current () =
  let g = grid () in
  let mk h = [ { Noise.x = 30.0; y = 70.0; waveform = pulse 0.0 h } ] in
  let times = Noise.default_times (mk 1000.0) ~count:32 in
  let n1 = Noise.rail_noise_mv g ~injections:(mk 1000.0) ~times in
  let n2 = Noise.rail_noise_mv g ~injections:(mk 2000.0) ~times in
  check_close 1e-6 "linear" (2.0 *. n1) n2

let test_disjoint_pulses_do_not_add () =
  (* Two pulses far apart in time: the peak equals the single-pulse
     peak, unlike overlapping pulses. *)
  let g = grid () in
  let at t = { Noise.x = 50.0; y = 50.0; waveform = pulse t 1000.0 } in
  let overlapping = [ at 0.0; at 0.0 ] in
  let disjoint = [ at 0.0; at 500.0 ] in
  let times l = Noise.default_times l ~count:64 in
  let n_overlap = Noise.rail_noise_mv g ~injections:overlapping ~times:(times overlapping) in
  let n_disjoint = Noise.rail_noise_mv g ~injections:disjoint ~times:(times disjoint) in
  Alcotest.(check bool) "overlap worse" true (n_overlap > n_disjoint *. 1.5)

let test_evaluate_both_rails () =
  let g = grid () in
  let vdd = [ { Noise.x = 50.0; y = 50.0; waveform = pulse 0.0 1500.0 } ] in
  let gnd = [ { Noise.x = 50.0; y = 50.0; waveform = pulse 0.0 750.0 } ] in
  let times = Noise.default_times (vdd @ gnd) ~count:32 in
  let r = Noise.evaluate g ~vdd ~gnd ~times in
  Alcotest.(check bool) "vdd > gnd" true
    (r.Noise.vdd_noise_mv > r.Noise.gnd_noise_mv)

let test_default_times_cover_support () =
  let injections =
    [ { Noise.x = 0.0; y = 0.0; waveform = pulse 10.0 1.0 };
      { Noise.x = 0.0; y = 0.0; waveform = pulse 100.0 1.0 } ]
  in
  let times = Noise.default_times injections ~count:16 in
  Alcotest.(check int) "count" 16 (Array.length times);
  Alcotest.(check (float 1e-9)) "start" 10.0 times.(0);
  Alcotest.(check (float 1e-9)) "end" 115.0 times.(15)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_drop_nonnegative_for_nonneg_injection =
  QCheck.Test.make ~name:"drops non-negative for draws" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 6)
              (pair (pair (float_range 0. 100.) (float_range 0. 100.))
                 (float_range 0. 5000.)))
    (fun sources ->
      let g = grid () in
      let inj = Array.make (Grid.num_nodes g) 0.0 in
      List.iter
        (fun ((x, y), i) ->
          let n = Grid.node_at g ~x ~y in
          inj.(n) <- inj.(n) +. i)
        sources;
      let v = Grid.solve g ~injection:inj in
      Array.for_all (fun d -> d >= -1e-6) v)

(* ------------------------------------------------------------------ *)
(* Bit identity with a naive CG                                        *)

(* The closure-and-ref conjugate gradient that [Grid.solve_operator]
   replaced, kept as the reference: the loop form must give the same
   bits.  The mesh layout (node [j * nx + i], pads from [Grid.is_pad],
   conductance [1 / segment_res]) is rebuilt from the public API. *)
module Naive = struct
  let apply g ~nx ~ny ~cond x y =
    for j = 0 to ny - 1 do
      for i = 0 to nx - 1 do
        let id = (j * nx) + i in
        if Grid.is_pad g id then y.(id) <- x.(id)
        else begin
          let acc = ref 0.0 in
          let couple nid =
            acc := !acc +. (cond *. (x.(id) -. (if Grid.is_pad g nid then 0.0 else x.(nid))))
          in
          if i > 0 then couple (id - 1);
          if i < nx - 1 then couple (id + 1);
          if j > 0 then couple (id - nx);
          if j < ny - 1 then couple (id + nx);
          y.(id) <- !acc
        end
      done
    done

  let solve_operator g ~apply_op ~injection =
    let n = Grid.num_nodes g in
    let b = Array.mapi (fun i v -> if Grid.is_pad g i then 0.0 else v) injection in
    let x = Array.make n 0.0 in
    let r = Array.copy b in
    let p = Array.copy b in
    let ap = Array.make n 0.0 in
    let dot a c =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (a.(i) *. c.(i))
      done;
      !acc
    in
    let rs = ref (dot r r) in
    let rs0 = !rs in
    let eps = Float.max 1e-30 (1e-14 *. rs0) in
    let max_iter = 4 * n in
    let rec loop k =
      if !rs < eps || k >= max_iter then ()
      else begin
        apply_op p ap;
        let alpha = !rs /. Float.max eps (dot p ap) in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. (alpha *. p.(i));
          r.(i) <- r.(i) -. (alpha *. ap.(i))
        done;
        let rs' = dot r r in
        let beta = rs' /. !rs in
        for i = 0 to n - 1 do
          p.(i) <- r.(i) +. (beta *. p.(i))
        done;
        rs := rs';
        loop (k + 1)
      end
    in
    loop 0;
    Array.mapi (fun i v -> if Grid.is_pad g i then 0.0 else v) x

  let solve g ~nx ~ny ~cond ~injection =
    solve_operator g ~apply_op:(apply g ~nx ~ny ~cond) ~injection

  let solve_shifted g ~nx ~ny ~cond ~diag ~injection =
    let apply_op x y =
      apply g ~nx ~ny ~cond x y;
      for i = 0 to Grid.num_nodes g - 1 do
        if not (Grid.is_pad g i) then y.(i) <- y.(i) +. (diag.(i) *. x.(i))
      done
    in
    solve_operator g ~apply_op ~injection

  let rail_noise_mv g ~nx ~ny ~cond ~injections ~times =
    Array.fold_left
      (fun worst time ->
        let injection = Array.make (Grid.num_nodes g) 0.0 in
        List.iter
          (fun (inj : Noise.injection) ->
            let node = Grid.node_at g ~x:inj.Noise.x ~y:inj.Noise.y in
            injection.(node) <- injection.(node) +. Pwl.eval inj.Noise.waveform time)
          injections;
        let drops = solve g ~nx ~ny ~cond ~injection in
        let peak = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 drops in
        Float.max worst peak)
      0.0 times
    /. 1000.0
end

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Meshes: the default 16 x 16 of the golden evaluation, plus small
   and non-square ones with other pad strides and resistances. *)
let meshes =
  [ (16, 16, 0.5, 8); (2, 2, 0.5, 8); (3, 5, 0.25, 2); (7, 4, 1.5, 3);
    (9, 9, 0.5, 4) ]

let gen_case =
  QCheck.Gen.(
    pair (int_bound (List.length meshes - 1)) (int_bound 1_000_000))

let random_injection rng n =
  (* Sparse non-negative draws plus a few negative entries (Gnd bounce
     and the transient's capacitor term make signed right-hand sides). *)
  Array.init n (fun _ ->
      match Repro_util.Rng.int rng ~bound:4 with
      | 0 -> Repro_util.Rng.float rng ~bound:5000.0
      | 1 -> -.Repro_util.Rng.float rng ~bound:50.0
      | _ -> 0.0)

let prop_solve_matches_naive =
  QCheck.Test.make ~name:"Grid.solve/solve_shifted == naive CG bit for bit"
    ~count:60
    (QCheck.make gen_case)
    (fun (m, seed) ->
      let nx, ny, segment_res, pad_stride = List.nth meshes m in
      let g = Grid.create ~die_side:100.0 ~nx ~ny ~segment_res ~pad_stride () in
      let cond = 1.0 /. segment_res in
      let rng = Repro_util.Rng.create ~seed in
      let n = Grid.num_nodes g in
      let injection = random_injection rng n in
      let diag = Array.init n (fun _ -> Repro_util.Rng.float rng ~bound:0.5) in
      same_bits (Grid.solve g ~injection) (Naive.solve g ~nx ~ny ~cond ~injection)
      && same_bits
           (Grid.solve_shifted g ~diag ~injection)
           (Naive.solve_shifted g ~nx ~ny ~cond ~diag ~injection))

let prop_rail_noise_matches_naive =
  QCheck.Test.make ~name:"rail_noise_mv == naive per-sample fold bit for bit"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Repro_util.Rng.create ~seed in
      let g = Grid.create ~die_side:100.0 () in
      let injections =
        List.init
          (1 + Repro_util.Rng.int rng ~bound:12)
          (fun _ ->
            {
              Noise.x = Repro_util.Rng.float rng ~bound:100.0;
              y = Repro_util.Rng.float rng ~bound:100.0;
              waveform =
                pulse (Repro_util.Rng.float rng ~bound:60.0)
                  (Repro_util.Rng.float rng ~bound:3000.0);
            })
      in
      let times = Noise.default_times injections ~count:12 in
      let got = Noise.rail_noise_mv g ~injections ~times in
      let want = Naive.rail_noise_mv g ~nx:16 ~ny:16 ~cond:2.0 ~injections ~times in
      Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)

let solve_words g injection =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Grid.solve g ~injection));
  Gc.minor_words () -. before

(* A zero injection stops CG before its first iteration; a spread-out
   one runs it for dozens.  Both solves must allocate the same: the
   per-solve work arrays, nothing per iteration. *)
let test_solve_allocation_flat_in_iterations () =
  let g = Grid.create ~die_side:100.0 () in
  let n = Grid.num_nodes g in
  let rng = Repro_util.Rng.create ~seed:5 in
  let busy = Array.init n (fun _ -> Repro_util.Rng.float rng ~bound:1000.0) in
  let idle = Array.make n 0.0 in
  ignore (solve_words g busy);
  let w_idle = solve_words g idle and w_busy = solve_words g busy in
  if w_busy > w_idle +. 8.0 then
    Alcotest.failf
      "Grid.solve allocated %.0f minor words with CG iterations, %.0f without"
      w_busy w_idle

let words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The CG work vectors are the grid's own, reused across solves: a
   solve into a caller-owned vector allocates nothing (the measuring
   itself boxes a float or two, hence the empty-thunk baseline), and it
   gives the bits of [Grid.solve], also from two domains solving on one
   grid at once (a solve that finds the workspace taken uses its own). *)
let test_solve_into_allocates_nothing () =
  let g = Grid.create ~die_side:100.0 () in
  let n = Grid.num_nodes g in
  let rng = Repro_util.Rng.create ~seed:7 in
  let injection = Array.init n (fun _ -> Repro_util.Rng.float rng ~bound:1000.0) in
  let x = Array.make n 0.0 in
  let solve () = Grid.solve_into g ~injection x in
  let empty () = () in
  solve ();
  let baseline = words_of empty and words = words_of solve in
  if words > baseline then
    Alcotest.failf "Grid.solve_into allocated %.0f minor words (baseline %.0f)"
      words baseline;
  Alcotest.(check bool) "solve_into == solve" true
    (same_bits x (Grid.solve g ~injection));
  let shifted = Grid.solve_shifted g ~diag:(Array.make n 0.25) ~injection in
  Alcotest.(check bool) "shifted solve unaffected" true
    (same_bits shifted
       (Naive.solve_shifted g ~nx:16 ~ny:16 ~cond:2.0
          ~diag:(Array.make n 0.25) ~injection));
  let want = Grid.solve g ~injection in
  let solves () =
    List.for_all
      (fun _ -> same_bits (Grid.solve g ~injection) want)
      (List.init 200 Fun.id)
  in
  let other = Domain.spawn solves in
  let here = solves () in
  Alcotest.(check bool) "shared grid, two domains" true
    (Domain.join other && here)

let () =
  Alcotest.run "repro_powergrid"
    [
      ( "grid",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "num nodes" `Quick test_num_nodes;
          Alcotest.test_case "node at corners" `Quick test_node_at_corners;
          Alcotest.test_case "position roundtrip" `Quick test_position_roundtrip;
          Alcotest.test_case "pads on boundary" `Quick test_pads_on_boundary;
          Alcotest.test_case "zero injection" `Quick test_solve_zero_injection;
          Alcotest.test_case "positive drop" `Quick test_solve_positive_drop;
          Alcotest.test_case "length mismatch" `Quick test_solve_length_mismatch;
          Alcotest.test_case "linearity" `Quick test_solve_linear;
          Alcotest.test_case "effective resistance" `Quick
            test_effective_resistance_center_vs_edge;
          Alcotest.test_case "allocation flat in CG iterations" `Quick
            test_solve_allocation_flat_in_iterations;
          Alcotest.test_case "solve_into allocates nothing" `Quick
            test_solve_into_allocates_nothing;
        ] );
      ( "noise",
        [
          Alcotest.test_case "zero without injection" `Quick
            test_rail_noise_zero_without_injection;
          Alcotest.test_case "positive" `Quick test_rail_noise_positive;
          Alcotest.test_case "scales with current" `Quick
            test_noise_scales_with_current;
          Alcotest.test_case "disjoint pulses" `Quick
            test_disjoint_pulses_do_not_add;
          Alcotest.test_case "both rails" `Quick test_evaluate_both_rails;
          Alcotest.test_case "default times" `Quick test_default_times_cover_support;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_drop_nonnegative_for_nonneg_injection; prop_solve_matches_naive;
            prop_rail_noise_matches_naive ] );
    ]
