module Rng = Repro_util.Rng
module Budget = Repro_obs.Budget
module Flight = Repro_obs.Flight

type tag = { group : int; size : float }

type config = {
  moves_per_site : int;
  max_stages : int;
  restarts : int;
  warmup : int;
  init_temp : float option;
  min_temp_ratio : float;
  refresh_every : int;
  target_accept : float;
}

let default_config =
  {
    moves_per_site = 8;
    max_stages = 64;
    restarts = 3;
    warmup = 64;
    init_temp = None;
    min_temp_ratio = 1e-4;
    refresh_every = 1024;
    target_accept = 0.44;
  }

let quench_config =
  {
    default_config with
    moves_per_site = 4;
    max_stages = 12;
    restarts = 0;
    warmup = 0;
    (* Low enough that only near-sideways moves are accepted: the warm
       assignment is polished, not scrambled. *)
    init_temp = Some 1e-3;
  }

type stats = {
  proposed : int;
  accepted : int;
  rejected : int;
  flips : int;
  resizes : int;
  pairs : int;
  stages : int;
  restarts_done : int;
  init_objective : float;
  final_objective : float;
}

let zero_stats =
  {
    proposed = 0;
    accepted = 0;
    rejected = 0;
    flips = 0;
    resizes = 0;
    pairs = 0;
    stages = 0;
    restarts_done = 0;
    init_objective = 0.0;
    final_objective = 0.0;
  }

let add_stats a b =
  {
    proposed = a.proposed + b.proposed;
    accepted = a.accepted + b.accepted;
    rejected = a.rejected + b.rejected;
    flips = a.flips + b.flips;
    resizes = a.resizes + b.resizes;
    pairs = a.pairs + b.pairs;
    stages = a.stages + b.stages;
    restarts_done = a.restarts_done + b.restarts_done;
    init_objective = a.init_objective +. b.init_objective;
    final_objective = a.final_objective +. b.final_objective;
  }

(* ------------------------------------------------------------------ *)
(* Precomputed move tables                                             *)

(* For each site: its available candidates bucketed by group, each
   bucket sorted by (size, index) so a resize move is an index step
   along a monotone size axis; [group_of]/[pos_of] invert the layout in
   O(1) during move generation. *)
type site_moves = {
  buckets : int array array;  (* buckets.(g) = sorted candidate indices *)
  group_of : int array;  (* candidate -> bucket index, -1 if unavailable *)
  pos_of : int array;  (* candidate -> position within its bucket *)
  degree : int;  (* total available candidates *)
}

let site_moves (tags : tag array) (avail : bool array) =
  let n = Array.length tags in
  let groups = ref [] in
  for c = 0 to n - 1 do
    if avail.(c) && not (List.mem tags.(c).group !groups) then
      groups := tags.(c).group :: !groups
  done;
  let groups = Array.of_list (List.sort Int.compare !groups) in
  let buckets =
    Array.map
      (fun g ->
        let members = ref [] in
        for c = n - 1 downto 0 do
          if avail.(c) && tags.(c).group = g then members := c :: !members
        done;
        let arr = Array.of_list !members in
        Array.sort
          (fun a b ->
            match Float.compare tags.(a).size tags.(b).size with
            | 0 -> Int.compare a b
            | cmp -> cmp)
          arr;
        arr)
      groups
  in
  let group_of = Array.make n (-1) and pos_of = Array.make n (-1) in
  Array.iteri
    (fun gi bucket ->
      Array.iteri
        (fun pos c ->
          group_of.(c) <- gi;
          pos_of.(c) <- pos)
        bucket)
    buckets;
  let degree = Array.fold_left (fun acc b -> acc + Array.length b) 0 buckets in
  { buckets; group_of; pos_of; degree }

(* A flip: uniform candidate from a uniformly chosen *other* bucket.
   Returns the current candidate when the site has a single bucket with
   a single member (the caller treats a no-op proposal as rejected-free:
   it is simply never generated for such sites). *)
let gen_flip rng (m : site_moves) ~current =
  let g = m.group_of.(current) in
  let ng = Array.length m.buckets in
  if ng <= 1 then current
  else begin
    let other = Rng.int rng ~bound:(ng - 1) in
    let g' = if other >= g then other + 1 else other in
    let bucket = m.buckets.(g') in
    bucket.(Rng.int rng ~bound:(Array.length bucket))
  end

(* A resize: step along the size-sorted bucket by a non-zero offset
   bounded by [dist]. *)
let gen_resize rng (m : site_moves) ~current ~dist =
  let g = m.group_of.(current) in
  let bucket = m.buckets.(g) in
  let len = Array.length bucket in
  if len <= 1 then current
  else begin
    let pos = m.pos_of.(current) in
    let lo = Stdlib.max 0 (pos - dist) and hi = Stdlib.min (len - 1) (pos + dist) in
    let span = hi - lo in
    (* Uniform over the window minus the current position. *)
    let pick = Rng.int rng ~bound:span in
    let pos' = if lo + pick >= pos then lo + pick + 1 else lo + pick in
    bucket.(pos')
  end

(* ------------------------------------------------------------------ *)
(* The annealing loop                                                  *)

let solve ?(zone = 0) ~config problem ~tags ~init ~rng =
  let eval = Eval.create ~refresh_every:config.refresh_every problem ~init in
  let n = Eval.num_sites eval in
  let init_objective = Eval.objective eval in
  if n = 0 then
    ([||], init_objective, { zero_stats with init_objective;
                             final_objective = init_objective })
  else begin
    let moves = Array.init n (fun s -> site_moves tags.(s) problem.avail.(s)) in
    (* Sites with a single available candidate can never move; exclude
       them from site selection so every generated proposal is real. *)
    let movable =
      Array.of_list
        (List.filter
           (fun s -> moves.(s).degree > 1)
           (List.init n (fun s -> s)))
    in
    let max_bucket =
      Array.fold_left
        (fun acc m ->
          Array.fold_left (fun a b -> Stdlib.max a (Array.length b)) acc m.buckets)
        1 moves
    in
    if Array.length movable = 0 then begin
      let final = Eval.recompute eval in
      ( Eval.choices eval,
        final,
        { zero_stats with init_objective; final_objective = final } )
    end
    else begin
      let pick_site () = movable.(Rng.int rng ~bound:(Array.length movable)) in
      (* Move buffers, reused by every proposal. *)
      let sites1 = [| 0 |] and cands1 = [| 0 |] in
      let sites2 = [| 0; 0 |] and cands2 = [| 0; 0 |] in
      let move1 s c =
        sites1.(0) <- s;
        cands1.(0) <- c
      in
      let propose1 s c =
        move1 s c;
        Eval.propose eval ~sites:sites1 ~cands:cands1
      in
      (* Generate one move into the buffers and return its kind tag
         (0 flip, 1 resize: [sites1]/[cands1]; 2 pair: [sites2]/[cands2]). *)
      let generate ~dist =
        let s = pick_site () in
        let current = Eval.choice eval s in
        let kind = Rng.int rng ~bound:3 in
        match kind with
        | 1 ->
          let c = gen_resize rng moves.(s) ~current ~dist in
          if c = current then begin
            (* Single-member bucket: fall back to a flip. *)
            move1 s (gen_flip rng moves.(s) ~current);
            0
          end
          else begin
            move1 s c;
            1
          end
        | 2 when Array.length movable > 1 ->
          let s2 = ref (pick_site ()) in
          while !s2 = s do
            s2 := pick_site ()
          done;
          let s2 = !s2 in
          let c1 = gen_flip rng moves.(s) ~current in
          let c2 = gen_flip rng moves.(s2) ~current:(Eval.choice eval s2) in
          let c1 = if c1 = Eval.choice eval s then
              gen_resize rng moves.(s) ~current ~dist
            else c1
          in
          let c2 = if c2 = Eval.choice eval s2 then
              gen_resize rng moves.(s2) ~current:(Eval.choice eval s2) ~dist
            else c2
          in
          sites2.(0) <- s;
          cands2.(0) <- c1;
          sites2.(1) <- s2;
          cands2.(1) <- c2;
          2
        | _ ->
          let c = gen_flip rng moves.(s) ~current in
          if c = current then begin
            (* Single-bucket site: resize instead. *)
            move1 s (gen_resize rng moves.(s) ~current ~dist);
            1
          end
          else begin
            move1 s c;
            0
          end
      in
      let score = Eval.score eval in
      (* Calibrate T0 from probe proposals (all discarded): hot enough
         that a mean uphill move is accepted with probability ~0.8. *)
      let init_temp =
        match config.init_temp with
        | Some t -> t
        | None ->
          let sum = ref 0.0 and count = ref 0 in
          let cur = Eval.objective eval in
          for _ = 1 to config.warmup do
            if generate ~dist:max_bucket = 2 then
              Eval.propose eval ~sites:sites2 ~cands:cands2
            else Eval.propose eval ~sites:sites1 ~cands:cands1;
            Eval.discard eval;
            let d = score.proposed -. cur in
            if d > 0.0 then begin
              sum := !sum +. d;
              incr count
            end
          done;
          if !count = 0 then 1e-3
          else
            let mean = !sum /. float_of_int !count in
            Float.max 1e-9 (-.mean /. log 0.8)
      in
      let sched =
        Schedule.create ~target_accept:config.target_accept
          ~init_temp ~max_dist:max_bucket ()
      in
      let best = Eval.choices eval in
      let best_obj = ref (Eval.objective eval) in
      let proposed = ref 0 and accepted = ref 0 in
      let flips = ref 0 and resizes = ref 0 and pairs = ref 0 in
      let stages = ref 0 and restarts_done = ref 0 in
      let stage_moves = Stdlib.max 1 (config.moves_per_site * n) in
      let run_stages () =
        let frozen = ref false in
        let stage = ref 0 in
        while (not !frozen) && !stage < config.max_stages do
          Budget.check_current ();
          incr stage;
          incr stages;
          let stage_accepted = ref 0 in
          (* The schedule moves only between stages. *)
          let temp = Schedule.temperature sched and dist = Schedule.distance sched in
          for _ = 1 to stage_moves do
            let kind = generate ~dist in
            incr proposed;
            (match kind with
            | 0 -> incr flips
            | 1 -> incr resizes
            | _ -> incr pairs);
            let pair = kind = 2 in
            if
              Eval.propose_metropolis eval
                ~sites:(if pair then sites2 else sites1)
                ~cands:(if pair then cands2 else cands1)
                ~temp ~rng
            then begin
              let obj = score.proposed in
              Eval.commit eval;
              incr accepted;
              incr stage_accepted;
              if obj < !best_obj then begin
                best_obj := obj;
                Eval.blit_choices eval best
              end
            end
          done;
          let rate = float_of_int !stage_accepted /. float_of_int stage_moves in
          if Flight.enabled () then
            Flight.record
              (Flight.Sa_move
                 {
                   zone;
                   stage = !stage;
                   temperature = Schedule.temperature sched;
                   proposed = stage_moves;
                   accepted = !stage_accepted;
                   objective = Eval.objective eval;
                 });
          Schedule.update sched ~accept_rate:rate;
          if
            Schedule.frozen sched ~min_ratio:config.min_temp_ratio
            || (!stage > 1 && !stage_accepted = 0)
          then frozen := true
        done
      in
      (* Move [eval] to the choice vector [target], one committed
         single-site move per differing site. *)
      let install target =
        Array.iteri
          (fun s c ->
            if Eval.choice eval s <> c then begin
              propose1 s c;
              Eval.commit eval
            end)
          target
      in
      run_stages ();
      for restart = 1 to config.restarts do
        (* Reheat from the best state seen so far: each restart is
           cooler than the last, a polish pass rather than a fresh
           scramble. *)
        install best;
        ignore (Eval.recompute eval);
        Schedule.reheat sched
          ~factor:(0.3 /. float_of_int restart /. float_of_int restart);
        incr restarts_done;
        if Flight.enabled () then
          Flight.record
            (Flight.Sa_restart
               { zone; restart; objective = Eval.objective eval });
        run_stages ()
      done;
      (* Exact final objective of the best state, fully recomputed. *)
      install best;
      let final_objective = Eval.recompute eval in
      ( best,
        final_objective,
        {
          proposed = !proposed;
          accepted = !accepted;
          rejected = !proposed - !accepted;
          flips = !flips;
          resizes = !resizes;
          pairs = !pairs;
          stages = !stages;
          restarts_done = !restarts_done;
          init_objective;
          final_objective;
        } )
    end
  end
