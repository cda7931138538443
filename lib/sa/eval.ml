module Rng = Repro_util.Rng

type problem = {
  rows : float array array array;
  base : float array;
  avail : bool array array;
}

type score = { mutable committed : float; mutable proposed : float }

(* The state of one scan (see [scan]), all floats so it is stored flat:
   the proposed objective, the largest slot value tested against the
   Metropolis bound so far, the draw and the temperature. *)
type scan_state = {
  mutable max : float;
  mutable tested : float;
  mutable u : float;
  mutable temp : float;
}

type t = {
  prob : problem;
  choices : int array;
  mutable acc : float array;  (* committed per-slot sum, base included *)
  mutable scratch : float array;  (* proposal buffer, valid iff pending *)
  score : score;  (* all-float record: stored flat, read and written unboxed *)
  sites : int array;  (* pending moves: the first [pending] entries *)
  cands : int array;
  mutable pending : int;  (* number of pending moves; -1 when none *)
  mutable peak : int;
      (* first slot where [acc] reaches [score.committed]; 0 when no slot
         is above the 0 floor *)
  mutable proposed_peak : int;  (* the same for [scratch] *)
  st : scan_state;
  mutable drawn : bool;  (* the scan has drawn [st.u] *)
  mutable commits : int;
  refresh_every : int;
}

let num_sites t = Array.length t.choices
let num_slots t = Array.length t.prob.base
let choice t s = t.choices.(s)
let choices t = Array.copy t.choices

let blit_choices t into =
  if Array.length into <> Array.length t.choices then
    invalid_arg "Eval.blit_choices: length mismatch";
  Array.blit t.choices 0 into 0 (Array.length into)

let score t = t.score
let objective t = t.score.committed

let check_choice prob ~stage s c =
  if s < 0 || s >= Array.length prob.rows then
    invalid_arg (stage ^ ": site out of range");
  if c < 0 || c >= Array.length prob.rows.(s) then
    invalid_arg (stage ^ ": candidate out of range");
  if not prob.avail.(s).(c) then
    invalid_arg (stage ^ ": candidate not available")

(* [Repro_util.Floats.max], restated so the loops below inline it:
   modules are compiled -opaque in the dev profile, and a call across
   modules would box every slot's float. *)
let[@inline] fmax x y = if y > x then y else if y < x then x else Float.max x y

(* Exact re-sum into [into]; the objective (>= 0, matching
   Noise_table.zone_objective's fold over a non-negative floor) goes to
   [score.committed] and its first peak slot is returned. *)
let resum prob choices ~into score =
  let slots = Array.length prob.base in
  Array.blit prob.base 0 into 0 slots;
  for s = 0 to Array.length choices - 1 do
    let row = prob.rows.(s).(choices.(s)) in
    for k = 0 to slots - 1 do
      into.(k) <- into.(k) +. row.(k)
    done
  done;
  let m = ref 0.0 and peak = ref 0 in
  for k = 0 to slots - 1 do
    if into.(k) > !m then peak := k;
    m := fmax !m into.(k)
  done;
  score.committed <- !m;
  !peak

let create ?(refresh_every = 1024) prob ~init =
  if refresh_every < 1 then invalid_arg "Eval.create: refresh_every < 1";
  let n = Array.length prob.rows in
  if Array.length prob.avail <> n || Array.length init <> n then
    invalid_arg "Eval.create: arity mismatch";
  Array.iteri (fun s c -> check_choice prob ~stage:"Eval.create" s c) init;
  Array.iter
    (Array.iter (fun r ->
         if Array.length r <> Array.length prob.base then
           invalid_arg "Eval.create: slot arity mismatch"))
    prob.rows;
  let slots = Array.length prob.base in
  let acc = Array.make slots 0.0 in
  let score = { committed = 0.0; proposed = 0.0 } in
  let peak = resum prob init ~into:acc score in
  {
    prob;
    choices = Array.copy init;
    acc;
    scratch = Array.make slots 0.0;
    score;
    sites = Array.make n 0;
    cands = Array.make n 0;
    pending = -1;
    peak;
    proposed_peak = 0;
    st = { max = 0.0; tested = 0.0; u = 0.0; temp = 0.0 };
    drawn = false;
    commits = 0;
    refresh_every;
  }

(* Validate every move before touching any state, then copy the moves
   into [t.sites]/[t.cands]; a raise leaves nothing pending. *)
let load_moves t ~stage ~sites ~cands =
  t.pending <- -1;
  let k = Array.length sites in
  if Array.length cands <> k then invalid_arg (stage ^ ": arity mismatch");
  for i = 0 to k - 1 do
    let s = sites.(i) in
    check_choice t.prob ~stage s cands.(i);
    for j = 0 to i - 1 do
      if sites.(j) = s then invalid_arg (stage ^ ": repeated site")
    done
  done;
  for i = 0 to k - 1 do
    t.sites.(i) <- sites.(i);
    t.cands.(i) <- cands.(i)
  done;
  k

(* The uniform draw of [Rng.float rng ~bound:1.0], bit for bit
   ([1.0 *. x = x]), from the unboxed [Rng.bits53]. *)
let[@inline] draw_unit rng =
  float_of_int (Rng.bits53 rng) /. 9007199254740992.0

(* Slots [lo, hi) of the proposal into [scratch]: per slot the [k]
   loaded moves apply in order as [(acc -. old) +. new]. *)
let compute_range t k lo hi =
  Array.blit t.acc lo t.scratch lo (hi - lo);
  let scratch = t.scratch in
  for i = 0 to k - 1 do
    let rows = t.prob.rows.(t.sites.(i)) in
    let old_row = rows.(t.choices.(t.sites.(i))) and new_row = rows.(t.cands.(i)) in
    for j = lo to hi - 1 do
      scratch.(j) <- scratch.(j) -. old_row.(j) +. new_row.(j)
    done
  done

(* Test proposed slot [j], which the caller found above every slot
   tested so far ([st.tested] starts at the committed objective, or at
   infinity when the scan makes no early test), against the Metropolis
   bound.  The first test draws [st.u].  [true] proves the rejection;
   the margins are argued in the interface. *)
let rejects_at t j rng =
  let st = t.st and v = t.scratch.(j) in
  st.tested <- v;
  if not t.drawn then begin
    t.drawn <- true;
    st.u <- draw_unit rng
  end;
  let bound = exp (-.(v -. t.score.committed) /. st.temp) in
  st.u >= (bound *. (1.0 +. 1e-12)) +. Float.min_float

(* The passes over every slot: each folds the proposed slots into
   [st.max] (the first peak slot into [proposed_peak]) and tests each as
   [rejects_at] does, stopping at the first that proves the rejection
   ([true]).  [pass1] and [pass2] compute the slots of one and two
   moves on the way, in one loop; [fold_all] reads slots already in
   [scratch]. *)
let fold_all t rng =
  let st = t.st and scratch = t.scratch in
  let m = ref 0.0 and peak = ref 0 in
  let j = ref 0 and stop = ref (Array.length scratch) and rejected = ref false in
  while !j < !stop do
    let v = scratch.(!j) in
    if v > !m then peak := !j;
    m := fmax !m v;
    if v > st.tested && rejects_at t !j rng then begin
      rejected := true;
      stop := 0
    end;
    incr j
  done;
  st.max <- !m;
  t.proposed_peak <- !peak;
  !rejected

let pass1 t rng =
  let st = t.st and acc = t.acc and scratch = t.scratch in
  let rows = t.prob.rows.(t.sites.(0)) in
  let o1 = rows.(t.choices.(t.sites.(0))) and n1 = rows.(t.cands.(0)) in
  let m = ref 0.0 and peak = ref 0 in
  let j = ref 0 and stop = ref (Array.length scratch) and rejected = ref false in
  while !j < !stop do
    let v = acc.(!j) -. o1.(!j) +. n1.(!j) in
    scratch.(!j) <- v;
    if v > !m then peak := !j;
    m := fmax !m v;
    if v > st.tested && rejects_at t !j rng then begin
      rejected := true;
      stop := 0
    end;
    incr j
  done;
  st.max <- !m;
  t.proposed_peak <- !peak;
  !rejected

let pass2 t rng =
  let st = t.st and acc = t.acc and scratch = t.scratch in
  let rows1 = t.prob.rows.(t.sites.(0)) and rows2 = t.prob.rows.(t.sites.(1)) in
  let o1 = rows1.(t.choices.(t.sites.(0))) and n1 = rows1.(t.cands.(0)) in
  let o2 = rows2.(t.choices.(t.sites.(1))) and n2 = rows2.(t.cands.(1)) in
  let m = ref 0.0 and peak = ref 0 in
  let j = ref 0 and stop = ref (Array.length scratch) and rejected = ref false in
  while !j < !stop do
    let v = acc.(!j) -. o1.(!j) +. n1.(!j) -. o2.(!j) +. n2.(!j) in
    scratch.(!j) <- v;
    if v > !m then peak := !j;
    m := fmax !m v;
    if v > st.tested && rejects_at t !j rng then begin
      rejected := true;
      stop := 0
    end;
    incr j
  done;
  st.max <- !m;
  t.proposed_peak <- !peak;
  !rejected

(* The scan shared by [propose] and [propose_metropolis], for the [k]
   moves loaded by [load_moves].  With [decide] it is also the
   Metropolis test at [temp]: the committed peak slot is tested first,
   then every slot in index order, and a rejection proved on the way
   ends the scan (early tests need [temp > 0.0], see the interface).  Otherwise the whole proposal is in [scratch] and its
   objective, the fold of [fmax] over the slots, in [score.proposed],
   and the textbook test decides.  Returns whether the proposal stays
   pending. *)
let scan t ~k ~decide ~temp ~rng =
  let st = t.st and c = t.score.committed and p = t.peak in
  let early = decide && temp > 0.0 in
  st.tested <- (if early then c else Float.infinity);
  st.temp <- temp;
  t.drawn <- false;
  let rejected =
    (early
    && p < num_slots t
    && begin
      compute_range t k p (p + 1);
      t.scratch.(p) > c && rejects_at t p rng
    end)
    ||
    match k with
    | 1 -> pass1 t rng
    | 2 -> pass2 t rng
    | _ ->
      compute_range t k 0 (num_slots t);
      fold_all t rng
  in
  (not rejected)
  && begin
    let obj = st.max in
    t.score.proposed <- obj;
    let keep =
      (not decide)
      ||
      let delta = obj -. c in
      delta <= 0.0
      || begin
        if not t.drawn then st.u <- draw_unit rng;
        st.u < exp (-.delta /. temp)
      end
    in
    if keep then t.pending <- k;
    keep
  end

(* Never drawn from: [scan] draws only when it decides. *)
let no_rng = Rng.create ~seed:0

let propose t ~sites ~cands =
  let k = load_moves t ~stage:"Eval.propose" ~sites ~cands in
  ignore (scan t ~k ~decide:false ~temp:0.0 ~rng:no_rng)

let propose_metropolis t ~sites ~cands ~temp ~rng =
  let k = load_moves t ~stage:"Eval.propose_metropolis" ~sites ~cands in
  scan t ~k ~decide:true ~temp ~rng

let refresh t =
  t.pending <- -1;
  t.peak <- resum t.prob t.choices ~into:t.acc t.score

let recompute t =
  refresh t;
  t.score.committed

let commit t =
  if t.pending < 0 then invalid_arg "Eval.commit: no pending proposal";
  for i = 0 to t.pending - 1 do
    t.choices.(t.sites.(i)) <- t.cands.(i)
  done;
  (* O(1) apply: the scratch buffer already holds the new sums. *)
  let acc = t.acc in
  t.acc <- t.scratch;
  t.scratch <- acc;
  t.score.committed <- t.score.proposed;
  t.peak <- t.proposed_peak;
  t.pending <- -1;
  t.commits <- t.commits + 1;
  if t.commits mod t.refresh_every = 0 then refresh t

let discard t = t.pending <- -1
