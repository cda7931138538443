type problem = {
  rows : float array array array;
  base : float array;
  avail : bool array array;
}

type score = { mutable committed : float; mutable proposed : float }

type t = {
  prob : problem;
  choices : int array;
  mutable acc : float array;  (* committed per-slot sum, base included *)
  mutable scratch : float array;  (* proposal buffer, valid iff pending *)
  score : score;  (* all-float record: stored flat, read and written unboxed *)
  sites : int array;  (* pending moves: the first [pending] entries *)
  cands : int array;
  mutable pending : int;  (* number of pending moves; -1 when none *)
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
   [score.committed]. *)
let resum prob choices ~into score =
  let slots = Array.length prob.base in
  Array.blit prob.base 0 into 0 slots;
  for s = 0 to Array.length choices - 1 do
    let row = prob.rows.(s).(choices.(s)) in
    for k = 0 to slots - 1 do
      into.(k) <- into.(k) +. row.(k)
    done
  done;
  let m = ref 0.0 in
  for k = 0 to slots - 1 do
    m := fmax !m into.(k)
  done;
  score.committed <- !m

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
  resum prob init ~into:acc score;
  {
    prob;
    choices = Array.copy init;
    acc;
    scratch = Array.make slots 0.0;
    score;
    sites = Array.make n 0;
    cands = Array.make n 0;
    pending = -1;
    commits = 0;
    refresh_every;
  }

let propose t ~sites ~cands =
  (* Validate every move before touching any state; a raise leaves
     nothing pending. *)
  t.pending <- -1;
  let k = Array.length sites in
  if Array.length cands <> k then invalid_arg "Eval.propose: arity mismatch";
  for i = 0 to k - 1 do
    let s = sites.(i) in
    check_choice t.prob ~stage:"Eval.propose" s cands.(i);
    for j = 0 to i - 1 do
      if sites.(j) = s then invalid_arg "Eval.propose: repeated site"
    done
  done;
  let slots = num_slots t in
  let scratch = t.scratch in
  let m = ref 0.0 in
  if k = 0 then begin
    Array.blit t.acc 0 scratch 0 slots;
    for slot = 0 to slots - 1 do
      m := fmax !m scratch.(slot)
    done
  end
  else
    (* Per slot, the moves apply in order as (acc - old) + new, exactly
       the blit-then-delta passes of a per-move kernel; the last move's
       pass also folds the max. *)
    for i = 0 to k - 1 do
      let s = sites.(i) in
      let old_row = t.prob.rows.(s).(t.choices.(s)) in
      let new_row = t.prob.rows.(s).(cands.(i)) in
      let src = if i = 0 then t.acc else scratch in
      if i < k - 1 then
        for slot = 0 to slots - 1 do
          scratch.(slot) <- src.(slot) -. old_row.(slot) +. new_row.(slot)
        done
      else
        for slot = 0 to slots - 1 do
          let v = src.(slot) -. old_row.(slot) +. new_row.(slot) in
          scratch.(slot) <- v;
          m := fmax !m v
        done
    done;
  for i = 0 to k - 1 do
    t.sites.(i) <- sites.(i);
    t.cands.(i) <- cands.(i)
  done;
  t.score.proposed <- !m;
  t.pending <- k

let refresh t =
  t.pending <- -1;
  resum t.prob t.choices ~into:t.acc t.score

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
  t.pending <- -1;
  t.commits <- t.commits + 1;
  if t.commits mod t.refresh_every = 0 then refresh t

let discard t = t.pending <- -1
