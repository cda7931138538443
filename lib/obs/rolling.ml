(* Rolling-window histogram: a ring of time-sliced [Metrics] cells.

   The window of [window_s] seconds is split into [slots] equal slices;
   each observation lands in the slice owning its timestamp and a slice
   is lazily cleared the first time it is reused for a newer period, so
   neither observation nor query ever walks more than the ring.  Stats
   merge only the slices whose period falls inside the window, which is
   what makes p50/p95/p99 reflect "the last N seconds" rather than the
   process lifetime (the cumulative [Metrics.histogram] keeps that
   role).  The bucket grid, the rule for non-finite and non-positive
   samples and the quantile are [Metrics']: this module only rotates
   slices and measures the rate span. *)

type slot = {
  mutable period : int;  (* floor (t / slot_s) when last written; -1 fresh *)
  cell : Metrics.histogram;
}

type t = {
  mutex : Mutex.t;
  window_s : float;
  slot_s : float;
  ring : slot array;
  mutable first_s : float;  (* first-ever observation time; for rate warm-up *)
  mutable total : int;  (* lifetime observation count *)
}

let create ?(window_s = 60.0) ?(slots = 12) () =
  if window_s <= 0.0 then invalid_arg "Rolling.create: window_s <= 0";
  if slots < 1 then invalid_arg "Rolling.create: slots < 1";
  {
    mutex = Mutex.create ();
    window_s;
    slot_s = window_s /. float_of_int slots;
    ring = Array.init slots (fun _ -> { period = -1; cell = Metrics.cell () });
    first_s = nan;
    total = 0;
  }

let window_seconds t = t.window_s

let period_of t now = int_of_float (Float.floor (now /. t.slot_s))

let slot_for t now =
  let period = period_of t now in
  let n = Array.length t.ring in
  let s = t.ring.(((period mod n) + n) mod n) in
  (* Clock skew: a timestamp older than what the slot already holds
     (period < s.period) must not resurrect the stale period — clearing
     here would silently wipe newer samples sharing the ring index.
     Fold the late sample into the newer slot instead; it is clamped
     forward in time, never lost, and window stats stay consistent. *)
  if period > s.period then begin
    s.period <- period;
    Metrics.clear s.cell
  end;
  s

let observe ?now t v =
  let now = match now with Some n -> n | None -> Clock.now_s () in
  Mutex.lock t.mutex;
  if Float.is_nan t.first_s then t.first_s <- now;
  t.total <- t.total + 1;
  Metrics.observe (slot_for t now).cell v;
  Mutex.unlock t.mutex

type stats = {
  count : int;
  total : int;
  rate : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let stats ?now t =
  let now = match now with Some n -> n | None -> Clock.now_s () in
  Mutex.lock t.mutex;
  let current = period_of t now in
  (* A slot gets a period only from [observe], so a live slot holds at
     least one sample. *)
  let live =
    List.filter
      (fun s ->
        s.period >= 0
        && s.period > current - Array.length t.ring
        && s.period <= current)
      (Array.to_list t.ring)
  in
  let window = Metrics.merge (List.map (fun s -> s.cell) live) in
  let oldest =
    List.fold_left (fun acc s -> Stdlib.min acc s.period) max_int live
  in
  let total = t.total and first_s = t.first_s in
  Mutex.unlock t.mutex;
  let h = Metrics.histogram_stats window in
  let finite v = if Float.is_finite v then v else 0.0 in
  let quantile = Metrics.quantile window in
  (* The rate denominator is the window actually covered: from the
     start of the oldest live slice (or the first observation, early in
     the process lifetime) to now, capped at the window.  An empty
     window has rate 0 over any positive span. *)
  let span =
    let from_slot = now -. (float_of_int oldest *. t.slot_s) in
    let covered = Stdlib.min t.window_s from_slot in
    let covered =
      if Float.is_nan first_s then covered
      else Stdlib.min covered (Stdlib.max (now -. first_s) t.slot_s)
    in
    Stdlib.max covered (t.slot_s *. 0.5)
  in
  {
    count = h.count;
    total;
    rate = float_of_int h.count /. span;
    mean = finite h.mean;
    min = finite h.min;
    max = finite h.max;
    p50 = quantile 0.5;
    p90 = quantile 0.9;
    p95 = quantile 0.95;
    p99 = quantile 0.99;
  }

let reset t =
  Mutex.lock t.mutex;
  Array.iter
    (fun s ->
      s.period <- -1;
      Metrics.clear s.cell)
    t.ring;
  t.first_s <- nan;
  t.total <- 0;
  Mutex.unlock t.mutex

let stats_json (s : stats) =
  let module Json = Repro_util.Json in
  Json.Obj
    [ ("count", Json.Num (float_of_int s.count));
      ("total", Json.Num (float_of_int s.total));
      ("rate_per_s", Json.Num s.rate);
      ("mean", Json.Num s.mean);
      ("min", Json.Num s.min);
      ("max", Json.Num s.max);
      ("p50", Json.Num s.p50);
      ("p90", Json.Num s.p90);
      ("p95", Json.Num s.p95);
      ("p99", Json.Num s.p99) ]
