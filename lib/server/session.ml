module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Benchmarks = Repro_cts.Benchmarks
module Liberty = Repro_cell.Liberty
module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Metrics = Repro_obs.Metrics
module Flight = Repro_obs.Flight
module Obs_clock = Repro_obs.Clock

let hits_c = Metrics.counter "server.cache_hits"
let misses_c = Metrics.counter "server.cache_misses"
let evictions_c = Metrics.counter "server.cache_evictions"
let warm_hits_c = Metrics.counter "server.warm_hits"
let warm_stores_c = Metrics.counter "server.warm_stores"

(* One lock-striped shard of the prepared-benchmark cache.  Hot keys on
   different shards no longer serialize on a single mutex when several
   executors perform warm lookups concurrently. *)
type shard = { s_mutex : Mutex.t; s_entries : Flow.prepared Lru.t }

type t = {
  shards : shard array;  (* power-of-two length *)
  mask : int;
  lib_mutex : Mutex.t;
  libraries : Repro_cell.Cell.t list Lru.t;  (* parsed, by text digest *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  (* Warm-start store: base key (tree + library, params excluded) to
     the most recent solved assignment and the params it was solved
     under.  A near-miss — same tree, different kappa/slots — becomes
     an annealer quench seed instead of a cold solve. *)
  warm_mutex : Mutex.t;
  warm : (Repro_core.Context.params * Repro_clocktree.Assignment.t) Lru.t;
  warm_hits : int Atomic.t;
  warm_stores : int Atomic.t;
}

(* Largest power of two that still gives every shard at least one
   entry: a capacity-1 cache must keep its single-entry eviction
   semantics no matter how many shards were requested. *)
let clamp_shards ~capacity requested =
  let bound = max 1 (min requested capacity) in
  let rec pow2 p = if p * 2 <= bound then pow2 (p * 2) else p in
  pow2 1

let create ?(capacity = 8) ?(shards = 4) () =
  if capacity < 1 then invalid_arg "Session.create: capacity < 1";
  if shards < 1 then invalid_arg "Session.create: shards < 1";
  let n = clamp_shards ~capacity shards in
  let per_shard = max 1 (capacity / n) in
  {
    shards =
      Array.init n (fun _ ->
          { s_mutex = Mutex.create ();
            s_entries = Lru.create ~capacity:per_shard });
    mask = n - 1;
    lib_mutex = Mutex.create ();
    libraries = Lru.create ~capacity:(max 4 capacity);
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    warm_mutex = Mutex.create ();
    warm = Lru.create ~capacity:(max 4 capacity);
    warm_hits = Atomic.make 0;
    warm_stores = Atomic.make 0;
  }

let shard_count t = Array.length t.shards

(* Keys are MD5 hex digests, so any stable hash spreads them; the mask
   keeps the index in range for the power-of-two shard count. *)
let shard_index t k = Hashtbl.hash k land t.mask

(* Reader threads (control plane) and the executors share these
   mutexes; when the flight recorder is on, a measurable wait to
   acquire one is recorded as a contention event against the specific
   shard (or the library cache). *)
let with_lock ~resource mutex f =
  if Flight.enabled () then begin
    let t0 = Obs_clock.now_ns () in
    Mutex.lock mutex;
    let wait_ms =
      Int64.to_float (Int64.sub (Obs_clock.now_ns ()) t0) /. 1e6
    in
    if wait_ms > 0.05 then Flight.record (Flight.Contention { resource; wait_ms })
  end
  else Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let with_shard t k f =
  let i = shard_index t k in
  let s = t.shards.(i) in
  with_lock
    ~resource:(Printf.sprintf "session.shard%d" i)
    s.s_mutex
    (fun () -> f s)

(* The default library's serialized form participates in the hash so a
   rebuilt binary with different built-in cells cannot alias an entry. *)
let builtin_library_text =
  lazy (Liberty.to_string (Flow.leaf_library ()))

let fl = Json.float_to_string

(* The canonical content form: NUL-separated spec fields, then the
   solver params when given, then the library text.  [key] and
   [base_key] are its two projections; the digests feed shard choice
   and the access log, so the field order is fixed. *)
let content_digest ~spec ?params ~library () =
  let spec_fields =
    [ spec.Benchmarks.name;
      (match spec.Benchmarks.family with
      | Benchmarks.Iscas89 -> "iscas89"
      | Benchmarks.Ispd09 -> "ispd09");
      string_of_int spec.Benchmarks.num_nodes;
      string_of_int spec.Benchmarks.num_leaves;
      fl spec.Benchmarks.die_side;
      string_of_int spec.Benchmarks.clusters;
      string_of_int spec.Benchmarks.seed ]
  in
  let param_fields =
    match params with
    | None -> []
    | Some p ->
      [ fl p.Context.kappa;
        fl p.Context.epsilon;
        string_of_int p.Context.num_slots;
        fl p.Context.zone_side;
        string_of_int p.Context.max_labels;
        fl p.Context.coalesce;
        string_of_int p.Context.max_interval_classes;
        fl p.Context.sibling_guard ]
  in
  let library_text =
    match library with
    | Some text -> text
    | None -> Lazy.force builtin_library_text
  in
  String.concat "\x00" (spec_fields @ param_fields @ [ library_text ])
  |> Digest.string |> Digest.to_hex

let key ~spec ~params ~library = content_digest ~spec ~params ~library ()

(* The warm-start base key deliberately EXCLUDES the solver params: a
   repeat request for the same synthesized tree under a nearby kappa or
   slot count is exactly the near-miss the ECO quench is for. *)
let base_key ~spec ~library = content_digest ~spec ~library ()

let warm_hint t ~base =
  match
    with_lock ~resource:"session.warm" t.warm_mutex (fun () ->
        Lru.find t.warm base)
  with
  | Some entry ->
    Atomic.incr t.warm_hits;
    Metrics.incr warm_hits_c;
    Flight.record
      (Flight.Cache { cache = "warm"; outcome = "hit"; key = base });
    Some entry
  | None ->
    Flight.record
      (Flight.Cache { cache = "warm"; outcome = "miss"; key = base });
    None

let remember_warm t ~base ~params assignment =
  Atomic.incr t.warm_stores;
  Metrics.incr warm_stores_c;
  with_lock ~resource:"session.warm" t.warm_mutex (fun () ->
      ignore (Lru.add t.warm base (params, assignment)))

let cells_of t = function
  | None -> Ok (Flow.leaf_library ())
  | Some text -> (
    let lib_key = Digest.to_hex (Digest.string text) in
    match
      with_lock ~resource:"session.libraries" t.lib_mutex (fun () ->
          Lru.find t.libraries lib_key)
    with
    | Some cells ->
      Flight.record
        (Flight.Cache { cache = "library"; outcome = "hit"; key = lib_key });
      Ok cells
    | None -> (
      match Verrors.guard ~stage:"server.session" (fun () -> Liberty.parse text) with
      | Error e -> Error e  (* the parser fault seam trips through here *)
      | Ok (Error perr) -> Error (Liberty.to_verror perr)
      | Ok (Ok cells) ->
        with_lock ~resource:"session.libraries" t.lib_mutex (fun () ->
            ignore (Lru.add t.libraries lib_key cells));
        Ok cells))

let prepared t ~spec ~params ?library () =
  let k = key ~spec ~params ~library in
  match with_shard t k (fun s -> Lru.find s.s_entries k) with
  | Some prep ->
    Atomic.incr t.hits;
    Metrics.incr hits_c;
    Flight.record (Flight.Cache { cache = "session"; outcome = "hit"; key = k });
    Ok (prep, `Hit)
  | None -> (
    (* Build outside the lock so warm lookups on this shard (and the
       control plane) stay responsive during synthesis.  Two executors
       missing on the same key concurrently both build — deterministic
       duplicate work; [Lru.add] makes the second insert a no-op-sized
       replace.  The single-flight layer upstream makes this rare. *)
    match cells_of t library with
    | Error e -> Error e
    | Ok cells -> (
      match
        Verrors.guard ~stage:"server.session" (fun () ->
            let tree = Benchmarks.synthesize spec in
            Flow.prepare ~params ~cells ~name:spec.Benchmarks.name tree)
      with
      | Error e -> Error e
      | Ok prep ->
        Atomic.incr t.misses;
        Metrics.incr misses_c;
        Flight.record
          (Flight.Cache { cache = "session"; outcome = "miss"; key = k });
        with_shard t k (fun s ->
            match Lru.add s.s_entries k prep with
            | None -> ()
            | Some _evicted ->
              Metrics.incr evictions_c;
              Flight.record
                (Flight.Cache
                   { cache = "session"; outcome = "evict"; key = k }));
        Ok (prep, `Miss)))

type stats = {
  entries : string list;
  capacity : int;
  shards : int;
  hits : int;
  misses : int;
  evictions : int;
  warm_entries : int;
  warm_hits : int;
  warm_stores : int;
}

let stats (t : t) =
  (* Snapshot shard by shard: entries are MRU-first within a shard,
     concatenated in shard order.  Global counters are atomics, so no
     whole-cache lock is ever taken. *)
  let per =
    Array.map
      (fun s ->
        with_lock ~resource:"session.stats" s.s_mutex (fun () ->
            ( Lru.keys s.s_entries,
              Lru.capacity s.s_entries,
              Lru.evictions s.s_entries )))
      t.shards
  in
  {
    entries = Array.to_list per |> List.concat_map (fun (ks, _, _) -> ks);
    capacity = Array.fold_left (fun acc (_, c, _) -> acc + c) 0 per;
    shards = Array.length t.shards;
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Array.fold_left (fun acc (_, _, e) -> acc + e) 0 per;
    warm_entries =
      with_lock ~resource:"session.warm" t.warm_mutex (fun () ->
          List.length (Lru.keys t.warm));
    warm_hits = Atomic.get t.warm_hits;
    warm_stores = Atomic.get t.warm_stores;
  }
