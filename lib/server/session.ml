module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Benchmarks = Repro_cts.Benchmarks
module Liberty = Repro_cell.Liberty
module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Metrics = Repro_obs.Metrics
module Flight = Repro_obs.Flight
module Obs_clock = Repro_obs.Clock

(* The one cache-outcome vocabulary.  [Hit]/[Miss]/[Coalesced]/[Warm]/
   [No_lookup] are also the per-request outcome that [Handlers.meta] and
   the access log carry; [Evict] and [Store] only ever name events. *)
type cache = Prepared | Warm_store | Library | Single_flight

type cache_outcome = Hit | Miss | Evict | Store | Coalesced | Warm | No_lookup

let cache_name = function
  | Prepared -> "session"
  | Warm_store -> "warm"
  | Library -> "library"
  | Single_flight -> "single-flight"

let cache_outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Evict -> "evict"
  | Store -> "store"
  | Coalesced -> "coalesced"
  | Warm -> "warm"
  | No_lookup -> "none"

(* The counted events: each has a per-session tally (read by [stats])
   and a metric. *)
let counted =
  List.map
    (fun (event, name) -> (event, Metrics.counter name))
    [ ((Prepared, Hit), "server.cache_hits");
      ((Prepared, Miss), "server.cache_misses");
      ((Prepared, Evict), "server.cache_evictions");
      ((Warm_store, Hit), "server.warm_hits");
      ((Warm_store, Store), "server.warm_stores") ]

(* A build in progress for one key, shared by every concurrent miss on
   it; dropped from its shard when the last of them is done. *)
type build = { b_lock : Mutex.t; mutable b_users : int }

(* One lock-striped shard of the prepared-benchmark cache.  Hot keys on
   different shards no longer serialize on a single mutex when several
   executors perform warm lookups concurrently. *)
type shard = {
  s_mutex : Mutex.t;
  s_entries : Flow.prepared Lru.t;
  s_builds : (string, build) Hashtbl.t;  (* guarded by [s_mutex] *)
}

type t = {
  shards : shard array;  (* power-of-two length *)
  mask : int;
  lib_mutex : Mutex.t;
  libraries : Repro_cell.Cell.t list Lru.t;  (* parsed, by text digest *)
  tallies : ((cache * cache_outcome) * int Atomic.t) list;  (* [counted] *)
  (* Warm-start store: base key (tree + library, params excluded) to
     the most recent solved assignment and the params it was solved
     under.  A near-miss — same tree, different kappa/slots — becomes
     an annealer quench seed instead of a cold solve. *)
  warm_mutex : Mutex.t;
  warm : (Repro_core.Context.params * Repro_clocktree.Assignment.t) Lru.t;
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
            s_entries = Lru.create ~capacity:per_shard;
            s_builds = Hashtbl.create 4 });
    mask = n - 1;
    lib_mutex = Mutex.create ();
    libraries = Lru.create ~capacity:(max 4 capacity);
    tallies = List.map (fun (event, _) -> (event, Atomic.make 0)) counted;
    warm_mutex = Mutex.create ();
    warm = Lru.create ~capacity:(max 4 capacity);
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

(* Every cache event goes through here: its tally and metric when it is
   a counted one, and always a flight-recorder event. *)
let record t cache outcome ~key =
  Option.iter Atomic.incr (List.assoc_opt (cache, outcome) t.tallies);
  Option.iter Metrics.incr (List.assoc_opt (cache, outcome) counted);
  Flight.record
    (Flight.Cache
       { cache = cache_name cache; outcome = cache_outcome_name outcome; key })

let tally t cache outcome = Atomic.get (List.assoc (cache, outcome) t.tallies)

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
  let hint =
    with_lock ~resource:"session.warm" t.warm_mutex (fun () ->
        Lru.find t.warm base)
  in
  record t Warm_store (if Option.is_none hint then Miss else Hit) ~key:base;
  hint

let remember_warm t ~base ~params assignment =
  record t Warm_store Store ~key:base;
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
      record t Library Hit ~key:lib_key;
      Ok cells
    | None -> (
      match Verrors.guard ~stage:"server.session" (fun () -> Liberty.parse text) with
      | Error e -> Error e  (* the parser fault seam trips through here *)
      | Ok (Error perr) -> Error (Liberty.to_verror perr)
      | Ok (Ok cells) ->
        with_lock ~resource:"session.libraries" t.lib_mutex (fun () ->
            ignore (Lru.add t.libraries lib_key cells));
        Ok cells))

(* Build once per key, like [Flow.prepared]'s context: a miss takes the
   key's build lock and looks again before building, so concurrent
   misses wait for the first build and then hit.  A failed build
   inserts nothing; the next holder of the lock retries. *)
let with_build t k f =
  let b =
    with_shard t k (fun s ->
        let b =
          Option.value (Hashtbl.find_opt s.s_builds k)
            ~default:{ b_lock = Mutex.create (); b_users = 0 }
        in
        Hashtbl.replace s.s_builds k b;
        b.b_users <- b.b_users + 1;
        b)
  in
  Fun.protect
    ~finally:(fun () ->
      with_shard t k (fun s ->
          b.b_users <- b.b_users - 1;
          if b.b_users = 0 then Hashtbl.remove s.s_builds k))
    (fun () -> Mutex.protect b.b_lock f)

let prepared t ~spec ~params ?library () =
  let k = key ~spec ~params ~library in
  let cached () = with_shard t k (fun s -> Lru.find s.s_entries k) in
  let hit prep =
    record t Prepared Hit ~key:k;
    Ok (prep, Hit)
  in
  let build () =
    Result.bind (cells_of t library) (fun cells ->
        Verrors.guard ~stage:"server.session" (fun () ->
            let tree = Benchmarks.synthesize spec in
            Flow.prepare ~params ~cells ~name:spec.Benchmarks.name tree))
    |> Result.map (fun prep ->
           record t Prepared Miss ~key:k;
           with_shard t k (fun s ->
               if Lru.add s.s_entries k prep <> None then
                 record t Prepared Evict ~key:k);
           (prep, Miss))
  in
  let result =
    match cached () with
    | Some prep -> hit prep
    | None ->
      with_build t k (fun () ->
          match cached () with Some prep -> hit prep | None -> build ())
  in
  (k, result)

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
     concatenated in shard order.  The tallies are atomics, so no
     whole-cache lock is ever taken. *)
  {
    entries =
      Array.to_list t.shards
      |> List.concat_map (fun s ->
             with_lock ~resource:"session.stats" s.s_mutex (fun () ->
                 Lru.keys s.s_entries));
    capacity =
      Array.fold_left (fun acc s -> acc + Lru.capacity s.s_entries) 0 t.shards;
    shards = Array.length t.shards;
    hits = tally t Prepared Hit;
    misses = tally t Prepared Miss;
    evictions = tally t Prepared Evict;
    warm_entries =
      with_lock ~resource:"session.warm" t.warm_mutex (fun () ->
          List.length (Lru.keys t.warm));
    warm_hits = tally t Warm_store Hit;
    warm_stores = tally t Warm_store Store;
  }
