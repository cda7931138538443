(** The server's warm session cache.

    Maps a {e content hash} — benchmark spec, solver parameters, and
    the (inline or built-in) cell library text — to a
    {!Repro_core.Flow.prepared}: the synthesized tree plus the
    memoized optimization context (timing, zones, noise tables, the
    candidate-waveform memo).  A repeat request for the same content
    skips all of that work; modifying the library (or any parameter)
    changes the hash, so stale entries can never be served.  Parsed
    custom libraries are additionally cached by their own text hash, so
    two benchmarks sharing a library parse it once.

    The prepared-entry store is {e lock-striped}: the capacity is split
    across a power-of-two number of shards, each with its own mutex and
    LRU, indexed by a hash of the content key.  Concurrent executors
    performing warm lookups only contend when their keys land on the
    same shard; eviction is least-recently-used within each shard.
    Every cache event goes through {!record}. *)

module Flow := Repro_core.Flow
module Verrors := Repro_util.Verrors

type t

(** Flight-recorded as ["session"], ["warm"], ["library"] and
    ["single-flight"]. *)
type cache = Prepared | Warm_store | Library | Single_flight

(** The one cache-outcome vocabulary, shared by flight events,
    {!Handlers.meta} and the access log's [cache] field. *)
type cache_outcome =
  | Hit
  | Miss
  | Evict  (** An insert pushed the least-recently-used entry out. *)
  | Store  (** An assignment banked in the warm-start store. *)
  | Coalesced
      (** Answered from another request's in-flight solve (single-flight
          follower); set by the server. *)
  | Warm
      (** A warm-opted [Sa] run found a banked assignment for the same
          tree and library and re-solved by annealer quench
          ({!Repro_core.Flow.Warm}) instead of solving cold. *)
  | No_lookup  (** No session-cache lookup happened (e.g. [validate]). *)

val cache_outcome_name : cache_outcome -> string
(** ["hit"], ["miss"], ["evict"], ["store"], ["coalesced"], ["warm"],
    ["none"]. *)

val record : t -> cache -> cache_outcome -> key:string -> unit
(** Record one cache event as a flight-recorder [Cache] event.  Session
    hits, misses and evictions and warm hits and stores are also tallied
    for {!stats} and counted in the [server.cache_hits]/[_misses]/
    [_evictions] and [server.warm_hits]/[_stores] metrics. *)

val create : ?capacity:int -> ?shards:int -> unit -> t
(** [capacity] (default 8) bounds the prepared-benchmark entries across
    all shards.  [shards] (default 4) is clamped to the largest power
    of two no greater than [min shards capacity], so every shard holds
    at least one entry and a capacity-1 cache keeps single-entry
    eviction semantics.
    @raise Invalid_argument when either is < 1. *)

val shard_count : t -> int
(** The effective (clamped) number of shards. *)

val shard_index : t -> string -> int
(** The shard a content key maps to — exposed for tests that need
    same-shard or cross-shard key pairs. *)

val key :
  spec:Repro_cts.Benchmarks.spec ->
  params:Repro_core.Context.params ->
  library:string option ->
  string
(** The content hash (hex digest).  [library = None] hashes the
    built-in leaf library's serialized form, so swapping the default
    library in a future build also invalidates. *)

val base_key :
  spec:Repro_cts.Benchmarks.spec -> library:string option -> string
(** The warm-start base key: like {!key} but with the solver params
    deliberately excluded, so a repeat request for the same synthesized
    tree under nearby parameters (a session-cache near-miss) still maps
    to the previously banked assignment. *)

val warm_hint :
  t ->
  base:string ->
  (Repro_core.Context.params * Repro_clocktree.Assignment.t) option
(** The most recent assignment banked under [base] (with the params it
    was solved under), if any — the annealer's ECO quench seed. *)

val remember_warm :
  t ->
  base:string ->
  params:Repro_core.Context.params ->
  Repro_clocktree.Assignment.t ->
  unit
(** Bank a solved assignment for future warm starts (LRU, most recent
    solution per base key wins). *)

val prepared :
  t ->
  spec:Repro_cts.Benchmarks.spec ->
  params:Repro_core.Context.params ->
  ?library:string ->
  unit ->
  string * (Flow.prepared * cache_outcome, Verrors.t) result
(** The content key ({!key}) and the prepared benchmark, fetched
    ([Hit]) or built ([Miss]).  Each key is built at most once, outside
    the shard lock: concurrent misses on one key wait for the first
    build and then hit.  Failures (library parse errors, synthesis
    faults) are returned structurally and never cached; the next lookup
    rebuilds. *)

type stats = {
  entries : string list;
      (** Cache keys, most-recently-used first within each shard,
          concatenated in shard order. *)
  capacity : int;  (** Total across shards. *)
  shards : int;
  hits : int;
  misses : int;
  evictions : int;
  warm_entries : int;  (** Banked warm-start assignments. *)
  warm_hits : int;  (** Warm hints served. *)
  warm_stores : int;  (** Assignments banked. *)
}

val stats : t -> stats
