(** Data-plane request execution.

    Pure request → response-body logic, shared by the server's executor
    and by in-process tests: given a session cache and a request,
    produce the deterministic JSON result or a structured error (with
    the fallback-chain degradations when a robust run failed outright).
    Never raises — every failure mode, including injected faults at any
    seam, comes back as [Error]. *)

module Json := Repro_util.Json
module Verrors := Repro_util.Verrors
module Flow := Repro_core.Flow

val degradation_json : Flow.degradation -> Json.t

type cache_outcome =
  | Cache_hit
  | Cache_miss
  | Cache_coalesced
      (** Answered from another request's in-flight solve (single-flight
          follower); set by the server, never by {!execute}. *)
  | Cache_warm
      (** A warm-opted [Sa] run found a banked assignment for the same
          tree and library and re-solved by annealer quench
          ({!Repro_core.Flow.Warm}) instead of solving cold. *)
  | Cache_none  (** No session-cache lookup happened (e.g. [validate]). *)

type meta = {
  mutable cache : cache_outcome;
  mutable content_key : string option;  (** {!Session.key} hex digest. *)
}
(** Out-of-band execution facts recorded for the access log.  Strictly
    write-only from the handlers' perspective: nothing read from a
    [meta] may influence a response, so responses stay byte-identical
    with or without one attached. *)

val create_meta : unit -> meta
val cache_outcome_name : cache_outcome -> string

val execute :
  ?meta:meta ->
  ?deadline_ns:int64 ->
  Session.t ->
  Protocol.request ->
  (Json.t, Verrors.t * Flow.degradation list) result
(** Execute a [Run]/[Compare]/[Validate]/[Montecarlo] request.
    Control-plane requests ([Stats]/[Metrics]/[Health]/[Shutdown]) are
    the server's responsibility and yield an [Error] here.

    [deadline_ns] is the request's absolute end-to-end deadline
    ({!Repro_obs.Clock.now_ns} scale), merged into the per-request
    {!Repro_obs.Budget} so in-flight solves cancel cooperatively (every
    Warburton row checks the ambient budget) with a structured
    [Deadline_exceeded] error instead of running to completion for a
    client that stopped waiting. *)
