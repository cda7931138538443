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

type meta = {
  mutable cache : Session.cache_outcome;
  mutable content_key : string option;  (** {!Session.key} hex digest. *)
}
(** Out-of-band execution facts recorded for the access log.  Strictly
    write-only from the handlers' perspective: nothing read from a
    [meta] may influence a response, so responses stay byte-identical
    with or without one attached. *)

val create_meta : unit -> meta

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
