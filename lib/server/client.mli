(** Synchronous client for the [wavemin serve] protocol.

    One connection, one outstanding request at a time: {!request} sends
    a {!Protocol.request} tagged with a fresh id and blocks until the
    response with that id arrives (responses for other ids — which a
    well-behaved synchronous client never sees — are skipped).  Every
    peer of the daemon connects through here: [wavemin client],
    [bench-serve] ({!Loadgen}), [top], the abusive peer in
    [test/chaos.ml], the examples and the tests. *)

module Json := Repro_util.Json
module Verrors := Repro_util.Verrors

type t

val socket : Server.address -> (Unix.file_descr, Verrors.t) result
(** A raw stream socket connected to [address] ({!Server.resolve}), for
    peers that speak the wire byte by byte.  Fails with an [Io_error]
    at stage ["client"]: ["cannot connect to ADDRESS: REASON"] or
    ["cannot resolve host HOST"]. *)

val connect : Server.address -> (t, Verrors.t) result
(** {!socket}, wrapped for {!request}.  Fails like {!socket} when the
    server is not (yet) listening — poll this for readiness. *)

val close : t -> unit
(** Idempotent. *)

val request :
  ?deadline_ms:float ->
  t ->
  Protocol.request ->
  (Protocol.response, Verrors.t) result
(** Send one request and wait for its response.  [Error] means a
    transport or framing failure; a structured rejection from the
    server (e.g. [overloaded]) is an [Ok] response with
    [response.ok = false].  [deadline_ms] rides in the request envelope:
    the server sheds the request with a structured [deadline-exceeded]
    error — and cancels an in-flight solve cooperatively — once that
    much time has passed since it parsed the line. *)

val request_with_id :
  ?deadline_ms:float ->
  t ->
  Protocol.request ->
  (Json.t * Protocol.response, Verrors.t) result
(** {!request}, additionally returning the id the request was tagged
    with — for correlating against the server's [stats] ["last"] block
    (the [client --time] server-side wall-time report). *)

val with_connection :
  Server.address -> (t -> ('a, Verrors.t) result) -> ('a, Verrors.t) result
(** [connect], run, [close] (also on exceptions). *)

val retry :
  retries:int ->
  backoff_ms:float ->
  rng:Repro_util.Rng.t ->
  on_retry:(attempt:int -> why:string -> delay_ms:float -> unit) ->
  response:('a -> Protocol.response) ->
  (unit -> ('a, Verrors.t) result) ->
  ('a, Verrors.t) result
(** The one retry policy of every daemon peer.  Run the attempt thunk;
    re-run it at most [retries] more times while it ends in an
    [Io_error] (connection refused while the daemon restarts, resets
    mid-request) or in a response ([response] picks it out of the
    thunk's result) rejected as [overloaded].  Any other outcome —
    success, a [Parse_error], any other structured rejection such as
    [deadline-exceeded] or [invalid-params] — comes back at once.
    Re-sending is safe because responses are deterministic and
    duplicates coalesce server-side.  Before re-attempt [attempt]
    (counting from 1) it calls [on_retry], then sleeps [backoff_ms] ×
    2{^attempt − 1} × U[0.5, 1.5], drawn from [rng].  The thunk decides
    the connection: a fresh one per attempt, or a warm one it reopens
    after a transport failure. *)
