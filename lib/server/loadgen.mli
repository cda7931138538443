(** The [wavemin bench-serve] load generator.

    Drives a live daemon with [connections] concurrent client threads
    over a mixed request-class profile until a request-count or
    wall-duration budget is spent, then reports throughput plus exact
    and rolling-window latency percentiles.  {!to_report} renders the
    result as a [BENCH_serve.json] ({!Repro_obs.Report}, experiment
    ["serve"]) whose numbers all ride in the ratio+slack-gated [runtime]
    section — the regression gate can fail on latency blow-ups but never
    on machine-to-machine speed differences — while error counts go to
    the ungated [environment] block.

    The schedule is a deterministic round-robin expansion of the class
    weights claimed through a shared atomic counter: under a count
    budget the per-class request counts are independent of connection
    count and interleaving, so every class always appears in the report
    (keeping the gate's [Missing_in_new] rule safe). *)

module Verrors := Repro_util.Verrors
module Rolling := Repro_obs.Rolling
module Report := Repro_obs.Report

type klass = { k_name : string; k_request : Protocol.request }

type config = {
  address : Server.address;
  connections : int;
  total : int option;  (** Request-count budget. *)
  duration_s : float option;
      (** Wall budget; with both set, whichever is spent first stops. *)
  profile : (klass * int) list;  (** (class, weight), weights >= 1. *)
  window_s : float;  (** Rolling window for the reported p50/95/99. *)
  retries : int;
      (** Per-request re-attempts under {!Client.retry} (each worker
          reconnects after a transport failure and draws its jitter
          from its own stream).  Latency samples include time spent
          retrying.  Default 0. *)
  retry_backoff_ms : float;  (** {!Client.retry}'s [backoff_ms]. *)
}

val default_profile : benchmark:string -> (klass * int) list
(** 3x [run] (initial), 1x [run] (wavemin), 1x [validate], 1x [stats] —
    a cache-friendly mix with one heavy class and one control probe. *)

val dup_profile : benchmark:string -> fraction:float -> (klass * int) list
(** The default profile plus a [dup-wavemin] class of content-identical
    heavy requests weighted to be ~[fraction] of the schedule (clamped
    to [0, 0.9]) — concurrent connections sending them exercise the
    server's single-flight coalescing. *)

val default_config : Server.address -> benchmark:string -> config
(** 4 connections, 64 requests, default profile, 60 s window, no
    retries (50 ms base backoff). *)

type class_stats = {
  name : string;
  count : int;  (** Successful requests. *)
  errors : int;  (** Failed or rejected requests. *)
  mean_ms : float;
  p50_ms : float;
      (** Exact nearest-rank percentiles ({!Repro_util.Stats.percentile}). *)
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

type result = {
  wall_s : float;
  total_requests : int;
  total_errors : int;
  total_retries : int;
      (** Backoff re-attempts spent across all workers; reported in the
          ungated [environment] block as ["retries"]. *)
  coalesced : int option;
      (** Delta of the server's [coalesced] stats counter over the run
          (sampled via an extra stats probe before and after);
          [None] when the probe failed. *)
  throughput_rps : float;  (** Successful requests per wall second. *)
  rolling : Rolling.stats;  (** The rolling-window view (ms). *)
  overall : class_stats;
  classes : class_stats list;  (** Profile order. *)
}

val run : config -> (result, Verrors.t) Stdlib.result
(** Execute the load.  [Error] on invalid configuration, or when a
    request failed in transport or framing (after its retries) and no
    request succeeded at all; other failures are recorded as class
    errors. *)

val to_report : config -> result -> Report.t
(** The [BENCH_serve.json] report; its [registry] is empty (the load
    generator's own metrics are all zero). *)
