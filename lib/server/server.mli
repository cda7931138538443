(** The resident optimization service behind [wavemin serve].

    One process serves newline-delimited JSON requests ({!Protocol})
    over a Unix-domain or TCP socket.  Architecture:

    - an {e acceptor} thread admits connections (poll-based, so drain
      is prompt) and spawns one reader thread per connection;
    - reader threads parse request lines.  Control-plane requests
      ([health]/[stats]/[shutdown]) are answered immediately — probes
      work even under full load.  Data-plane requests go through a
      {e bounded} queue ({!Bqueue}); when it is full the request is
      rejected {e immediately} with a structured [overloaded] error
      (explicit backpressure, never unbounded buffering);
    - N {e executor} workers ([executors] in {!config}, default = the
      job count) pop requests concurrently from the shared queue and
      run them via {!Handlers} on the warm {!Session} cache (itself
      lock-striped across shards); solver internals fan out across the
      {!Repro_par} pool, so [-j]/[WAVEMIN_JOBS] governs per-request
      parallelism and [executors] governs cross-request parallelism;
    - {e single-flight coalescing} ({!Sflight}): data-plane requests
      whose canonical content ({!Protocol.canonical_key}) matches an
      already queued-or-executing request attach to that flight instead
      of taking a queue slot; the leader's executor answers every
      follower with the same (deterministic) outcome under the
      follower's own request id.  Counted in [server.coalesced], logged
      with [cache = "coalesced"], visible as a [server.coalesced]
      retroactive trace span.

    Graceful drain — a [shutdown] request, {!initiate_drain}, or
    SIGTERM/SIGINT (when [handle_signals], via a self-pipe so no locks
    are taken in the signal handler) — stops accepting, rejects new
    work, finishes everything already queued, then flushes a final
    BENCH-style run report ({!Repro_obs.Report}, experiment
    ["serve-drain"]) with the metrics-registry snapshot.

    {b Telemetry.}  Every data-plane request gets a server-assigned
    request id ([r000042]) carried through queue → execute → respond:
    a retroactive [server.queue] span plus
    [server.request]/[server.execute]/[server.respond] spans — on the
    executing worker's own ["server-executor-K"] Chrome-trace lane
    (synthetic tid [1000 + K]) — an optional JSONL
    access-log line (timestamp, ids, type, content hash, cache outcome,
    degradations, queue-wait/wall time, status), and observations into
    both the cumulative [server.latency_ms]/[server.queue_wait_ms]
    histograms and rolling windows whose p50/p95/p99 are served live in
    [stats] (under ["rolling"], plus a ["last"] completed-request block
    that [wavemin client --time] correlates by request id).  A periodic
    {!Repro_obs.Runtime} sampler records GC/RSS gauges, queue depth and
    the domain-pool busy fraction; the [metrics] control request
    exposes the whole registry as Prometheus text or JSON.  All of it
    is strictly out-of-band: response bytes carry none of these fields,
    preserving the byte-identity determinism property.

    Each data-plane request ends in one outcome record whose status
    counter, latency windows, [last], access-log line and dump are all
    written in one place, so [stats], the drain report and the access
    log agree. *)

type address =
  | Unix_path of string  (** Unix-domain socket path. *)
  | Tcp of { host : string; port : int }

val address_of_string : string -> (address, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], ["tcp:PORT"] (localhost), or a
    bare path (Unix-domain). *)

val address_to_string : address -> string

val resolve : stage:string -> address -> Unix.socket_domain * Unix.sockaddr
(** The socket address behind [address]: the daemon binds it, every
    peer connects to it.  A TCP host is a dotted quad or a host name.
    @raise Repro_util.Verrors.Error [Io_error] at [stage], ["cannot
    resolve host HOST"], when the lookup finds nothing. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, looping over short writes.  Raises what
    [Unix.write_substring] raises (EPIPE when the peer is gone). *)

type config = {
  address : address;
  queue_capacity : int;  (** Bounded-queue depth (default 16). *)
  cache_capacity : int;  (** Session-cache entries (default 8). *)
  cache_shards : int;
      (** Session-cache lock stripes (default 4); clamped by
          {!Session.create} to a power of two no larger than the
          capacity. *)
  executors : int;
      (** Executor workers popping the queue; [<= 0] (the default)
          means one per job ({!Repro_par.Par.jobs}). *)
  report_path : string option;
      (** Where the final drain report goes; [None] disables it. *)
  access_log_path : string option;
      (** JSONL access log, one line per data-plane request (appended;
          [None] disables).  Opening failures raise [Io_error] at
          {!setup} time. *)
  access_log_max_bytes : int option;
      (** Size-based rotation threshold for the access log ({!Access_log});
          [None] (or [<= 0]) grows the file without bound. *)
  access_log_keep : int;
      (** Rotated access-log generations retained ([path.1] ..
          [path.N], default 3). *)
  rolling_window_s : float;
      (** Width of the rolling latency/queue-wait windows surfaced in
          [stats] (default 60 s). *)
  sample_period_s : float option;
      (** Period of the {!Repro_obs.Runtime} sampler thread recording
          GC/RSS/queue/pool gauges; [None] disables it. *)
  handle_signals : bool;
      (** Install SIGTERM/SIGINT drain handlers (the CLI does; embedded
          servers — tests, examples — must not). *)
  readiness : out_channel option;
      (** Print a one-line ["listening on ..."] banner here once the
          socket is bound (the smoke tests' readiness signal). *)
  flight_dir : string option;
      (** Where black-box {!Repro_obs.Flight} dumps go: on a faulted or
          degraded request, and once per overload episode, the ring is
          written to [<dir>/<rid>.flight.json] (request-id-named, for
          [wavemin explain]).  [None] disables dumping; the in-memory
          recorder stays on either way ([flight] control request). *)
  idle_timeout_s : float option;
      (** Close a connection that produces no complete request line for
          this long (default 300 s) with a structured [io-error] — the
          slowloris guard; a byte-at-a-time dribbler counts as idle
          because only {e complete} lines reset the clock.  [None]
          disables the timeout. *)
  max_line_bytes : int;
      (** Reject (structured [parse-error]) and disconnect a peer whose
          request line exceeds this many bytes (default 1 MiB, floor
          1024) — the reader buffer is bounded by it. *)
  watchdog_period_s : float option;
      (** Poll period of the executor watchdog thread (default 1 s);
          [None] disables the watchdog. *)
  stall_after_s : float;
      (** Stall limit for requests with no budget and no deadline
          (default 30 s).  Budgeted or deadlined requests stall at 4×
          their tighter limit instead.  A stalled executor is reported
          (warning, [server.executor_stalled] metric, flight note and
          black-box dump) once per wedged request — never killed; the
          per-request {!Repro_obs.Budget} is the cooperative
          cancellation path. *)
}

val default_config : address -> config
(** Queue 16, cache 8 across 4 shards, executors = jobs, report
    ["BENCH_serve_drain.json"], no access log (rotation off, keep 3),
    60 s rolling window, 1 s sampler, no signal handlers, no banner,
    flight dumps in ["."], 300 s idle timeout, 1 MiB line cap, 1 s
    watchdog period, 30 s unbudgeted stall limit. *)

type t
(** A handle onto a serving instance, usable from other threads. *)

val initiate_drain : t -> unit
(** Begin graceful drain: stop accepting connections and new work,
    finish what is queued.  Idempotent; thread-safe. *)

val draining : t -> bool

val serve : config -> unit
(** Bind, serve until drained, flush the final report, release the
    socket.  Blocks the calling thread until every executor worker has
    joined.
    @raise Repro_util.Verrors.Error ([Io_error]) when the socket cannot
    be bound. *)

val serve_background : config -> t * Thread.t
(** {!serve} on a fresh thread, returning once the socket is bound and
    accepting — for tests and embedded use.  Join the thread after
    {!initiate_drain} (or a [shutdown] request) to complete drain.
    @raise Repro_util.Verrors.Error as {!serve}. *)
