(** The wire protocol of [wavemin serve]: newline-delimited JSON.

    Each request is one single-line JSON object
    [{"id": ..., "type": ..., ...}] terminated by ['\n']; each response
    is one line [{"id": ..., "ok": true, "result": {...}}] or
    [{"id": ..., "ok": false, "error": {...}}] where [error] is the
    {!Repro_util.Verrors.to_json} rendering (plus a [degradations]
    array when a solver fallback chain was exhausted).  The [id] is
    echoed verbatim, so pipelined clients can match responses to
    requests; control-plane responses ([health], [stats], rejections)
    may overtake queued data-plane responses.

    Request bodies are {e deterministic} by construction: responses
    carry no timestamps, cache or queue state, so the same request
    yields a byte-identical response whether served cold, warm, or
    concurrently with others (the bit-identity property tested in
    [test/test_server.ml]). *)

module Flow := Repro_core.Flow
module Json := Repro_util.Json
module Verrors := Repro_util.Verrors

type solve_opts = {
  benchmark : string;
  kappa : float;  (** Skew bound, ps (default 20). *)
  slots : int;  (** Sampling slots |S| (default 158). *)
  budget_ms : float option;  (** Per-request wall budget. *)
  max_labels : int option;  (** Per-request MOSP label budget. *)
  library : string option;
      (** Inline Liberty-style cell library overriding the built-in
          leaf library; part of the session-cache content hash. *)
}

val default_opts : benchmark:string -> solve_opts

type metrics_format =
  | Text  (** Prometheus text exposition ({!Repro_obs.Prometheus}). *)
  | Json_snapshot  (** {!Repro_obs.Metrics.to_json} snapshot. *)

type request =
  | Run of { opts : solve_opts; algorithm : Flow.algorithm; warm : bool }
      (** [warm] (wire field ["warm"], default [false]) opts a
          [Sa] run into the warm-start ECO path: when the session holds
          a previous assignment for the same tree and library, the
          annealer quenches from it instead of solving cold.  Only
          rendered on the wire when [true], so pre-warm request bytes
          and canonical keys are unchanged. *)
  | Compare of solve_opts  (** All four algorithms on one benchmark. *)
  | Validate of { opts : solve_opts; all : bool }
      (** Preflight one benchmark, or the whole suite with [all]. *)
  | Montecarlo of { opts : solve_opts; instances : int }
  | Stats  (** Server statistics (control plane, never queued). *)
  | Metrics of metrics_format
      (** Live metrics-registry exposition (control plane).  Wire form:
          [{"type": "metrics", "format": "text" | "json"}] — ["text"]
          (alias ["prometheus"], the default) answers with
          [{"format": "prometheus", "body": <exposition text>}]. *)
  | Health  (** Readiness/liveness probe (control plane). *)
  | Flight
      (** Live snapshot of the {!Repro_obs.Flight} ring (control plane);
          answers with the versioned dump JSON, renderable by
          [wavemin explain]. *)
  | Shutdown  (** Graceful drain (control plane). *)

val request_kind : request -> string
(** The wire [type] string: ["run"], ["compare"], ... *)

val is_control : request -> bool
(** [Stats]/[Health]/[Shutdown]: answered directly by the connection
    thread, bypassing the bounded queue (so probes work under load). *)

val algorithm_of_name : string -> Flow.algorithm option
(** CLI spellings: ["initial"], ["peakmin"], ["wavemin"],
    ["wavemin-f"], ["sa"] (the {!Repro_core.Flow.solver_names}
    vocabulary). *)

val algorithm_name : Flow.algorithm -> string

type envelope = {
  id : Json.t;
  deadline_ms : float option;
      (** Optional end-to-end deadline, milliseconds from the moment the
          server parses the line.  The reader stamps an absolute
          deadline at parse time; work still queued (or executing) past
          it is shed/cancelled with a structured [deadline-exceeded]
          error.  Envelope-level, like [id]: it never participates in
          {!canonical_key}, so requests differing only in deadline
          still coalesce. *)
  payload : (request, Verrors.t) result;
}
(** One parsed request line: the echoed [id] ([Null] when the line was
    too malformed to carry one) and the request or a structured parse
    diagnostic. *)

val parse_request : string -> envelope
(** Total: malformed JSON, missing/unknown [type] or bad fields come
    back as [Error] payloads, never exceptions.  A [deadline_ms] that
    is not a finite number [>= 0] is a parse error. *)

val request_to_json : ?deadline_ms:float -> id:Json.t -> request -> Json.t

val canonical_key : request -> string
(** Hex digest of the canonical wire rendering with the id nulled out —
    the single-flight coalescing key.  Two requests coalesce iff every
    semantic field (benchmark, parameters, budgets, inline library)
    matches; the request id and the envelope [deadline_ms] never
    participate (a deadline bounds waiting, it does not change the
    deterministic result content). *)

val ok_response : id:Json.t -> Json.t -> Json.t
val error_response : id:Json.t -> ?degradations:Json.t list -> Verrors.t -> Json.t

val line : Json.t -> string
(** Compact one-line rendering plus the trailing newline. *)

type response = {
  rid : Json.t;  (** The echoed request id. *)
  ok : bool;
  body : Json.t;  (** The [result] on success, the [error] otherwise. *)
}

val parse_response : string -> (response, string) result

val response_code : response -> string option
(** The error code of a rejected response (["overloaded"],
    ["deadline-exceeded"], ...); [None] for an ok response. *)
