(** In-memory solver flight recorder.

    A bounded ring of structured events capturing what the solve
    {e did} — zone timelines, per-row label statistics, fallback
    transitions with their triggering error codes, budget trips, cache
    and lock contention — cheap enough to leave on in production and
    dumped as versioned JSON for post-mortem forensics ([wavemin
    explain], the server's black-box dumps).

    Like {!Trace} and {!Metrics} the recorder is a process-wide
    singleton behind an enable flag: disabled (the default), {!record}
    is a single atomic load and no allocation, so instrumented hot
    paths cost nothing.  Enabled, each event takes one mutex-guarded
    ring store; the ring is preallocated and old events are overwritten
    once capacity is reached ({!recorded} minus the ring length is the
    number dropped).

    The recorder observes; it never influences: results and responses
    are bit-identical with recording on or off. *)

module Json := Repro_util.Json

(** {1 Events} *)

type kind =
  | Solve_start of { benchmark : string; algorithm : string }
  | Solve_end of {
      benchmark : string;
      algorithm : string;
      ok : bool;
      wall_ms : float;
    }
  | Fallback of {
      from_alg : string;
      to_alg : string option;  (** [None]: chain exhausted. *)
      code : string;  (** The triggering {!Repro_util.Verrors.code}. *)
      message : string;
    }
  | Window of {
      kappa_ps : float;
      feasible : int;  (** Feasible arrival intervals after coalescing. *)
      min_width_ps : float;  (** Tightest window over sinks; may be <= 0. *)
      earliest_leaf : int;  (** Sink whose candidates end earliest... *)
      earliest_ps : float;  (** ...at this arrival time. *)
      latest_leaf : int;  (** Sink whose candidates start latest... *)
      latest_ps : float;  (** ...at this arrival time. *)
    }
  | Zone_start of { cls : int; zone : int; sinks : int }
  | Zone_end of {
      cls : int;
      zone : int;
      peak_ua : float;
      capped : bool;
      memo : bool;
          (** The zone's result came from the per-solve zone memo: no
              solver ran and no [Label_row] events precede this end. *)
      wall_ms : float;
    }
  | Class_skip of {
      cls : int;
      zone : int;  (** The zone whose memoized peak ruled the class out... *)
      peak_ua : float;  (** ...this peak, a lower bound on the class's... *)
      best_ua : float;  (** ...already no better than the best class so far. *)
    }  (** An interval class skipped by the exact class cut-off. *)
  | Label_row of {
      row : int;
      extended : int;  (** Labels created by extension. *)
      kept : int;  (** Labels surviving all pruning. *)
      pruned : int;  (** Dropped by ε-grid + dominance pruning. *)
      capped : int;  (** Dropped by the admissible-projection cap. *)
    }
  | Budget_trip of { reason : string; labels_used : int }
  | Cache of { cache : string; outcome : string; key : string }
  | Contention of { resource : string; wait_ms : float }
  | Sa_move of {
      zone : int;
      stage : int;  (** 1-based within the current (re)start. *)
      temperature : float;
      proposed : int;  (** Proposals this stage. *)
      accepted : int;
      objective : float;  (** Zone objective after the stage; uA. *)
    }  (** One annealing stage summary (per zone). *)
  | Sa_restart of {
      zone : int;
      restart : int;  (** 1-based restart ordinal. *)
      objective : float;  (** Objective of the reheated best state. *)
    }
  | Portfolio_winner of {
      winner : string;  (** Winning algorithm name. *)
      losers : string list;  (** The beaten (or failed) members. *)
      wall_ms : float;  (** Total portfolio wall time. *)
    }
  | Warm_start of {
      benchmark : string;
      moves : int;  (** Proposals spent polishing the cached solution. *)
      objective : float;  (** Final predicted peak; uA. *)
    }  (** A solve that annealed from a cached assignment. *)
  | Note of { name : string; attrs : (string * string) list }

type event = {
  seq : int;  (** Monotonic since the last {!clear}. *)
  t_ns : int64;  (** Monotonic clock, {!Clock.now_ns} scale. *)
  domain : int;  (** Recording domain's id. *)
  kind : kind;
}

(** {1 Recording} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val record : kind -> unit
(** No-op (one atomic load) when disabled.  Callers building expensive
    payloads should guard with [if Flight.enabled () then ...]. *)

val set_capacity : int -> unit
(** Resize the ring (default 4096 events); clears it.
    @raise Invalid_argument when < 1. *)

val capacity : unit -> int

val clear : unit -> unit
(** Drop all events and reset {!recorded}; the enable flag persists. *)

val recorded : unit -> int
(** Events recorded since the last {!clear} (including overwritten). *)

val events : unit -> event list
(** Ring contents, oldest first. *)

(** {1 Serialization}

    The dump is versioned: [{"schema": "wavemin-flight", "version": 1,
    "capacity", "recorded", "dropped", "events": [...]}], each event an
    object with ["seq"], ["t_ms"] (milliseconds since the oldest event
    in the ring), ["domain"], ["kind"] and the kind's fields. *)

val schema_name : string
val schema_version : int

val to_json : unit -> Json.t

val write : string -> (unit, string) result
(** Serialize the ring to a file (compact JSON, trailing newline). *)
