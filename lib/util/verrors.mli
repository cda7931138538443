(** Structured errors and diagnostics for the whole pipeline.

    Every failure the optimization stack can diagnose is described by a
    {!t}: a machine-readable {!code}, the pipeline [stage] that raised
    it, an optional [subject] (the leaf, cell, file or seam concerned),
    a human-readable [message], and actionable [hints].  Boundary APIs
    return [('a, t) result]; internal code may raise {!Error}, which the
    entry points ({!Repro_core.Flow}, [bin/wavemin.ml]) catch and turn
    into either a solver downgrade or a diagnosed exit.

    The codes double as the vocabulary of the run-report [degradations]
    block and of the CLI exit diagnostics, so they are stable strings
    ({!code_name}). *)

type code =
  | Parse_error  (** Malformed input text (Liberty, JSON, reports). *)
  | Invalid_tree  (** Clock-tree structural invariant violated. *)
  | Invalid_library  (** Cell-library invariant violated. *)
  | Invalid_params  (** Solver parameter out of range. *)
  | Invalid_modes  (** Power-mode configuration inconsistent. *)
  | Empty_zones  (** No zone has a leaf to optimize. *)
  | Infeasible_window  (** No feasible skew window exists. *)
  | Label_cap  (** MOSP label sets truncated beyond epsilon. *)
  | Budget_exhausted  (** Wall-clock or label budget ran out. *)
  | Deadline_exceeded
      (** The request's end-to-end deadline ([deadline_ms]) passed: the
          work was shed before execution or cancelled cooperatively
          mid-solve ({!Repro_server.Server}).  The sender has already
          given up — do not retry with the same deadline. *)
  | Fault_injected  (** A {!Repro_obs.Fault} seam tripped. *)
  | Overloaded
      (** A service refused new work: bounded queue full or draining
          ({!Repro_server.Server}).  Back off and retry. *)
  | Io_error  (** File-system failure. *)
  | Internal  (** Uncategorized failure (wrapped exception). *)

val code_name : code -> string
(** Stable kebab-case identifier, e.g. ["infeasible-window"]. *)

type t = {
  code : code;
  stage : string;  (** e.g. ["context.solve"], ["liberty.parse"]. *)
  subject : string option;  (** e.g. ["leaf 12"], ["cell BUF_X8"]. *)
  message : string;
  hints : string list;  (** Actionable follow-ups, may be empty. *)
}

exception Error of t
(** The raisable form; {!guard} and the flow entry points catch it. *)

val make :
  code:code -> stage:string -> ?subject:string -> ?hints:string list ->
  string -> t

val fail :
  code:code -> stage:string -> ?subject:string -> ?hints:string list ->
  string -> 'a
(** [make] then raise {!Error}. *)

val error :
  code:code -> stage:string -> ?subject:string -> ?hints:string list ->
  string -> ('a, t) result

val to_string : t -> string
(** One paragraph: ["[code] stage (subject): message" ] plus one
    ["  hint: ..."] line per hint. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t

val of_exn : exn -> t
(** Wrap any exception: {!Error} payloads pass through; [Failure],
    [Invalid_argument] and [Sys_error] map to {!Internal}/{!Io_error};
    anything else is {!Internal} with [Printexc.to_string].  Never
    call it on asynchronous exceptions ([Out_of_memory], ...). *)

val guard : stage:string -> (unit -> 'a) -> ('a, t) result
(** Run a thunk, mapping raised exceptions through {!of_exn}.
    [Out_of_memory], [Stack_overflow] and [Sys.Break] are re-raised. *)
