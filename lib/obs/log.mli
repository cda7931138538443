(** Structured logging on top of the [logs] library.

    Each subsystem gets its own {!Logs.src} via [src] (get-or-create by
    name), so verbosity is adjustable per module; [setup] installs a
    [Fmt]-based stderr reporter and the global level.  Nothing logs
    until [setup] runs — library code can hold sources and emit freely
    without forcing a reporter on embedding applications. *)

val src : string -> Logs.src
(** Get or create the named source (e.g. ["wavemin.warburton"]). *)

val setup : ?level:Logs.level option -> unit -> unit
(** Install the stderr reporter; [level] (default [Some Warning]) sets
    the global report threshold, [None] disables all logging. *)

