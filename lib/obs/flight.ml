module Json = Repro_util.Json

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
      to_alg : string option;
      code : string;
      message : string;
    }
  | Window of {
      kappa_ps : float;
      feasible : int;
      min_width_ps : float;
      earliest_leaf : int;
      earliest_ps : float;
      latest_leaf : int;
      latest_ps : float;
    }
  | Zone_start of { cls : int; zone : int; sinks : int }
  | Zone_end of {
      cls : int;
      zone : int;
      peak_ua : float;
      capped : bool;
      memo : bool;
      wall_ms : float;
    }
  | Class_skip of { cls : int; zone : int; peak_ua : float; best_ua : float }
  | Label_row of {
      row : int;
      extended : int;
      kept : int;
      pruned : int;
      capped : int;
    }
  | Budget_trip of { reason : string; labels_used : int }
  | Cache of { cache : string; outcome : string; key : string }
  | Contention of { resource : string; wait_ms : float }
  | Sa_move of {
      zone : int;
      stage : int;
      temperature : float;
      proposed : int;
      accepted : int;
      objective : float;
    }
  | Sa_restart of { zone : int; restart : int; objective : float }
  | Portfolio_winner of {
      winner : string;
      losers : string list;
      wall_ms : float;
    }
  | Warm_start of { benchmark : string; moves : int; objective : float }
  | Note of { name : string; attrs : (string * string) list }

type event = { seq : int; t_ns : int64; domain : int; kind : kind }

let schema_name = "wavemin-flight"
let schema_version = 1

(* Disabled is the common case: [record] must be a single atomic load
   with no allocation, so the flag lives outside the mutex. *)
let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let dummy = { seq = -1; t_ns = 0L; domain = 0; kind = Note { name = ""; attrs = [] } }

let mutex = Mutex.create ()
let ring = ref (Array.make 4096 dummy)
let count = ref 0 (* events recorded since the last clear *)

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let capacity () = with_lock (fun () -> Array.length !ring)

let set_capacity n =
  if n < 1 then invalid_arg "Flight.set_capacity: capacity < 1";
  with_lock (fun () ->
      ring := Array.make n dummy;
      count := 0)

let clear () =
  with_lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) dummy;
      count := 0)

let recorded () = with_lock (fun () -> !count)

let record kind =
  if Atomic.get enabled_flag then begin
    let t_ns = Clock.now_ns () in
    let domain = (Domain.self () :> int) in
    with_lock (fun () ->
        let r = !ring in
        let seq = !count in
        r.(seq mod Array.length r) <- { seq; t_ns; domain; kind };
        count := seq + 1)
  end

let events () =
  with_lock (fun () ->
      let r = !ring in
      let len = Array.length r in
      let n = Stdlib.min !count len in
      List.init n (fun i -> r.((!count - n + i) mod len)))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let kind_name = function
  | Solve_start _ -> "solve-start"
  | Solve_end _ -> "solve-end"
  | Fallback _ -> "fallback"
  | Window _ -> "window"
  | Zone_start _ -> "zone-start"
  | Zone_end _ -> "zone-end"
  | Class_skip _ -> "class-skip"
  | Label_row _ -> "label-row"
  | Budget_trip _ -> "budget-trip"
  | Cache _ -> "cache"
  | Contention _ -> "contention"
  | Sa_move _ -> "sa-move"
  | Sa_restart _ -> "sa-restart"
  | Portfolio_winner _ -> "portfolio-winner"
  | Warm_start _ -> "warm-start"
  | Note _ -> "note"

let num_i i = Json.Num (float_of_int i)

let kind_fields = function
  | Solve_start { benchmark; algorithm } ->
    [ ("benchmark", Json.Str benchmark); ("algorithm", Json.Str algorithm) ]
  | Solve_end { benchmark; algorithm; ok; wall_ms } ->
    [ ("benchmark", Json.Str benchmark);
      ("algorithm", Json.Str algorithm);
      ("ok", Json.Bool ok);
      ("wall_ms", Json.Num wall_ms) ]
  | Fallback { from_alg; to_alg; code; message } ->
    [ ("from", Json.Str from_alg);
      ("to", match to_alg with Some a -> Json.Str a | None -> Json.Null);
      ("code", Json.Str code);
      ("message", Json.Str message) ]
  | Window
      { kappa_ps; feasible; min_width_ps; earliest_leaf; earliest_ps;
        latest_leaf; latest_ps } ->
    [ ("kappa_ps", Json.Num kappa_ps);
      ("feasible", num_i feasible);
      ("min_width_ps", Json.Num min_width_ps);
      ("earliest_leaf", num_i earliest_leaf);
      ("earliest_ps", Json.Num earliest_ps);
      ("latest_leaf", num_i latest_leaf);
      ("latest_ps", Json.Num latest_ps) ]
  | Zone_start { cls; zone; sinks } ->
    [ ("class", num_i cls); ("zone", num_i zone); ("sinks", num_i sinks) ]
  | Zone_end { cls; zone; peak_ua; capped; memo; wall_ms } ->
    [ ("class", num_i cls);
      ("zone", num_i zone);
      ("peak_ua", Json.Num peak_ua);
      ("capped", Json.Bool capped);
      ("memo", Json.Bool memo);
      ("wall_ms", Json.Num wall_ms) ]
  | Class_skip { cls; zone; peak_ua; best_ua } ->
    [ ("class", num_i cls);
      ("zone", num_i zone);
      ("peak_ua", Json.Num peak_ua);
      ("best_ua", Json.Num best_ua) ]
  | Label_row { row; extended; kept; pruned; capped } ->
    [ ("row", num_i row);
      ("extended", num_i extended);
      ("kept", num_i kept);
      ("pruned", num_i pruned);
      ("capped", num_i capped) ]
  | Budget_trip { reason; labels_used } ->
    [ ("reason", Json.Str reason); ("labels_used", num_i labels_used) ]
  | Cache { cache; outcome; key } ->
    [ ("cache", Json.Str cache);
      ("outcome", Json.Str outcome);
      ("key", Json.Str key) ]
  | Contention { resource; wait_ms } ->
    [ ("resource", Json.Str resource); ("wait_ms", Json.Num wait_ms) ]
  | Sa_move { zone; stage; temperature; proposed; accepted; objective } ->
    [ ("zone", num_i zone);
      ("stage", num_i stage);
      ("temperature", Json.Num temperature);
      ("proposed", num_i proposed);
      ("accepted", num_i accepted);
      ("objective", Json.Num objective) ]
  | Sa_restart { zone; restart; objective } ->
    [ ("zone", num_i zone);
      ("restart", num_i restart);
      ("objective", Json.Num objective) ]
  | Portfolio_winner { winner; losers; wall_ms } ->
    [ ("winner", Json.Str winner);
      ("losers", Json.List (List.map (fun l -> Json.Str l) losers));
      ("wall_ms", Json.Num wall_ms) ]
  | Warm_start { benchmark; moves; objective } ->
    [ ("benchmark", Json.Str benchmark);
      ("moves", num_i moves);
      ("objective", Json.Num objective) ]
  | Note { name; attrs } ->
    ("name", Json.Str name)
    :: List.map (fun (k, v) -> (k, Json.Str v)) attrs

let to_json () =
  let evs = events () in
  let n_recorded = recorded () in
  let cap = capacity () in
  let t0 = match evs with [] -> 0L | e :: _ -> e.t_ns in
  let event_json e =
    Json.Obj
      (( "seq", num_i e.seq )
       :: ( "t_ms",
            Json.Num (Int64.to_float (Int64.sub e.t_ns t0) /. 1e6) )
       :: ("domain", num_i e.domain)
       :: ("kind", Json.Str (kind_name e.kind))
       :: kind_fields e.kind)
  in
  Json.Obj
    [ ("schema", Json.Str schema_name);
      ("version", num_i schema_version);
      ("capacity", num_i cap);
      ("recorded", num_i n_recorded);
      ("dropped", num_i (Stdlib.max 0 (n_recorded - List.length evs)));
      ("events", Json.List (List.map event_json evs)) ]

let write path =
  match
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string (to_json ()));
        output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
