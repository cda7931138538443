module Flow = Repro_core.Flow
module Context = Repro_core.Context
module Preflight = Repro_core.Preflight
module Montecarlo = Repro_core.Montecarlo
module Benchmarks = Repro_cts.Benchmarks
module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Budget = Repro_obs.Budget
module P = Protocol

let params_of (o : P.solve_opts) =
  { Context.default_params with Context.kappa = o.kappa; num_slots = o.slots }

(* One budget per request, merging the caller's solver limits with the
   envelope deadline (absolute, stamped by the reader at parse time).
   The deadline channel trips with [Deadline_exceeded] and wins over
   [Budget_exhausted] — a shed request is the sender's choice, not a
   solver downgrade. *)
let budget_of ?deadline_ns (o : P.solve_opts) =
  match (o.budget_ms, o.max_labels, deadline_ns) with
  | None, None, None -> None
  | wall_ms, max_labels, deadline_ns ->
    Some (Budget.create ?wall_ms ?deadline_ns ?max_labels ())

let find_spec ~stage name =
  match Benchmarks.find name with
  | spec -> Ok spec
  | exception Not_found ->
    Verrors.error ~code:Verrors.Invalid_params ~stage ~subject:name
      ~hints:[ "`wavemin list' names the benchmark suite" ]
      "unknown benchmark"

let degradation_json (d : Flow.degradation) =
  Json.Obj
    [ ("from", Json.Str (Flow.algorithm_name d.Flow.from_alg));
      ( "to",
        match d.Flow.to_alg with
        | Some a -> Json.Str (Flow.algorithm_name a)
        | None -> Json.Null );
      ("code", Json.Str (Verrors.code_name d.Flow.error.Verrors.code));
      ("message", Json.Str d.Flow.error.Verrors.message) ]

(* Only deterministic fields: no wall/CPU time, no cache provenance —
   the same request must serialize to the same bytes on every path. *)
let run_json (r : Flow.run) =
  Json.Obj
    [ ("benchmark", Json.Str r.Flow.benchmark);
      ("algorithm", Json.Str (Flow.algorithm_name r.Flow.algorithm));
      ( "quality",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (Flow.quality r)) );
      ("approximate", Json.Bool r.Flow.approximate);
      ( "degradations",
        Json.List (List.map degradation_json r.Flow.degradations) ) ]

(* Out-of-band execution facts for the access log: cache outcome and
   content hash.  Threaded as a mutable record precisely so nothing
   about it can leak into the response body — responses stay
   byte-identical with or without a [meta] attached. *)
type cache_outcome =
  | Cache_hit
  | Cache_miss
  | Cache_coalesced
  | Cache_warm
  | Cache_none

type meta = {
  mutable cache : cache_outcome;
  mutable content_key : string option;
}

let create_meta () = { cache = Cache_none; content_key = None }

let cache_outcome_name = function
  | Cache_hit -> "hit"
  | Cache_miss -> "miss"
  | Cache_coalesced -> "coalesced"
  | Cache_warm -> "warm"
  | Cache_none -> "none"

let prepared ?meta session (o : P.solve_opts) ~stage =
  match find_spec ~stage o.P.benchmark with
  | Error e -> Error e
  | Ok spec ->
    let params = params_of o in
    let result =
      Session.prepared session ~spec ~params ?library:o.P.library ()
    in
    (match meta with
    | None -> ()
    | Some m ->
      m.content_key <- Some (Session.key ~spec ~params ~library:o.P.library);
      (match result with
      | Ok (_, `Hit) -> m.cache <- Cache_hit
      | Ok (_, `Miss) -> m.cache <- Cache_miss
      | Error _ -> ()));
    Result.map (fun (prep, _) -> (spec, prep)) result

let handle_run ?meta ?deadline_ns session (o : P.solve_opts) algorithm ~warm =
  match prepared ?meta session o ~stage:"server.run" with
  | Error e -> Error (e, [])
  | Ok (spec, prep) ->
    let budget = budget_of ?deadline_ns o in
    (* The base key (tree + library, params excluded) indexes the
       warm-start store. *)
    let base = Session.base_key ~spec ~library:o.P.library in
    let hint =
      if warm && algorithm = Flow.Sa then Session.warm_hint session ~base
      else None
    in
    let result =
      match hint with
      | Some (_prev_params, previous) ->
        (match meta with
        | None -> ()
        | Some m -> m.cache <- Cache_warm);
        Flow.run ?budget prep (Flow.Warm previous)
      | None -> Flow.run ?budget prep (Flow.Chain algorithm)
    in
    (* Bank any real solver's solution (the Initial reference is just
       the default assignment — nothing worth quenching from). *)
    (match result with
    | Ok r when r.Flow.algorithm <> Flow.Initial ->
      Session.remember_warm session ~base ~params:(params_of o)
        r.Flow.assignment
    | _ -> ());
    Result.map run_json result

let handle_compare ?meta ?deadline_ns session (o : P.solve_opts) =
  match prepared ?meta session o ~stage:"server.compare" with
  | Error e -> Error (e, [])
  | Ok (_, prep) ->
    let rows =
      List.map
        (fun algorithm ->
          match
            Flow.run ?budget:(budget_of ?deadline_ns o) prep (Flow.Chain algorithm)
          with
          | Ok r -> run_json r
          | Error (e, degs) ->
            Json.Obj
              [ ("algorithm", Json.Str (Flow.algorithm_name algorithm));
                ("error", Verrors.to_json e);
                ("degradations", Json.List (List.map degradation_json degs)) ])
        [ Flow.Initial; Flow.Peakmin; Flow.Wavemin; Flow.Wavemin_fast ]
    in
    Ok (Json.Obj [ ("benchmark", Json.Str o.P.benchmark);
                   ("algorithms", Json.List rows) ])

let handle_validate session (o : P.solve_opts) ~all =
  let specs =
    if all then Ok Benchmarks.all
    else
      match find_spec ~stage:"server.validate" o.P.benchmark with
      | Ok spec -> Ok [ spec ]
      | Error e -> Error e
  in
  match specs with
  | Error e -> Error (e, [])
  | Ok specs ->
    let params = params_of o in
    let rows =
      List.map
        (fun spec ->
          let issues =
            match
              Session.prepared session ~spec ~params ?library:o.P.library ()
            with
            | Error e -> [ e ]
            | Ok (prep, _) -> (
              match
                Verrors.guard ~stage:"server.validate" (fun () ->
                    Preflight.check ~params (Flow.prepared_tree prep)
                      ~cells:(Flow.prepared_cells prep))
              with
              | Ok ds -> ds
              | Error e -> [ e ])
          in
          Json.Obj
            [ ("benchmark", Json.Str spec.Benchmarks.name);
              ("ok", Json.Bool (issues = []));
              ("issues", Json.List (List.map Verrors.to_json issues)) ])
        specs
    in
    let clean =
      List.for_all
        (function
          | Json.Obj fields -> List.assoc_opt "ok" fields = Some (Json.Bool true)
          | _ -> false)
        rows
    in
    Ok (Json.Obj [ ("ok", Json.Bool clean); ("benchmarks", Json.List rows) ])

let handle_montecarlo ?meta ?deadline_ns session (o : P.solve_opts) ~instances =
  match prepared ?meta session o ~stage:"server.montecarlo" with
  | Error e -> Error (e, [])
  | Ok (_, prep) -> (
    match
      Flow.run ?budget:(budget_of ?deadline_ns o) prep (Flow.Chain Flow.Wavemin)
    with
    | Error (e, degs) -> Error (e, degs)
    | Ok r -> (
      let config =
        { Montecarlo.default_config with
          Montecarlo.instances;
          kappa = Float.max o.P.kappa 100.0 }
      in
      match
        Verrors.guard ~stage:"server.montecarlo" (fun () ->
            Montecarlo.run ~config (Flow.prepared_tree prep) r.Flow.assignment)
      with
      | Error e -> Error (e, r.Flow.degradations)
      | Ok rep ->
        Ok
          (Json.Obj
             [ ("benchmark", Json.Str o.P.benchmark);
               ("instances", Json.Num (float_of_int instances));
               ("skew_yield", Json.Num rep.Montecarlo.skew_yield);
               ("mean_skew", Json.Num rep.Montecarlo.mean_skew);
               ("norm_std_peak", Json.Num rep.Montecarlo.norm_std_peak);
               ("norm_std_vdd", Json.Num rep.Montecarlo.norm_std_vdd);
               ("norm_std_gnd", Json.Num rep.Montecarlo.norm_std_gnd);
               ( "degradations",
                 Json.List (List.map degradation_json r.Flow.degradations) ) ])))

let execute ?meta ?deadline_ns session = function
  | P.Run { opts; algorithm; warm } ->
    handle_run ?meta ?deadline_ns session opts algorithm ~warm
  | P.Compare opts -> handle_compare ?meta ?deadline_ns session opts
  | P.Validate { opts; all } -> handle_validate session opts ~all
  | P.Montecarlo { opts; instances } ->
    handle_montecarlo ?meta ?deadline_ns session opts ~instances
  | (P.Stats | P.Metrics _ | P.Health | P.Flight | P.Shutdown) as req ->
    Error
      ( Verrors.make ~code:Verrors.Invalid_params ~stage:"server.execute"
          ~subject:(P.request_kind req)
          "control-plane request reached the executor",
        [] )
