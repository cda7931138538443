module Flow = Repro_core.Flow
module Json = Repro_util.Json
module Verrors = Repro_util.Verrors

type solve_opts = {
  benchmark : string;
  kappa : float;
  slots : int;
  budget_ms : float option;
  max_labels : int option;
  library : string option;
}

let default_opts ~benchmark =
  { benchmark; kappa = 20.0; slots = 158; budget_ms = None; max_labels = None;
    library = None }

type metrics_format = Text | Json_snapshot

type request =
  | Run of { opts : solve_opts; algorithm : Flow.algorithm; warm : bool }
  | Compare of solve_opts
  | Validate of { opts : solve_opts; all : bool }
  | Montecarlo of { opts : solve_opts; instances : int }
  | Stats
  | Metrics of metrics_format
  | Health
  | Flight
  | Shutdown

let request_kind = function
  | Run _ -> "run"
  | Compare _ -> "compare"
  | Validate _ -> "validate"
  | Montecarlo _ -> "montecarlo"
  | Stats -> "stats"
  | Metrics _ -> "metrics"
  | Health -> "health"
  | Flight -> "flight"
  | Shutdown -> "shutdown"

let is_control = function
  | Stats | Metrics _ | Health | Flight | Shutdown -> true
  | Run _ | Compare _ | Validate _ | Montecarlo _ -> false

let algorithms = Flow.solver_names

let algorithm_of_name n = List.assoc_opt n algorithms

let algorithm_name alg =
  fst (List.find (fun (_, a) -> a = alg) algorithms)

type envelope = {
  id : Json.t;
  deadline_ms : float option;
  payload : (request, Verrors.t) result;
}

let stage = "server.protocol"

let perr ?subject fmt =
  Format.kasprintf
    (fun message -> Error (Verrors.make ~code:Verrors.Parse_error ~stage ?subject message))
    fmt

(* ---- request parsing --------------------------------------------- *)

let opt_field doc name of_json =
  match Json.member name doc with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match of_json v with
    | Some x -> Ok (Some x)
    | None -> perr ~subject:name "field %S has the wrong type" name)

let field doc name of_json ~default =
  match opt_field doc name of_json with
  | Ok None -> Ok default
  | Ok (Some v) -> Ok v
  | Error e -> Error e

let ( let* ) = Result.bind

let solve_opts_of ?(require_benchmark = true) doc =
  let* benchmark =
    match Json.member "benchmark" doc with
    | Some (Json.Str b) -> Ok b
    | None | Some Json.Null ->
      if require_benchmark then
        perr ~subject:"benchmark" "missing required field \"benchmark\""
      else Ok ""
    | Some _ -> perr ~subject:"benchmark" "field \"benchmark\" must be a string"
  in
  let* kappa = field doc "kappa" Json.float_value ~default:20.0 in
  let* slots = field doc "slots" Json.int_value ~default:158 in
  let* budget_ms = opt_field doc "budget_ms" Json.float_value in
  let* max_labels = opt_field doc "max_labels" Json.int_value in
  let* library = opt_field doc "library" Json.string_value in
  Ok { benchmark; kappa; slots; budget_ms; max_labels; library }

let request_of_json doc =
  let* kind =
    match Json.member "type" doc with
    | Some (Json.Str k) -> Ok k
    | None -> perr ~subject:"type" "missing required field \"type\""
    | Some _ -> perr ~subject:"type" "field \"type\" must be a string"
  in
  match kind with
  | "run" ->
    let* opts = solve_opts_of doc in
    let* algorithm =
      let* name = field doc "algo" Json.string_value ~default:"wavemin" in
      match algorithm_of_name name with
      | Some a -> Ok a
      | None ->
        perr ~subject:"algo" "unknown algorithm %S (expected %s)" name
          (String.concat ", " (List.map fst algorithms))
    in
    let* warm = field doc "warm" Json.bool_value ~default:false in
    Ok (Run { opts; algorithm; warm })
  | "compare" ->
    let* opts = solve_opts_of doc in
    Ok (Compare opts)
  | "validate" ->
    let* all = field doc "all" Json.bool_value ~default:false in
    let* opts = solve_opts_of ~require_benchmark:(not all) doc in
    Ok (Validate { opts; all })
  | "montecarlo" ->
    let* opts = solve_opts_of doc in
    let* instances = field doc "instances" Json.int_value ~default:200 in
    if instances < 1 then
      perr ~subject:"instances" "field \"instances\" must be >= 1"
    else Ok (Montecarlo { opts; instances })
  | "stats" -> Ok Stats
  | "metrics" -> (
    let* format = field doc "format" Json.string_value ~default:"text" in
    match format with
    | "text" | "prometheus" -> Ok (Metrics Text)
    | "json" -> Ok (Metrics Json_snapshot)
    | f ->
      perr ~subject:"format"
        "unknown metrics format %S (expected \"text\" or \"json\")" f)
  | "health" -> Ok Health
  | "flight" -> Ok Flight
  | "shutdown" -> Ok Shutdown
  | k ->
    perr ~subject:"type"
      "unknown request type %S (expected run, compare, validate, montecarlo, \
       stats, metrics, health, flight or shutdown)"
      k

let parse_request line =
  match Json.of_string line with
  | Error msg ->
    { id = Json.Null; deadline_ms = None;
      payload = perr "malformed JSON: %s" msg }
  | Ok doc -> (
    let id = Option.value (Json.member "id" doc) ~default:Json.Null in
    match opt_field doc "deadline_ms" Json.float_value with
    | Error e -> { id; deadline_ms = None; payload = Error e }
    | Ok (Some ms) when not (Float.is_finite ms && ms >= 0.0) ->
      { id; deadline_ms = None;
        payload =
          perr ~subject:"deadline_ms"
            "field \"deadline_ms\" must be a finite number >= 0" }
    | Ok deadline_ms -> { id; deadline_ms; payload = request_of_json doc })

(* ---- request rendering (client side) ----------------------------- *)

let opts_fields o =
  [ ("benchmark", Json.Str o.benchmark);
    ("kappa", Json.Num o.kappa);
    ("slots", Json.Num (float_of_int o.slots)) ]
  @ (match o.budget_ms with
    | None -> []
    | Some ms -> [ ("budget_ms", Json.Num ms) ])
  @ (match o.max_labels with
    | None -> []
    | Some n -> [ ("max_labels", Json.Num (float_of_int n)) ])
  @ (match o.library with
    | None -> []
    | Some text -> [ ("library", Json.Str text) ])

let request_to_json ?deadline_ms ~id req =
  let body =
    match req with
    | Run { opts; algorithm; warm } ->
      opts_fields opts
      @ [ ("algo", Json.Str (algorithm_name algorithm)) ]
      (* Rendered only when set, so pre-warm request bytes (and their
         canonical keys) are unchanged; a warm run deliberately does
         NOT coalesce with its cold twin — their ECO paths differ. *)
      @ (if warm then [ ("warm", Json.Bool true) ] else [])
    | Compare opts -> opts_fields opts
    | Validate { opts; all } ->
      (if all then [ ("all", Json.Bool true) ] else []) @ opts_fields opts
    | Montecarlo { opts; instances } ->
      opts_fields opts @ [ ("instances", Json.Num (float_of_int instances)) ]
    | Metrics Text -> [ ("format", Json.Str "text") ]
    | Metrics Json_snapshot -> [ ("format", Json.Str "json") ]
    | Stats | Health | Flight | Shutdown -> []
  in
  let deadline =
    match deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", Json.Num ms) ]
  in
  Json.Obj
    (("id", id) :: ("type", Json.Str (request_kind req)) :: (deadline @ body))

(* ---- responses --------------------------------------------------- *)

let ok_response ~id result =
  Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error_response ~id ?(degradations = []) err =
  Json.Obj
    ([ ("id", id); ("ok", Json.Bool false); ("error", Verrors.to_json err) ]
    @
    if degradations = [] then []
    else [ ("degradations", Json.List degradations) ])

(* The single-flight content key: the canonical wire rendering with the
   id nulled out, so two requests differing only in their ids coalesce
   and any semantic difference (benchmark, kappa, budget, library text)
   keeps them apart. *)
let canonical_key req =
  Digest.to_hex (Digest.string (Json.to_string (request_to_json ~id:Json.Null req)))

let line json = Json.to_string json ^ "\n"

type response = { rid : Json.t; ok : bool; body : Json.t }

let parse_response text =
  match Json.of_string text with
  | Error msg -> Error ("malformed response JSON: " ^ msg)
  | Ok doc -> (
    let rid = Option.value (Json.member "id" doc) ~default:Json.Null in
    match Json.member "ok" doc with
    | Some (Json.Bool true) -> (
      match Json.member "result" doc with
      | Some body -> Ok { rid; ok = true; body }
      | None -> Error "response lacks a \"result\" field")
    | Some (Json.Bool false) -> (
      match Json.member "error" doc with
      | Some body -> Ok { rid; ok = false; body }
      | None -> Error "response lacks an \"error\" field")
    | _ -> Error "response lacks a boolean \"ok\" field")

let response_code resp =
  if resp.ok then None
  else
    match Json.member "code" resp.body with
    | Some (Json.Str c) -> Some c
    | _ -> None
