type code =
  | Parse_error
  | Invalid_tree
  | Invalid_library
  | Invalid_params
  | Invalid_modes
  | Empty_zones
  | Infeasible_window
  | Label_cap
  | Budget_exhausted
  | Deadline_exceeded
  | Fault_injected
  | Overloaded
  | Io_error
  | Internal

let code_name = function
  | Parse_error -> "parse-error"
  | Invalid_tree -> "invalid-tree"
  | Invalid_library -> "invalid-library"
  | Invalid_params -> "invalid-params"
  | Invalid_modes -> "invalid-modes"
  | Empty_zones -> "empty-zones"
  | Infeasible_window -> "infeasible-window"
  | Label_cap -> "label-cap"
  | Budget_exhausted -> "budget-exhausted"
  | Deadline_exceeded -> "deadline-exceeded"
  | Fault_injected -> "fault-injected"
  | Overloaded -> "overloaded"
  | Io_error -> "io-error"
  | Internal -> "internal"

type t = {
  code : code;
  stage : string;
  subject : string option;
  message : string;
  hints : string list;
}

exception Error of t

let make ~code ~stage ?subject ?(hints = []) message =
  { code; stage; subject; message; hints }

let fail ~code ~stage ?subject ?hints message =
  raise (Error (make ~code ~stage ?subject ?hints message))

let error ~code ~stage ?subject ?hints message =
  Stdlib.Error (make ~code ~stage ?subject ?hints message)

let to_string e =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "[%s] %s%s: %s" (code_name e.code) e.stage
       (match e.subject with None -> "" | Some s -> " (" ^ s ^ ")")
       e.message);
  List.iter (fun h -> Buffer.add_string b ("\n  hint: " ^ h)) e.hints;
  Buffer.contents b

let pp fmt e = Format.pp_print_string fmt (to_string e)

let to_json e =
  Json.Obj
    ([ ("code", Json.Str (code_name e.code));
       ("stage", Json.Str e.stage) ]
    @ (match e.subject with
      | None -> []
      | Some s -> [ ("subject", Json.Str s) ])
    @ [ ("message", Json.Str e.message);
        ("hints", Json.List (List.map (fun h -> Json.Str h) e.hints)) ])

let of_exn = function
  | Error e -> e
  | Failure msg -> make ~code:Internal ~stage:"unknown" msg
  | Invalid_argument msg -> make ~code:Internal ~stage:"unknown" msg
  | Sys_error msg -> make ~code:Io_error ~stage:"io" msg
  | Not_found -> make ~code:Internal ~stage:"unknown" "value not found"
  | exn -> make ~code:Internal ~stage:"unknown" (Printexc.to_string exn)

let guard ~stage f =
  match f () with
  | v -> Ok v
  | exception ((Stack_overflow | Out_of_memory | Sys.Break) as e) -> raise e
  | exception Error e -> Stdlib.Error e
  | exception exn ->
    let e = of_exn exn in
    Stdlib.Error (if e.stage = "unknown" then { e with stage } else e)
