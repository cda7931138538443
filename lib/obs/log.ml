let srcs : (string, Logs.src) Hashtbl.t = Hashtbl.create 16

let src name =
  match Hashtbl.find_opt srcs name with
  | Some s -> s
  | None ->
    let s = Logs.Src.create name ~doc:(name ^ " log source") in
    Hashtbl.add srcs name s;
    s

let setup ?(level = Some Logs.Warning) () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

