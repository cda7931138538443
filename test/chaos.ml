(* chaos — a misbehaving peer of `wavemin serve' on demand.

   Drives the server's abuse paths from the outside, with nothing but
   raw sockets: the smoke tests' slowloris, flood and mid-request
   disconnect tooling (no dependency on socat/nc).  Each mode prints
   one `chaos MODE: ...' line describing what the server did.

     chaos.exe -A unix:wavemin.sock dribble --delay 0.05 --wait 10

   Exit codes: 0 the server's verdict was printed; 1 usage error (bad
   address); 2 the server could not be reached.  scripts/server_chaos.sh
   runs it against a live daemon. *)

open Cmdliner

module Json = Repro_util.Json
module Clock = Repro_obs.Clock
module Server = Repro_server.Server
module Client = Repro_server.Client
module Proto = Repro_server.Protocol

let address_arg =
  let doc =
    "Server address: $(b,unix:PATH), $(b,tcp:HOST:PORT), $(b,tcp:PORT) \
     (localhost) or a bare Unix-socket path."
  in
  Arg.(value & opt string "unix:wavemin.sock"
       & info [ "address"; "A" ] ~docv:"ADDR" ~doc)

let mode_arg =
  let doc =
    "What to do to the server: $(b,dribble) (send a request \
     byte-at-a-time and never finish the line — slowloris), \
     $(b,oversize) (stream one giant newline-less line), $(b,hang) \
     (connect and send nothing), $(b,disconnect) (send a valid heavy \
     request, then close without reading the response)."
  in
  Arg.(required
       & pos 0
           (some
              (enum
                 [ ("dribble", `Dribble); ("oversize", `Oversize);
                   ("hang", `Hang); ("disconnect", `Disconnect) ]))
           None
       & info [] ~docv:"MODE" ~doc)

let bytes_arg =
  let doc = "For $(b,oversize): bytes streamed (newline-less)." in
  Arg.(value & opt int (2 * (1 lsl 20)) & info [ "bytes" ] ~docv:"N" ~doc)

let delay_arg =
  let doc = "For $(b,dribble): inter-byte delay in seconds." in
  Arg.(value & opt float 0.05 & info [ "delay" ] ~docv:"SECONDS" ~doc)

let wait_arg =
  let doc =
    "How long to wait for the server's verdict (a response line or the \
     connection being closed) before giving up."
  in
  Arg.(value & opt float 30.0 & info [ "wait" ] ~docv:"SECONDS" ~doc)

let benchmark_arg =
  let doc = "For $(b,disconnect): benchmark in the abandoned request." in
  Arg.(value & opt string "s15850"
       & info [ "benchmark"; "b" ] ~docv:"BENCHMARK" ~doc)

(* Wait for the server's verdict: returns the first line it sends, or
   [`Closed] on EOF, or [`Silent] after [wait] seconds. *)
let await_verdict fd wait =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Clock.now_s () +. wait in
  let rec go () =
    let left = deadline -. Clock.now_s () in
    if left <= 0.0 then `Silent
    else
      match Unix.select [ fd ] [] [] (Float.min 0.25 left) with
      | [], _, _ -> go ()
      | _, _, _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          if Buffer.length buf > 0 then `Line (Buffer.contents buf) else `Closed
        | n -> (
          Buffer.add_subbytes buf chunk 0 n;
          match String.index_opt (Buffer.contents buf) '\n' with
          | Some i -> `Line (String.sub (Buffer.contents buf) 0 i)
          | None -> go ())
        | exception Unix.Unix_error _ -> `Closed)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> `Closed
  in
  go ()

let describe = function
  | `Line l -> Printf.sprintf "server answered: %s" l
  | `Closed -> "server closed the connection"
  | `Silent -> "server stayed silent until the wait expired"

let misbehave fd mode ~bytes ~delay ~wait ~benchmark =
  let send = Server.write_all fd in
  let request =
    Proto.line
      (Proto.request_to_json ~id:(Json.Str "chaos")
         (Proto.Run
            { opts = Proto.default_opts ~benchmark;
              algorithm = Repro_core.Flow.Wavemin;
              warm = false }))
  in
  match mode with
  | `Dribble ->
    (* Send everything but the terminating newline, slowly. *)
    let body = String.sub request 0 (String.length request - 1) in
    let verdict =
      try
        String.iter
          (fun c ->
            send (String.make 1 c);
            Thread.delay (Float.max 0.0 delay))
          body;
        await_verdict fd wait
      with Unix.Unix_error _ | Sys_error _ ->
        (* The server cut us off mid-dribble: that is the verdict. *)
        `Closed
    in
    Format.printf "chaos dribble: %s@." (describe verdict)
  | `Oversize ->
    let blk = String.make 65536 'x' in
    let verdict =
      try
        let sent = ref 0 in
        while !sent < bytes do
          send blk;
          sent := !sent + String.length blk
        done;
        await_verdict fd wait
      with Unix.Unix_error _ | Sys_error _ -> `Closed
    in
    (* A verdict may already be buffered even if the send died. *)
    let verdict =
      match verdict with `Closed -> await_verdict fd wait | v -> v
    in
    Format.printf "chaos oversize: %s@." (describe verdict)
  | `Hang -> Format.printf "chaos hang: %s@." (describe (await_verdict fd wait))
  | `Disconnect ->
    (try send request with Unix.Unix_error _ | Sys_error _ -> ());
    Format.printf "chaos disconnect: request sent, closing without reading@."

let run address_s mode bytes delay wait benchmark =
  (* A server that cuts us off mid-write is the expected outcome here:
     take it as EPIPE, not a fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Server.address_of_string address_s with
  | Error msg ->
    Format.eprintf "wavemin: bad address %S: %s@." address_s msg;
    1
  | Ok address -> (
    match Client.socket address with
    | Error _ ->
      Format.eprintf "wavemin: chaos: cannot connect to %s@." address_s;
      2
    | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          misbehave fd mode ~bytes ~delay ~wait ~benchmark;
          0))

let () =
  let info =
    Cmd.info "chaos"
      ~doc:
        "Misbehave at a running `wavemin serve' on purpose — slowloris \
         dribble, oversized request line, silent connection, mid-request \
         disconnect — and report how the server responded"
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(const run $ address_arg $ mode_arg $ bytes_arg $ delay_arg
                $ wait_arg $ benchmark_arg)))
