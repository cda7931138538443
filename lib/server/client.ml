module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Rng = Repro_util.Rng
module P = Protocol

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  mutable next_id : int;
  mutable open_ : bool;
}

let io_error msg =
  Verrors.make ~code:Verrors.Io_error ~stage:"client" msg

let socket address =
  match
    let domain, sockaddr = Server.resolve ~stage:"client" address in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd sockaddr;
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (io_error
         (Printf.sprintf "cannot connect to %s: %s"
            (Server.address_to_string address)
            (Unix.error_message err)))
  | exception Verrors.Error e -> Error e

let connect address =
  Result.map
    (fun fd ->
      { fd; ic = Unix.in_channel_of_descr fd; next_id = 0; open_ = true })
    (socket address)

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let request_with_id ?deadline_ms t req =
  let id = Json.Num (float_of_int t.next_id) in
  t.next_id <- t.next_id + 1;
  match Server.write_all t.fd (P.line (P.request_to_json ?deadline_ms ~id req)) with
  | exception (Unix.Unix_error _ | Sys_error _) ->
    Error (io_error "connection lost while sending request")
  | () ->
    let rec await () =
      match input_line t.ic with
      | exception (End_of_file | Sys_error _) ->
        Error (io_error "connection closed before the response arrived")
      | line when String.trim line = "" -> await ()
      | line -> (
        match P.parse_response line with
        | Error msg ->
          Error
            (Verrors.make ~code:Verrors.Parse_error ~stage:"client"
               (Printf.sprintf "malformed response line: %s" msg))
        | Ok resp -> if resp.P.rid = id then Ok (id, resp) else await ())
    in
    await ()

let request ?deadline_ms t req =
  Result.map snd (request_with_id ?deadline_ms t req)

let with_connection address f =
  match connect address with
  | Error e -> Error e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* ---- retries ------------------------------------------------------- *)

(* What a retry can fix: the daemon shedding load ([overloaded]), or the
   transport dying under us ([Io_error]: connection refused mid-restart,
   ECONNRESET, a drain racing our send).  Re-sending is safe by
   construction — responses are deterministic and concurrent duplicates
   coalesce server-side — so at worst a retry recomputes; it never
   diverges.  Every other failure comes back at once: a malformed
   response ([Parse_error]) means the peer does not speak the protocol,
   and any other rejection ([deadline-exceeded], [invalid-params], ...)
   means the request itself is the problem; retrying would only repeat
   it. *)
let retry ~retries ~backoff_ms ~rng ~on_retry ~response attempt_once =
  let rec go attempt =
    let outcome = attempt_once () in
    let why =
      match outcome with
      | Ok x when P.response_code (response x) = Some "overloaded" ->
        Some "overloaded"
      | Error { Verrors.code = Verrors.Io_error as code; _ } ->
        Some (Verrors.code_name code)
      | Ok _ | Error _ -> None
    in
    match why with
    | Some why when attempt < retries ->
      (* Jittered exponential backoff, so retrying peers spread out
         instead of thundering back in lockstep. *)
      let delay_ms =
        Float.max 0.0 backoff_ms
        *. (2.0 ** float_of_int attempt)
        *. Rng.uniform rng ~lo:0.5 ~hi:1.5
      in
      on_retry ~attempt:(attempt + 1) ~why ~delay_ms;
      Thread.delay (delay_ms /. 1000.0);
      go (attempt + 1)
    | _ -> outcome
  in
  go 0
