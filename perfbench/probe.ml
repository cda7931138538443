(* Readings taken from outside the layers: process memory and CPU from
   procfs, and the program's always-on metrics registry. *)

module Metrics = Repro_obs.Metrics

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        Some (In_channel.input_all ic))

(* Peak resident set ("VmHWM: 12345 kB") of [pid] ("self" for this
   process), in MB. *)
let vmhwm_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> nan
  | Some text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:nan

(* User + system CPU seconds of another process, from /proc/PID/stat
   (fields 14 and 15, in clock ticks of 1/100 s). *)
let cpu_s_of_pid pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some text -> (
    (* The command name is parenthesised and may hold spaces: split
       after the last ')'. *)
    let rest =
      let i = String.rindex text ')' in
      String.sub text (i + 2) (String.length text - i - 2)
    in
    match String.split_on_char ' ' rest with
    | fields when List.length fields > 13 ->
      let field k = float_of_string (List.nth fields k) in
      (* [rest] starts at field 3, so fields 14/15 are indices 11/12. *)
      (field 11 +. field 12) /. 100.0
    | _ -> nan)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let counter name = Metrics.value (Metrics.counter name)

let histogram_count_sum name =
  let s = Metrics.histogram_stats (Metrics.histogram name) in
  (s.Metrics.count, s.Metrics.sum)

(* Allocated words and major collections so far ([Gc.quick_stat]). *)
let gc () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)
