module Json = Repro_util.Json

let str k e = Option.bind (Json.member k e) Json.string_value
let num k e = Option.bind (Json.member k e) Json.float_value
let int_f k e = Option.bind (Json.member k e) Json.int_value
let bool_f k e = Option.bind (Json.member k e) Json.bool_value

let str_or d k e = Option.value ~default:d (str k e)
let num_or d k e = Option.value ~default:d (num k e)
let int_or d k e = Option.value ~default:d (int_f k e)
let bool_or d k e = Option.value ~default:d (bool_f k e)

(* Per-zone aggregate built from Zone_start/Label_row/Zone_end events.
   Label rows carry no zone id — they are correlated by recording
   domain: a Label_row belongs to the zone its domain last opened. *)
type zone_agg = {
  z_cls : int;
  z_zone : int;
  mutable z_sinks : int;
  mutable z_rows : (int * bool) list;  (* kept labels per row, capped?; reversed *)
  mutable z_extended : int;
  mutable z_pruned : int;
  mutable z_capped_labels : int;
  mutable z_objective : string;  (* what [z_peak] measures: see [objective_name] *)
  mutable z_peak : float;
  mutable z_capped : bool;
  mutable z_memo : bool;
  mutable z_wall_ms : float;
  mutable z_closed : bool;
}

(* The name of the zone value a solver reports as [peak_ua]: ClkPeakMin
   minimizes its polarity-balance objective, not the zone peak. *)
let objective_name = function "ClkPeakMin" -> "balance" | _ -> "peak"

let render doc =
  match (str "schema" doc, int_f "version" doc, Json.member "events" doc) with
  | (Some s, _, _) when s <> Flight.schema_name ->
    Error (Printf.sprintf "not a flight dump (schema %S)" s)
  | (None, _, _) -> Error "not a flight dump (no \"schema\" field)"
  | (_, None, _) -> Error "not a flight dump (no \"version\" field)"
  | (Some _, Some v, _) when v > Flight.schema_version ->
    Error
      (Printf.sprintf "flight dump version %d is newer than supported %d" v
         Flight.schema_version)
  | (Some _, Some _, None) -> Error "flight dump has no \"events\" field"
  | (Some _, Some _, Some events_j) -> (
    match Json.list_value events_j with
    | None -> Error "flight dump \"events\" is not a list"
    | Some events ->
      let buf = Buffer.create 4096 in
      let pr fmt = Printf.bprintf buf fmt in
      let recorded = int_or (List.length events) "recorded" doc in
      let dropped = int_or 0 "dropped" doc in
      let span_ms =
        List.fold_left (fun acc e -> Stdlib.max acc (num_or 0.0 "t_ms" e)) 0.0
          events
      in
      pr "flight recorder: %d events (%d recorded, %d dropped), span %.1f ms\n"
        (List.length events) recorded dropped span_ms;

      (* One ordered pass: the solve/fallback timeline, the skew window,
         zone aggregates correlated by domain, budget/cache/contention. *)
      let timeline = Buffer.create 512 in
      let tl fmt = Printf.bprintf timeline fmt in
      let window = ref None in
      let zones = Hashtbl.create 64 in
      let zone_order = ref [] in
      let open_zone = Hashtbl.create 8 in (* domain -> (cls, zone) *)
      let budget_trips = ref [] in
      let class_skips = ref [] in
      let cache_counts = Hashtbl.create 8 in (* (cache, outcome) -> count *)
      let contention = Hashtbl.create 8 in (* resource -> (count, total_ms) *)
      (* zone -> (stages, proposed, accepted, last objective) *)
      let sa = Hashtbl.create 16 in
      let sa_order = ref [] in
      let unknown = Hashtbl.create 4 in
      (* The algorithm of the enclosing solve-start. *)
      let algorithm = ref "?" in
      List.iter
        (fun e ->
          let t_ms = num_or 0.0 "t_ms" e in
          let domain = int_or 0 "domain" e in
          match str_or "?" "kind" e with
          | "solve-start" ->
            algorithm := str_or "?" "algorithm" e;
            tl "  %8.1f ms  %s: start (algorithm %s)\n" t_ms
              (str_or "?" "benchmark" e)
              !algorithm
          | "solve-end" ->
            let ok = bool_or false "ok" e in
            tl "  %8.1f ms  %s: %s after %.1f ms (algorithm %s)\n" t_ms
              (str_or "?" "benchmark" e)
              (if ok then "ok" else "FAILED")
              (num_or 0.0 "wall_ms" e)
              (str_or "?" "algorithm" e)
          | "fallback" ->
            let to_ = match str "to" e with
              | Some a -> Printf.sprintf "falling back to %s" a
              | None -> "chain exhausted"
            in
            tl "  %8.1f ms  fallback: %s failed [%s] — %s\n" t_ms
              (str_or "?" "from" e)
              (str_or "?" "code" e)
              to_;
            tl "              cause: %s\n" (str_or "?" "message" e)
          | "window" -> window := Some e
          | "zone-start" ->
            let cls = int_or 0 "class" e and zone = int_or 0 "zone" e in
            Hashtbl.replace open_zone domain (cls, zone);
            if not (Hashtbl.mem zones (cls, zone)) then begin
              let z =
                { z_cls = cls; z_zone = zone;
                  z_sinks = int_or 0 "sinks" e; z_rows = [];
                  z_objective = "peak";
                  z_extended = 0; z_pruned = 0; z_capped_labels = 0;
                  z_peak = 0.0; z_capped = false; z_memo = false;
                  z_wall_ms = 0.0;
                  z_closed = false }
              in
              Hashtbl.replace zones (cls, zone) z;
              zone_order := (cls, zone) :: !zone_order
            end
          | "label-row" -> (
            match Hashtbl.find_opt open_zone domain with
            | None -> ()
            | Some key -> (
              match Hashtbl.find_opt zones key with
              | None -> ()
              | Some z ->
                let capped = int_or 0 "capped" e in
                z.z_rows <- (int_or 0 "kept" e, capped > 0) :: z.z_rows;
                z.z_extended <- z.z_extended + int_or 0 "extended" e;
                z.z_pruned <- z.z_pruned + int_or 0 "pruned" e;
                z.z_capped_labels <- z.z_capped_labels + capped))
          | "zone-end" -> (
            let cls = int_or 0 "class" e and zone = int_or 0 "zone" e in
            Hashtbl.remove open_zone domain;
            match Hashtbl.find_opt zones (cls, zone) with
            | None -> ()
            | Some z ->
              z.z_peak <- num_or 0.0 "peak_ua" e;
              z.z_objective <- objective_name !algorithm;
              z.z_capped <- bool_or false "capped" e;
              z.z_memo <- bool_or false "memo" e;
              z.z_wall_ms <- num_or 0.0 "wall_ms" e;
              z.z_closed <- true)
          | "class-skip" ->
            class_skips :=
              ( objective_name !algorithm,
                int_or 0 "class" e,
                int_or 0 "zone" e,
                num_or 0.0 "peak_ua" e,
                num_or 0.0 "best_ua" e )
              :: !class_skips
          | "budget-trip" ->
            budget_trips :=
              (t_ms, str_or "?" "reason" e, int_or 0 "labels_used" e)
              :: !budget_trips
          | "cache" ->
            let key = (str_or "?" "cache" e, str_or "?" "outcome" e) in
            Hashtbl.replace cache_counts key
              (1 + Option.value ~default:0 (Hashtbl.find_opt cache_counts key))
          | "contention" ->
            let r = str_or "?" "resource" e in
            let (c, total) =
              Option.value ~default:(0, 0.0) (Hashtbl.find_opt contention r)
            in
            Hashtbl.replace contention r (c + 1, total +. num_or 0.0 "wait_ms" e)
          | "sa-move" ->
            let zone = int_or 0 "zone" e in
            if not (Hashtbl.mem sa zone) then sa_order := zone :: !sa_order;
            let stages, proposed, accepted, _ =
              Option.value ~default:(0, 0, 0, 0.0) (Hashtbl.find_opt sa zone)
            in
            Hashtbl.replace sa zone
              ( stages + 1,
                proposed + int_or 0 "proposed" e,
                accepted + int_or 0 "accepted" e,
                num_or 0.0 "objective" e )
          | "sa-restart" ->
            tl "  %8.1f ms  annealer: zone %d restart %d (objective %.1f uA)\n"
              t_ms (int_or 0 "zone" e) (int_or 0 "restart" e)
              (num_or 0.0 "objective" e)
          | "portfolio-winner" ->
            let losers =
              match Option.bind (Json.member "losers" e) Json.list_value with
              | None -> ""
              | Some [] -> ""
              | Some ls ->
                Printf.sprintf " over %s"
                  (String.concat ", "
                     (List.filter_map Json.string_value ls))
            in
            tl "  %8.1f ms  portfolio: %s wins%s after %.1f ms\n" t_ms
              (str_or "?" "winner" e) losers (num_or 0.0 "wall_ms" e)
          | "warm-start" ->
            tl "  %8.1f ms  %s: warm start (%d polish moves, objective \
                %.1f uA)\n"
              t_ms
              (str_or "?" "benchmark" e)
              (int_or 0 "moves" e) (num_or 0.0 "objective" e)
          | "note" ->
            (* Attrs ride as flat string fields next to the envelope
               keys; render every one so server notes (executor-stalled,
               request-expired) carry their context into the report. *)
            let attrs =
              match Json.obj_value e with
              | None -> []
              | Some fields ->
                List.filter_map
                  (fun (k, v) ->
                    match (k, v) with
                    | ("seq" | "t_ms" | "domain" | "kind" | "name"), _ -> None
                    | k, Json.Str v -> Some (Printf.sprintf "%s=%s" k v)
                    | _ -> None)
                  fields
            in
            if attrs = [] then
              tl "  %8.1f ms  note: %s\n" t_ms (str_or "?" "name" e)
            else
              tl "  %8.1f ms  note: %s (%s)\n" t_ms (str_or "?" "name" e)
                (String.concat ", " attrs)
          | k -> Hashtbl.replace unknown k ())
        events;

      if Buffer.length timeline > 0 then begin
        pr "\nsolve timeline:\n";
        Buffer.add_buffer buf timeline
      end;

      (match !window with
      | None -> ()
      | Some w ->
        pr "\nskew window:\n";
        pr "  kappa %.1f ps, %d feasible arrival intervals\n"
          (num_or 0.0 "kappa_ps" w) (int_or 0 "feasible" w);
        pr "  binding sinks: leaf %d (candidates end earliest, %.1f ps) vs \
            leaf %d (start latest, %.1f ps)\n"
          (int_or (-1) "earliest_leaf" w) (num_or 0.0 "earliest_ps" w)
          (int_or (-1) "latest_leaf" w) (num_or 0.0 "latest_ps" w);
        (* A window must span [latest, earliest]; needing more than
           kappa of width is exactly the infeasibility condition of
           Intervals.infeasibility_message.  Width <= 0 means the
           binding sinks overlap: any single point in between works. *)
        let width = num_or 0.0 "min_width_ps" w in
        pr "  minimum window width %.1f ps%s\n" (Float.max 0.0 width)
          (if width > num_or infinity "kappa_ps" w then
             "  (EXCEEDS kappa — INFEASIBLE, no window fits every sink)"
           else ""));

      let zone_list =
        List.rev_map (fun key -> Hashtbl.find zones key) !zone_order
      in
      if zone_list <> [] then begin
        let by_wall =
          List.sort (fun a b -> compare b.z_wall_ms a.z_wall_ms) zone_list
        in
        let total_wall =
          List.fold_left (fun acc z -> acc +. z.z_wall_ms) 0.0 zone_list
        in
        pr "\nzones by wall time (%d zones, %.1f ms total):\n"
          (List.length zone_list) total_wall;
        let show = 10 in
        List.iteri
          (fun i z ->
            if i < show then
              pr "  class %d zone %-4d %8.1f ms  %d sinks, %s %.1f uA%s\n"
                z.z_cls z.z_zone z.z_wall_ms z.z_sinks z.z_objective z.z_peak
                ((if z.z_memo then ", memo hit" else "")
                ^
                if z.z_capped then ", label-capped"
                else if not z.z_closed then ", UNFINISHED"
                else ""))
          by_wall;
        if List.length by_wall > show then
          pr "  ... %d more zones\n" (List.length by_wall - show);
        let hits = List.filter (fun z -> z.z_memo) zone_list in
        if hits <> [] then
          pr "  zone memo: %d of %d zone results reused from an earlier \
              class (%s)\n"
            (List.length hits) (List.length zone_list)
            (String.concat ", "
               (List.map
                  (fun z -> Printf.sprintf "class %d zone %d" z.z_cls z.z_zone)
                  (List.filteri (fun i _ -> i < 8) hits)
               @ if List.length hits > 8 then [ "..." ] else []));
        (* Label evolution gets its own section: the zones that carry
           row data are the interesting ones (a cap or budget trip cut
           them short) yet rarely the slowest, so burying them under
           the wall-time top list would hide exactly what a
           degradation post-mortem needs. *)
        let with_rows = List.filter (fun z -> z.z_rows <> []) zone_list in
        if with_rows <> [] then begin
          pr "\nlabel evolution (%d zones with row data):\n"
            (List.length with_rows);
          let show = 8 in
          List.iteri
            (fun i z ->
              if i < show then begin
                let rows = List.rev z.z_rows in
                let cell (kept, capped) =
                  string_of_int kept ^ if capped then "*" else ""
                in
                let shown = List.filteri (fun j _ -> j < 16) rows in
                pr "  class %d zone %-4d labels/row: %s%s  (extended %d, \
                    pruned %d, capped %d)\n"
                  z.z_cls z.z_zone
                  (String.concat " " (List.map cell shown))
                  (if List.length rows > 16 then
                     Printf.sprintf " ... [%d rows]" (List.length rows)
                   else "")
                  z.z_extended z.z_pruned z.z_capped_labels
              end)
            with_rows;
          if List.length with_rows > show then
            pr "  ... %d more zones\n" (List.length with_rows - show)
        end
      end;

      (match List.rev !class_skips with
      | [] -> ()
      | skips ->
        pr "\nclasses skipped by the cut-off (%d):\n" (List.length skips);
        List.iter
          (fun (objective, cls, zone, peak, best) ->
            pr "  class %d: zone %d memoized %s %.1f uA >= best class \
                %s %.1f uA\n"
              cls zone objective peak objective best)
          skips);

      (match List.rev !budget_trips with
      | [] -> ()
      | trips ->
        pr "\nbudget trips:\n";
        List.iter
          (fun (t_ms, reason, labels) ->
            (* Label-budget reasons already carry their own count. *)
            let suffix =
              if labels > 0 && not (String.starts_with ~prefix:"label" reason)
              then Printf.sprintf "  (%d labels extended)" labels
              else ""
            in
            pr "  %8.1f ms  %s%s\n" t_ms reason suffix)
          trips);

      if Hashtbl.length cache_counts > 0 then begin
        pr "\ncaches:\n";
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache_counts []
        |> List.sort compare
        |> List.iter (fun ((cache, outcome), n) ->
               pr "  %-12s %-8s %d\n" cache outcome n)
      end;

      if Hashtbl.length sa > 0 then begin
        pr "\nannealer (per zone):\n";
        List.iter
          (fun zone ->
            let stages, proposed, accepted, objective =
              Hashtbl.find sa zone
            in
            pr "  zone %-4d %d stages, %d proposed, %d accepted (%.0f%%), \
                objective %.1f uA\n"
              zone stages proposed accepted
              (if proposed = 0 then 0.0
               else 100.0 *. float_of_int accepted /. float_of_int proposed)
              objective)
          (List.rev !sa_order)
      end;

      if Hashtbl.length contention > 0 then begin
        pr "\ncontention:\n";
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) contention []
        |> List.sort compare
        |> List.iter (fun (resource, (n, total_ms)) ->
               pr "  %-20s %d waits, %.2f ms total\n" resource n total_ms)
      end;

      if Hashtbl.length unknown > 0 then begin
        let ks = Hashtbl.fold (fun k () acc -> k :: acc) unknown [] in
        pr "\n(unknown event kinds ignored: %s)\n"
          (String.concat ", " (List.sort compare ks))
      end;
      Ok (Buffer.contents buf))
