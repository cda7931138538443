(* Benchmark-side spans.  The traced run wraps each call into a layer
   of the program in [with_span]; nothing inside the program is
   instrumented.  Spans live in memory (newest first) and are written
   out once, at exit.  Single-threaded: only the thread that drives a
   traced pass or the in-process handler replay records spans. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span. *)
  name : string;
  group : string;  (** The pass or request the span belongs to. *)
  start_ns : int64;
  end_ns : int64;
}

let enabled = ref false
let recorded : t list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0
let current_group = ref ""

(* Offsets from process start keep the nanosecond stamps exact as JSON
   floats. *)
let origin_ns = Repro_obs.Clock.now_ns ()
let now_ns () = Int64.sub (Repro_obs.Clock.now_ns ()) origin_ns

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let end_ns = now_ns () in
        open_stack := List.tl !open_stack;
        recorded :=
          { id; parent; name; group = !current_group; start_ns; end_ns }
          :: !recorded)
  end

(* Run [f] as the root span [name] of group [group]. *)
let with_group ~group name f =
  current_group := group;
  with_span name f

let to_json () =
  let module J = Repro_util.Json in
  J.List
    (List.rev_map
       (fun s ->
         J.Obj
           [ ("id", J.Num (float_of_int s.id));
             ("parent", J.Num (float_of_int s.parent));
             ("name", J.Str s.name);
             ("group", J.Str s.group);
             ("start_ns", J.Num (Int64.to_float s.start_ns));
             ("end_ns", J.Num (Int64.to_float s.end_ns)) ])
       !recorded)
