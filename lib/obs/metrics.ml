module Table = Repro_util.Table
module Json = Repro_util.Json

(* Counters are atomic ints (hot-path updates from worker domains are
   lock-free); gauges and histograms carry their own mutex — their
   update paths are orders of magnitude colder than counter bumps. *)
type counter = int Atomic.t
type gauge = { g_mutex : Mutex.t; mutable value : float; mutable assigned : bool }

type histogram = {
  h_mutex : Mutex.t;
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
  mutable bucket_counts : (int * int) list;
      (* (power-of-two exponent, count), unordered, short in practice *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name make select =
  Mutex.lock registry_mutex;
  let found = Hashtbl.find_opt registry name in
  let result =
    match found with
    | Some inst -> (
      match select inst with
      | Some h -> Ok h
      | None ->
        Error
          (Printf.sprintf "Metrics.%s: %S already registered as a %s"
             (kind_name (make ())) name (kind_name inst)))
    | None ->
      let inst = make () in
      Hashtbl.add registry name inst;
      (match select inst with Some h -> Ok h | None -> assert false)
  in
  Mutex.unlock registry_mutex;
  match result with Ok h -> h | Error msg -> invalid_arg msg

let counter name =
  register name
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> Gauge { g_mutex = Mutex.create (); value = 0.0; assigned = false })
    (function Gauge g -> Some g | _ -> None)

let fresh_histogram () =
  { h_mutex = Mutex.create (); n = 0; sum = 0.0; lo = infinity;
    hi = neg_infinity; bucket_counts = [] }

let histogram name =
  register name
    (fun () -> Histogram (fresh_histogram ()))
    (function Histogram h -> Some h | _ -> None)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  ignore (Atomic.fetch_and_add c by)

let value c = Atomic.get c

let set g v =
  Mutex.lock g.g_mutex;
  g.value <- v;
  g.assigned <- true;
  Mutex.unlock g.g_mutex

let gauge_value g = g.value

(* Power-of-two (octave) buckets: sample v > 0 falls in the bucket with
   upper bound 2^ceil(log2 v); v <= 0 falls in the sentinel bucket
   [min_int] rendered with bound 0. *)
let bucket_of v =
  if v <= 0.0 then min_int
  else
    let e = int_of_float (Float.ceil (Float.log2 v)) in
    (* log2 rounding can land one octave low for exact powers of two *)
    if 2.0 ** float_of_int (e - 1) >= v then e - 1 else e

let observe h v =
  Mutex.lock h.h_mutex;
  h.n <- h.n + 1;
  if Float.is_finite v then begin
    h.sum <- h.sum +. v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v;
    let b = bucket_of v in
    let rec bump = function
      | [] -> [ (b, 1) ]
      | (e, c) :: rest when e = b -> (e, c + 1) :: rest
      | pair :: rest -> pair :: bump rest
    in
    h.bucket_counts <- bump h.bucket_counts
  end;
  Mutex.unlock h.h_mutex

type histogram_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

let bound_of_bucket e =
  if e = min_int then 0.0 else 2.0 ** float_of_int e

let histogram_stats h =
  Mutex.lock h.h_mutex;
  let n = h.n and sum = h.sum and lo = h.lo and hi = h.hi in
  let bucket_counts = h.bucket_counts in
  Mutex.unlock h.h_mutex;
  let buckets =
    List.sort (fun (a, _) (b, _) -> Stdlib.compare (a : int) b) bucket_counts
    |> List.map (fun (e, c) -> (bound_of_bucket e, c))
  in
  {
    count = n;
    sum;
    mean = (if n = 0 then 0.0 else sum /. float_of_int n);
    min = lo;
    max = hi;
    buckets;
  }

let quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile: q out of range";
  let { count; buckets; max = hi; _ } = histogram_stats h in
  if count = 0 then 0.0
  else begin
    let target = q *. float_of_int count in
    let rec walk acc = function
      | [] -> (match hi with hi when Float.is_finite hi -> hi | _ -> 0.0)
      | (bound, c) :: rest ->
        let acc = acc +. float_of_int c in
        if acc >= target then bound else walk acc rest
    in
    walk 0.0 buckets
  end

let names () =
  Mutex.lock registry_mutex;
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort String.compare names

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | Counter c -> Atomic.set c 0
      | Gauge g ->
        Mutex.lock g.g_mutex;
        g.value <- 0.0;
        g.assigned <- false;
        Mutex.unlock g.g_mutex
      | Histogram h ->
        Mutex.lock h.h_mutex;
        h.n <- 0;
        h.sum <- 0.0;
        h.lo <- infinity;
        h.hi <- neg_infinity;
        h.bucket_counts <- [];
        Mutex.unlock h.h_mutex)
    registry;
  Mutex.unlock registry_mutex

type value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_stats

let find_instrument name =
  Mutex.lock registry_mutex;
  let inst = Hashtbl.find registry name in
  Mutex.unlock registry_mutex;
  inst

let snapshot () =
  List.map
    (fun name ->
      let v =
        match find_instrument name with
        | Counter c -> Counter_value (Atomic.get c)
        | Gauge g -> Gauge_value g.value
        | Histogram h -> Histogram_value (histogram_stats h)
      in
      (name, v))
    (names ())

(* The single histogram JSON serializer — shared with Report and the
   server's stats responses so every emitter agrees on the shape.  The
   extrema sentinels (+/-inf when no finite sample was seen, e.g. an
   empty histogram or one fed only NaN/inf) have no JSON representation;
   they are omitted and restored on parse (see Report.of_json).  sum and
   mean are clamped to 0.0 in the same degenerate case so the document
   always round-trips through the lossless JSON writer. *)
let histogram_stats_fields s =
  let finite v = if Float.is_finite v then v else 0.0 in
  let extrema =
    (if Float.is_finite s.min then [ ("min", Json.Num s.min) ] else [])
    @ if Float.is_finite s.max then [ ("max", Json.Num s.max) ] else []
  in
  [ ("count", Json.Num (float_of_int s.count));
    ("sum", Json.Num (finite s.sum));
    ("mean", Json.Num (finite s.mean)) ]
  @ extrema
  @ [ ( "buckets",
        Json.List
          (List.map
             (fun (bound, c) ->
               Json.List [ Json.Num bound; Json.Num (float_of_int c) ])
             s.buckets) ) ]

let to_json () =
  Json.List
    (List.map
       (fun (name, v) ->
         let common kind = [ ("name", Json.Str name); ("kind", Json.Str kind) ] in
         match v with
         | Counter_value n -> Json.Obj (common "counter" @ [ ("count", Json.Num (float_of_int n)) ])
         | Gauge_value x -> Json.Obj (common "gauge" @ [ ("value", Json.Num x) ])
         | Histogram_value s -> Json.Obj (common "histogram" @ histogram_stats_fields s))
       (snapshot ()))

let dump () =
  let t =
    Table.create
      ~headers:[ "metric"; "kind"; "count"; "value/mean"; "min"; "max"; "p90" ]
  in
  let blank = "-" in
  List.iter
    (fun name ->
      match find_instrument name with
      | Counter c ->
        let n = Atomic.get c in
        Table.add_row t
          [ name; "counter"; Table.cell_i n; Table.cell_i n; blank;
            blank; blank ]
      | Gauge g ->
        Table.add_row t
          [ name; "gauge"; (if g.assigned then "1" else "0");
            Table.cell_f g.value; blank; blank; blank ]
      | Histogram h ->
        let s = histogram_stats h in
        let f v = if Float.is_finite v then Table.cell_f v else blank in
        Table.add_row t
          [ name; "histogram"; Table.cell_i s.count; Table.cell_f s.mean;
            f s.min; f s.max; Table.cell_f (quantile h 0.9) ])
    (names ());
  Table.render t
