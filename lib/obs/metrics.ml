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
  counts : int array;  (* one per bucket of the grid below *)
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

(* The one bucket grid (see metrics.mli): index 0 is the bound-0
   bucket, index i >= 1 has bound 2^((i - offset)/4).  [bucket_of]
   returns [nbuckets], no bucket, for non-finite samples and samples
   above the top bound. *)
let nbuckets = 200
let offset = 80

let bounds =
  Array.init nbuckets (fun i ->
      if i = 0 then 0.0 else 2.0 ** (float_of_int (i - offset) /. 4.0))

let bucket_of v =
  if not (Float.is_finite v) || v > bounds.(nbuckets - 1) then nbuckets
  else if v <= 0.0 then 0
  else begin
    let i = int_of_float (Float.ceil (4.0 *. Float.log2 v)) + offset in
    let i = Stdlib.max 1 (Stdlib.min (nbuckets - 1) i) in
    (* log2 rounding can land one bucket off next to a bound *)
    if i > 1 && v <= bounds.(i - 1) then i - 1
    else if v > bounds.(i) then i + 1
    else i
  end

let cell () =
  { h_mutex = Mutex.create (); n = 0; sum = 0.0; lo = infinity;
    hi = neg_infinity; counts = Array.make nbuckets 0 }

let histogram name =
  register name
    (fun () -> Histogram (cell ()))
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

let observe h v =
  let i = bucket_of v in
  Mutex.lock h.h_mutex;
  h.n <- h.n + 1;
  if Float.is_finite v then begin
    h.sum <- h.sum +. v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v
  end;
  if i < nbuckets then h.counts.(i) <- h.counts.(i) + 1;
  Mutex.unlock h.h_mutex

let clear h =
  Mutex.lock h.h_mutex;
  h.n <- 0;
  h.sum <- 0.0;
  h.lo <- infinity;
  h.hi <- neg_infinity;
  Array.fill h.counts 0 nbuckets 0;
  Mutex.unlock h.h_mutex

let merge hs =
  let m = cell () in
  List.iter
    (fun h ->
      Mutex.lock h.h_mutex;
      m.n <- m.n + h.n;
      m.sum <- m.sum +. h.sum;
      if h.lo < m.lo then m.lo <- h.lo;
      if h.hi > m.hi then m.hi <- h.hi;
      Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) h.counts;
      Mutex.unlock h.h_mutex)
    hs;
  m

type histogram_stats = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

let histogram_stats h =
  Mutex.lock h.h_mutex;
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.counts.(i) > 0 then buckets := (bounds.(i), h.counts.(i)) :: !buckets
  done;
  let n = h.n and sum = h.sum and lo = h.lo and hi = h.hi in
  Mutex.unlock h.h_mutex;
  {
    count = n;
    sum;
    mean = (if n = 0 then 0.0 else sum /. float_of_int n);
    min = lo;
    max = hi;
    buckets = !buckets;
  }

(* The one quantile walk (see metrics.mli).  Clamping to the extrema
   tightens the coarse first and last buckets. *)
let quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile: q out of range";
  Mutex.lock h.h_mutex;
  let target = q *. float_of_int h.n in
  let rec walk acc i =
    if i >= nbuckets then h.hi
    else begin
      let c = h.counts.(i) in
      let acc = acc + c in
      if c > 0 && float_of_int acc >= target then
        Float.min h.hi (Float.max h.lo bounds.(i))
      else walk acc (i + 1)
    end
  in
  let v = if Float.is_finite h.hi then walk 0 0 else 0.0 in
  Mutex.unlock h.h_mutex;
  v

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
      | Histogram h -> clear h)
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
