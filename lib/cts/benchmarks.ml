module Rng = Repro_util.Rng

type family = Iscas89 | Ispd09

type spec = {
  name : string;
  family : family;
  num_nodes : int;
  num_leaves : int;
  die_side : float;
  clusters : int;
  seed : int;
}

let zone_side = 50.0

(* Die side chosen so that |L| / number-of-zones matches the paper's
   reported leaves-per-zone average (4.3 ISCAS, 4.9 ISPD, 7.1 s35932). *)
let side_for ~leaves ~per_zone =
  zone_side *. sqrt (float_of_int leaves /. per_zone)

let mk name family ~n ~l ~per_zone ~clusters ~seed =
  {
    name;
    family;
    num_nodes = n;
    num_leaves = l;
    die_side = side_for ~leaves:l ~per_zone;
    clusters;
    seed;
  }

let all =
  [
    mk "s13207" Iscas89 ~n:58 ~l:50 ~per_zone:4.3 ~clusters:0 ~seed:1001;
    mk "s15850" Iscas89 ~n:22 ~l:19 ~per_zone:4.3 ~clusters:0 ~seed:1002;
    mk "s35932" Iscas89 ~n:323 ~l:246 ~per_zone:7.1 ~clusters:0 ~seed:1003;
    mk "s38417" Iscas89 ~n:304 ~l:228 ~per_zone:4.3 ~clusters:0 ~seed:1004;
    mk "s38584" Iscas89 ~n:210 ~l:169 ~per_zone:4.3 ~clusters:0 ~seed:1005;
    mk "ispd09f31" Ispd09 ~n:328 ~l:111 ~per_zone:4.9 ~clusters:0 ~seed:1006;
    mk "ispd09f34" Ispd09 ~n:210 ~l:69 ~per_zone:4.9 ~clusters:0 ~seed:1007;
  ]

let find name =
  match List.find_opt (fun s -> String.equal s.name name) all with
  | Some s -> s
  | None -> raise Not_found

let sinks spec =
  let rng = Rng.create ~seed:spec.seed in
  let die = Placement.square_die spec.die_side in
  if spec.clusters <= 0 then
    Placement.random_sinks rng die ~count:spec.num_leaves ()
  else
    Placement.clustered_sinks rng die ~count:spec.num_leaves
      ~clusters:spec.clusters ()

let trees_synthesized_c = Repro_obs.Metrics.counter "cts.trees_synthesized"

let synthesize spec =
  let internals = spec.num_nodes - spec.num_leaves in
  if internals < 1 then
    invalid_arg "Benchmarks.synthesize: spec needs at least one internal node";
  Repro_obs.Trace.with_span ~name:"cts.synthesize"
    ~attrs:
      [ ("benchmark", spec.name);
        ("leaves", string_of_int spec.num_leaves);
        ("internals", string_of_int internals) ]
  @@ fun () ->
  Repro_obs.Metrics.incr trees_synthesized_c;
  let rng = Rng.create ~seed:(spec.seed + 7919) in
  Synthesis.synthesize ~rng (sinks spec) ~internals
