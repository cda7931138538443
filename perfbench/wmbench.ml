(* wmbench WORKLOAD --seed N --seconds S --trace 0|1 --out FILE
             [--wavemin EXE] [--workdir DIR]

   Runs one benchmark workload and writes its raw measurements (pass
   and request timings, quality rows, registry deltas, spans) as JSON
   to FILE.  perfbench/run.py turns them into metrics and applies the
   correctness gate. *)

module J = Repro_util.Json

(* Serve set-ups timed before the window and again after the replay;
   setup_s is the median of all of them. *)
let setups = 3

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and out = ref "" and wavemin = ref ""
  and workdir = ref "perfbench/out" in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--out", Arg.Set_string out, "FILE raw results");
      ("--wavemin", Arg.Set_string wavemin, "EXE built wavemin binary");
      ("--workdir", Arg.Set_string workdir, "DIR scratch space for the daemon") ]
    (fun w -> workload := w)
    "wmbench WORKLOAD [options]";
  (* One solver job, as the daemon runs (see README.md, Sizing). *)
  Repro_par.Par.set_jobs 1;
  let traced = !trace = 1 in
  let fields =
    match !workload with
    | "table5-wavemin" ->
      Batch.run Batch.Table5 ~seconds:!seconds ~traced
    | "sweep-fast" ->
      Batch.run Batch.Sweep ~seconds:!seconds ~traced
    | "serve-mixed" ->
      Serve.run ~seed:!seed ~seconds:!seconds ~traced ~setups
        ~wavemin:!wavemin ~workdir:!workdir
    | w ->
      prerr_endline ("wmbench: unknown workload " ^ w);
      exit 2
  in
  let doc =
    J.Obj
      ([ ("workload", J.Str !workload); ("seed", J.Num (float_of_int !seed));
         ("traced", J.Bool traced) ]
      @ fields
      @ [ ("spans", Span.to_json ()) ])
  in
  Out_channel.with_open_text !out (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')
