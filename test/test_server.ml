(* The service layer: LRU + bounded queue unit tests, protocol
   round-trips, session-cache behavior (hits, content-hash
   invalidation, per-shard eviction), single-flight coalescing,
   end-to-end socket tests against an in-process server, backpressure,
   fault-seam survival, and the bit-identity property: concurrent
   clients at any executor and job count receive byte-identical
   responses to sequential in-process execution. *)

module Lru = Repro_server.Lru
module Bqueue = Repro_server.Bqueue
module Access_log = Repro_server.Access_log
module Protocol = Repro_server.Protocol
module Session = Repro_server.Session
module Sflight = Repro_server.Sflight
module Handlers = Repro_server.Handlers
module Server = Repro_server.Server
module Client = Repro_server.Client
module Json = Repro_util.Json
module Verrors = Repro_util.Verrors
module Flow = Repro_core.Flow
module Benchmarks = Repro_cts.Benchmarks
module Liberty = Repro_cell.Liberty
module Fault = Repro_obs.Fault
module Par = Repro_par.Par

(* ---- Lru ---------------------------------------------------------- *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check (option string)) "no eviction" None (Lru.add l "a" 1);
  Alcotest.(check (option string)) "no eviction" None (Lru.add l "b" 2);
  Alcotest.(check (option string)) "a is LRU" (Some "a") (Lru.add l "c" 3);
  Alcotest.(check (list string)) "MRU first" [ "c"; "b" ] (Lru.keys l);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l)

let test_lru_find_bumps () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find l "a");
  Alcotest.(check (option string)) "b evicted, not a" (Some "b")
    (Lru.add l "c" 3);
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find l "a")

let test_lru_mem_does_not_bump () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  Alcotest.(check bool) "mem" true (Lru.mem l "a");
  Alcotest.(check (option string)) "a still LRU" (Some "a") (Lru.add l "c" 3)

let test_lru_replace_and_remove () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  Alcotest.(check (option string)) "replace evicts nothing" None
    (Lru.add l "a" 10);
  Alcotest.(check (option int)) "replaced" (Some 10) (Lru.find l "a");
  Lru.remove l "a";
  Alcotest.(check bool) "removed" false (Lru.mem l "a");
  Alcotest.(check int) "length" 1 (Lru.length l);
  Alcotest.(check int) "removal is not eviction" 0 (Lru.evictions l);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0))

(* ---- Bqueue ------------------------------------------------------- *)

let push_result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with `Ok -> "Ok" | `Full -> "Full" | `Closed -> "Closed"))
    ( = )

let test_bqueue_backpressure () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.check push_result "1st" `Ok (Bqueue.push q 1);
  Alcotest.check push_result "2nd" `Ok (Bqueue.push q 2);
  Alcotest.check push_result "full" `Full (Bqueue.push q 3);
  Alcotest.(check int) "depth" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Bqueue.pop q);
  Alcotest.check push_result "room again" `Ok (Bqueue.push q 3)

let test_bqueue_drain () =
  let q = Bqueue.create ~capacity:4 in
  ignore (Bqueue.push q 1);
  ignore (Bqueue.push q 2);
  Bqueue.close q;
  Bqueue.close q (* idempotent *);
  Alcotest.check push_result "closed" `Closed (Bqueue.push q 3);
  Alcotest.(check (option int)) "drains 1" (Some 1) (Bqueue.pop q);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "then None" None (Bqueue.pop q);
  Alcotest.(check bool) "closed" true (Bqueue.closed q)

let test_bqueue_pop_live () =
  let q = Bqueue.create ~capacity:8 in
  List.iter (fun i -> ignore (Bqueue.push q i)) [ 1; 2; 3; 4; 5 ];
  let live, dead = Bqueue.pop_live q ~expired:(fun i -> i < 3) in
  Alcotest.(check (option int)) "first live item" (Some 3) live;
  Alcotest.(check (list int)) "expired skimmed in FIFO order" [ 1; 2 ] dead;
  let live, dead = Bqueue.pop_live q ~expired:(fun _ -> false) in
  Alcotest.(check (option int)) "live pop unaffected" (Some 4) live;
  Alcotest.(check (list int)) "nothing skimmed" [] dead;
  (* A sweep that empties an *open* queue must return the discards
     immediately, not block: their clients are owed answers now. *)
  let live, dead = Bqueue.pop_live q ~expired:(fun _ -> true) in
  Alcotest.(check (option int)) "no live item yet" None live;
  Alcotest.(check (list int)) "discards returned without blocking" [ 5 ] dead;
  (* Drain semantics: a closed queue still yields its skimmed tail, and
     only (None, []) signals closed-and-drained. *)
  ignore (Bqueue.push q 6);
  ignore (Bqueue.push q 7);
  Bqueue.close q;
  let live, dead = Bqueue.pop_live q ~expired:(fun i -> i = 6) in
  Alcotest.(check (option int)) "drains past expired" (Some 7) live;
  Alcotest.(check (list int)) "tail skimmed on drain" [ 6 ] dead;
  let live, dead = Bqueue.pop_live q ~expired:(fun _ -> true) in
  Alcotest.(check (option int)) "closed and drained" None live;
  Alcotest.(check (list int)) "nothing left" [] dead

let test_bqueue_blocking_pop () =
  let q = Bqueue.create ~capacity:1 in
  let producer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        ignore (Bqueue.push q 42))
      ()
  in
  Alcotest.(check (option int)) "wakes on push" (Some 42) (Bqueue.pop q);
  Thread.join producer;
  let consumer = Thread.create (fun () -> Bqueue.pop q) () in
  Thread.delay 0.05;
  Bqueue.close q;
  Thread.join consumer

(* ---- Access_log rotation ------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_access_log_rotation () =
  let path = Filename.temp_file "wm-alog" ".jsonl" in
  let gen n = path ^ "." ^ string_of_int n in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ path; gen 1; gen 2; gen 3 ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      Sys.remove path;
      let entry i =
        Json.Obj [ ("n", Json.Num (float_of_int i));
                   ("pad", Json.Str (String.make 40 'x')) ]
      in
      let line_len = String.length (Json.to_string (entry 0)) + 1 in
      (* Room for exactly two lines per generation. *)
      let a = Access_log.create ~max_bytes:(2 * line_len) ~keep:2 path in
      Fun.protect
        ~finally:(fun () -> Access_log.close a)
        (fun () ->
          Alcotest.(check string) "path accessor" path (Access_log.path a);
          for i = 1 to 7 do
            Access_log.write a (entry i)
          done);
      (* 7 entries, 2 per file: live holds #7, .1 holds #5-6, .2 holds
         #3-4, #1-2 aged out entirely (keep 2). *)
      let nums p =
        List.map
          (fun l ->
            match Json.of_string l with
            | Ok j -> Option.bind (Json.member "n" j) Json.float_value
            | Error msg -> Alcotest.failf "unparseable rotated line: %s" msg)
          (read_lines p)
      in
      Alcotest.(check (list (option (float 0.0)))) "live file" [ Some 7.0 ]
        (nums path);
      Alcotest.(check (list (option (float 0.0)))) "first generation"
        [ Some 5.0; Some 6.0 ] (nums (gen 1));
      Alcotest.(check (list (option (float 0.0)))) "second generation"
        [ Some 3.0; Some 4.0 ] (nums (gen 2));
      Alcotest.(check bool) "keep bound enforced" false
        (Sys.file_exists (gen 3)))

let test_access_log_no_rotation_by_default () =
  let path = Filename.temp_file "wm-alog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let a = Access_log.create path in
      Fun.protect
        ~finally:(fun () -> Access_log.close a)
        (fun () ->
          for i = 1 to 50 do
            Access_log.write a (Json.Obj [ ("n", Json.Num (float_of_int i)) ])
          done);
      Alcotest.(check int) "everything in one file" 50
        (List.length (read_lines path));
      Alcotest.(check bool) "no rotation" false
        (Sys.file_exists (path ^ ".1")))

let test_access_log_concurrent_writers () =
  (* Several writer threads interleaving entries — as the multi-executor
     server does — must leave every line whole: no torn or interleaved
     writes, every line parseable. *)
  let path = Filename.temp_file "wm-alog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let a = Access_log.create path in
      let writers = 8 and per = 50 in
      let threads =
        List.init writers (fun w ->
            Thread.create
              (fun () ->
                for i = 1 to per do
                  Access_log.write a
                    (Json.Obj
                       [ ("writer", Json.Num (float_of_int w));
                         ("seq", Json.Num (float_of_int i));
                         ("pad", Json.Str (String.make 64 'y')) ])
                done)
              ())
      in
      List.iter Thread.join threads;
      Access_log.close a;
      let lines = read_lines path in
      Alcotest.(check int) "every write landed" (writers * per)
        (List.length lines);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.failf "malformed access line %S: %s" line msg)
        lines)

(* ---- Protocol ----------------------------------------------------- *)

let roundtrip req =
  let id = Json.Num 7.0 in
  let line = Protocol.line (Protocol.request_to_json ~id req) in
  let env = Protocol.parse_request line in
  Alcotest.(check bool) "id echoed" true (env.Protocol.id = id);
  match env.Protocol.payload with
  | Ok req' ->
    Alcotest.(check string)
      ("round-trip " ^ Protocol.request_kind req)
      (Json.to_string (Protocol.request_to_json ~id req))
      (Json.to_string (Protocol.request_to_json ~id req'))
  | Error e -> Alcotest.failf "round-trip failed: %s" (Verrors.to_string e)

let test_protocol_roundtrip () =
  let opts = Protocol.default_opts ~benchmark:"s15850" in
  List.iter roundtrip
    [ Protocol.Run { opts; algorithm = Flow.Wavemin; warm = false };
      Protocol.Run
        { opts =
            { opts with
              Protocol.kappa = 35.5;
              budget_ms = Some 120.0;
              max_labels = Some 9;
              library = Some "cell INV_X1 { }" };
          algorithm = Flow.Initial;
          warm = false };
      Protocol.Run { opts; algorithm = Flow.Sa; warm = true };
      Protocol.Compare opts;
      Protocol.Validate { opts; all = false };
      Protocol.Validate { opts; all = true };
      Protocol.Montecarlo { opts; instances = 33 };
      Protocol.Stats; Protocol.Metrics Protocol.Text;
      Protocol.Metrics Protocol.Json_snapshot; Protocol.Health;
      Protocol.Flight; Protocol.Shutdown ]

let test_protocol_malformed () =
  let check_error line =
    match (Protocol.parse_request line).Protocol.payload with
    | Ok _ -> Alcotest.failf "accepted malformed line %S" line
    | Error e ->
      Alcotest.(check string) "parse-error code" "parse-error"
        (Verrors.code_name e.Verrors.code)
  in
  List.iter check_error
    [ "not json"; "[1,2]"; "{}"; {|{"id":1,"type":"frobnicate"}|};
      {|{"id":1,"type":"run"}|};
      {|{"id":1,"type":"run","benchmark":"s15850","algo":"quantum"}|} ]

let test_protocol_response () =
  let ok = Protocol.ok_response ~id:(Json.Num 3.0) (Json.Bool true) in
  (match Protocol.parse_response (Json.to_string ok) with
  | Ok r ->
    Alcotest.(check bool) "ok" true r.Protocol.ok;
    Alcotest.(check bool) "body" true (r.Protocol.body = Json.Bool true)
  | Error msg -> Alcotest.fail msg);
  let err =
    Protocol.error_response ~id:(Json.Num 4.0)
      (Verrors.make ~code:Verrors.Overloaded ~stage:"server.queue" "full")
  in
  match Protocol.parse_response (Json.to_string err) with
  | Ok r ->
    Alcotest.(check bool) "not ok" false r.Protocol.ok;
    let code =
      match r.Protocol.body with
      | Json.Obj fields -> List.assoc_opt "code" fields
      | _ -> None
    in
    Alcotest.(check bool) "overloaded code" true
      (code = Some (Json.Str "overloaded"))
  | Error msg -> Alcotest.fail msg

(* ---- Session ------------------------------------------------------ *)

let spec name = Benchmarks.find name
let params = Repro_core.Context.default_params

let test_session_hit_miss () =
  let s = Session.create ~capacity:4 () in
  (match Session.prepared s ~spec:(spec "s15850") ~params () with
  | Ok (_, `Miss) -> ()
  | Ok (_, `Hit) -> Alcotest.fail "cold lookup reported a hit"
  | Error e -> Alcotest.fail (Verrors.to_string e));
  (match Session.prepared s ~spec:(spec "s15850") ~params () with
  | Ok (_, `Hit) -> ()
  | Ok (_, `Miss) -> Alcotest.fail "warm lookup missed"
  | Error e -> Alcotest.fail (Verrors.to_string e));
  let st = Session.stats s in
  Alcotest.(check int) "hits" 1 st.Session.hits;
  Alcotest.(check int) "misses" 1 st.Session.misses

let test_session_content_hash () =
  (* Different parameters and a modified library text must key
     different entries; repeating either combination hits. *)
  let s = Session.create ~capacity:8 () in
  let lib = Liberty.to_string (Flow.leaf_library ()) in
  let lib' = lib ^ "\n" in
  let lookup ?library params =
    match Session.prepared s ~spec:(spec "s15850") ~params ?library () with
    | Ok (_, kind) -> kind
    | Error e -> Alcotest.fail (Verrors.to_string e)
  in
  Alcotest.(check bool) "cold" true (lookup params = `Miss);
  Alcotest.(check bool) "kappa changes the key" true
    (lookup { params with Repro_core.Context.kappa = 30.0 } = `Miss);
  Alcotest.(check bool) "explicit built-in text aliases the default" true
    (lookup ~library:lib params = `Hit);
  Alcotest.(check bool) "modified library invalidates" true
    (lookup ~library:lib' params = `Miss);
  Alcotest.(check bool) "modified library cached" true
    (lookup ~library:lib' params = `Hit)

let test_session_eviction () =
  let s = Session.create ~capacity:1 () in
  let miss name =
    match Session.prepared s ~spec:(spec name) ~params () with
    | Ok (_, kind) -> kind = `Miss
    | Error e -> Alcotest.fail (Verrors.to_string e)
  in
  Alcotest.(check bool) "cold s15850" true (miss "s15850");
  Alcotest.(check bool) "cold s13207" true (miss "s13207");
  Alcotest.(check bool) "s15850 was evicted" true (miss "s15850");
  Alcotest.(check int) "evictions" 2 (Session.stats s).Session.evictions

let test_session_shard_clamping () =
  let count ~capacity ~shards =
    Session.shard_count (Session.create ~capacity ~shards ())
  in
  Alcotest.(check int) "default-sized" 4 (count ~capacity:8 ~shards:4);
  Alcotest.(check int) "capacity 1 collapses to one shard" 1
    (count ~capacity:1 ~shards:8);
  Alcotest.(check int) "rounds down to a power of two" 4
    (count ~capacity:16 ~shards:7);
  Alcotest.(check int) "never exceeds capacity" 2
    (count ~capacity:3 ~shards:8);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Session.create: shards < 1") (fun () ->
      ignore (Session.create ~capacity:8 ~shards:0 ()))

let test_session_shard_distribution () =
  let s = Session.create ~capacity:64 ~shards:4 () in
  Alcotest.(check int) "four shards" 4 (Session.shard_count s);
  let hit = Array.make 4 false in
  for i = 0 to 63 do
    let k = Digest.to_hex (Digest.string (string_of_int i)) in
    let ix = Session.shard_index s k in
    Alcotest.(check bool) "index in range" true (ix >= 0 && ix < 4);
    hit.(ix) <- true
  done;
  Alcotest.(check bool) "keys spread across shards" true
    (Array.to_list hit |> List.filter Fun.id |> List.length > 1);
  let k = Digest.to_hex (Digest.string "stable") in
  Alcotest.(check int) "placement is stable" (Session.shard_index s k)
    (Session.shard_index s k)

let test_session_per_shard_eviction () =
  (* Capacity 4 over 2 shards = 2 entries per shard: a third key landing
     on the same shard evicts within that shard even though the cache as
     a whole is not full. *)
  let s = Session.create ~capacity:4 ~shards:2 () in
  let sp = spec "s15850" in
  let variant kappa = { params with Repro_core.Context.kappa } in
  let target =
    Session.shard_index s
      (Session.key ~spec:sp ~params:(variant 20.0) ~library:None)
  in
  let same_shard =
    (* kappa variants whose content keys land on one shard *)
    let rec collect kappa acc =
      if List.length acc = 3 then List.rev acc
      else
        let k = Session.key ~spec:sp ~params:(variant kappa) ~library:None in
        collect (kappa +. 1.0)
          (if Session.shard_index s k = target then variant kappa :: acc
           else acc)
    in
    collect 20.0 []
  in
  let lookup p =
    match Session.prepared s ~spec:sp ~params:p () with
    | Ok (_, kind) -> kind
    | Error e -> Alcotest.fail (Verrors.to_string e)
  in
  List.iter
    (fun p -> Alcotest.(check bool) "cold" true (lookup p = `Miss))
    same_shard;
  Alcotest.(check int) "third same-shard key evicts within its shard" 1
    (Session.stats s).Session.evictions;
  Alcotest.(check bool) "oldest same-shard key re-misses" true
    (lookup (List.hd same_shard) = `Miss)

let test_session_key_digests_pinned () =
  (* Shard choice and the access log's content_key depend on these
     exact digests; a serializer change must not move them. *)
  let sp = spec "s15850" in
  let d = Repro_core.Context.default_params in
  Alcotest.(check string) "key at default params"
    "718ad9e0ad781441e42318876712310d"
    (Session.key ~spec:sp ~params:d ~library:None);
  Alcotest.(check string) "key at kappa 25"
    "cf09702972726247ec9d86fedf0d62e7"
    (Session.key ~spec:sp
       ~params:{ d with Repro_core.Context.kappa = 25.0 }
       ~library:None);
  Alcotest.(check string) "base key" "7ffb8eedf2a07b0703edf3935162a6c4"
    (Session.base_key ~spec:sp ~library:None)

let test_session_warm_store () =
  (* The warm-start base key excludes the solver params: an assignment
     banked under one kappa is served as the hint for a nearby kappa,
     while a different benchmark or library text keys separately. *)
  let s = Session.create ~capacity:4 () in
  let sp = spec "s15850" in
  let base = Session.base_key ~spec:sp ~library:None in
  Alcotest.(check bool) "params never enter the base key" true
    (String.equal base (Session.base_key ~spec:sp ~library:None));
  Alcotest.(check bool) "another benchmark keys separately" false
    (String.equal base (Session.base_key ~spec:(spec "s13207") ~library:None));
  Alcotest.(check bool) "library text keys separately" false
    (String.equal base (Session.base_key ~spec:sp ~library:(Some "x")));
  Alcotest.(check bool) "cold store has no hint" true
    (Session.warm_hint s ~base = None);
  let tree = Benchmarks.synthesize sp in
  let asg = Repro_clocktree.Assignment.default tree ~num_modes:1 in
  Session.remember_warm s ~base ~params asg;
  (match Session.warm_hint s ~base with
  | Some (p, a) ->
    Alcotest.(check bool) "params round-trip" true (p = params);
    Alcotest.(check bool) "assignment round-trips" true (a == asg)
  | None -> Alcotest.fail "banked assignment not served");
  let nearby = { params with Repro_core.Context.kappa = 30.0 } in
  Session.remember_warm s ~base ~params:nearby asg;
  (match Session.warm_hint s ~base with
  | Some (p, _) ->
    Alcotest.(check bool) "most recent solve wins" true (p = nearby)
  | None -> Alcotest.fail "hint lost after re-bank");
  let st = Session.stats s in
  Alcotest.(check int) "warm entries" 1 st.Session.warm_entries;
  Alcotest.(check int) "warm hits" 2 st.Session.warm_hits;
  Alcotest.(check int) "warm stores" 2 st.Session.warm_stores

let test_handlers_warm_run () =
  (* A warm-opted SA run: the first solve is cold (no hint yet) and
     banks its assignment; the second finds the hint, quenches from it,
     and the access-log meta reports cache=warm.  The warm re-solve must
     reach the same kappa-feasible quality regime. *)
  let session = Session.create () in
  let opts =
    { (Protocol.default_opts ~benchmark:"s15850") with Protocol.kappa = 25.0 }
  in
  let run ?(warm = true) () =
    let meta = Handlers.create_meta () in
    let req = Protocol.Run { opts; algorithm = Flow.Sa; warm } in
    match Handlers.execute ~meta session req with
    | Ok body -> (meta, body)
    | Error (e, _) -> Alcotest.fail (Verrors.to_string e)
  in
  let meta_cold, _body_cold = run () in
  Alcotest.(check string) "first warm-opted run solves cold" "miss"
    (Handlers.cache_outcome_name meta_cold.Handlers.cache);
  Alcotest.(check int) "cold solve banked its assignment" 1
    (Session.stats session).Session.warm_stores;
  let meta_warm, body_warm = run () in
  Alcotest.(check string) "second run quenches from the bank" "warm"
    (Handlers.cache_outcome_name meta_warm.Handlers.cache);
  (match Json.member "quality" body_warm with
  | Some q -> (
    match Option.bind (Json.member "skew_ps" q) Json.float_value with
    | Some skew ->
      Alcotest.(check bool) "warm re-solve respects kappa" true
        (skew <= opts.Protocol.kappa +. 1e-6)
    | None -> Alcotest.fail "warm response lacks skew_ps")
  | None -> Alcotest.fail "warm response lacks quality");
  (* A cold twin of the same request must not be influenced by the
     bank: warm is strictly opt-in. *)
  let meta_off, _ = run ~warm:false () in
  Alcotest.(check string) "warm=false never quenches" "hit"
    (Handlers.cache_outcome_name meta_off.Handlers.cache)

(* ---- single-flight registry --------------------------------------- *)

let test_sflight_lead_join_complete () =
  let sf = Sflight.create () in
  (match Sflight.admit sf ~key:"k" 1 ~enqueue:(fun () -> Ok "queued") with
  | `Led v -> Alcotest.(check string) "leader ran enqueue" "queued" v
  | `Joined | `Refused _ -> Alcotest.fail "first arrival did not lead");
  let join v =
    match
      Sflight.admit sf ~key:"k" v ~enqueue:(fun () ->
          Alcotest.fail "follower must not enqueue")
    with
    | `Joined -> ()
    | `Led _ | `Refused _ -> Alcotest.fail "later arrival did not join"
  in
  join 2;
  join 3;
  Alcotest.(check int) "one open flight" 1 (Sflight.in_flight sf);
  Alcotest.(check (list int)) "followers in arrival order" [ 2; 3 ]
    (Sflight.complete sf ~key:"k");
  Alcotest.(check int) "flight closed" 0 (Sflight.in_flight sf);
  Alcotest.(check (list int)) "double complete is empty" []
    (Sflight.complete sf ~key:"k")

let test_sflight_failure_not_memoized () =
  (* complete runs before the leader's response is written, whatever the
     outcome: an arrival after completion must lead a fresh flight
     (re-execute), never inherit the dead flight's result. *)
  let sf = Sflight.create () in
  (match Sflight.admit sf ~key:"k" 1 ~enqueue:(fun () -> Ok ()) with
  | `Led () -> ()
  | `Joined | `Refused _ -> Alcotest.fail "no leader");
  (match Sflight.admit sf ~key:"k" 2 ~enqueue:(fun () -> Ok ()) with
  | `Joined -> ()
  | `Led _ | `Refused _ -> Alcotest.fail "no follower");
  ignore (Sflight.complete sf ~key:"k");
  match Sflight.admit sf ~key:"k" 3 ~enqueue:(fun () -> Ok ()) with
  | `Led () -> ()
  | `Joined | `Refused _ ->
    Alcotest.fail "post-completion arrival joined a dead flight"

let test_sflight_refusal_leaves_no_entry () =
  (* Backpressure refusal at enqueue time must not open a flight —
     otherwise later identical requests would strand as followers of a
     leader that never queued. *)
  let sf = Sflight.create () in
  (match Sflight.admit sf ~key:"k" 1 ~enqueue:(fun () -> Error `Full) with
  | `Refused `Full -> ()
  | `Led _ | `Joined -> Alcotest.fail "refusal not surfaced");
  Alcotest.(check int) "no stranded flight" 0 (Sflight.in_flight sf);
  match Sflight.admit sf ~key:"k" 2 ~enqueue:(fun () -> Ok ()) with
  | `Led () -> ()
  | `Joined | `Refused _ ->
    Alcotest.fail "arrival after refusal joined a phantom flight"

(* ---- end-to-end over a socket ------------------------------------- *)

let next_sock = Atomic.make 0

let temp_address () =
  Server.Unix_path
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "wm-%d-%d.sock" (Unix.getpid ())
          (Atomic.fetch_and_add next_sock 1)))

let with_server ?(queue_capacity = 16) ?executors ?access_log_path ?flight_dir
    ?idle_timeout_s ?max_line_bytes ?stall_after_s ?watchdog_period_s f =
  let address = temp_address () in
  let cfg =
    { (Server.default_config address) with
      Server.queue_capacity; report_path = None; access_log_path; flight_dir }
  in
  let override v apply cfg =
    match v with Some v -> apply cfg v | None -> cfg
  in
  let cfg =
    cfg
    |> override executors (fun c e -> { c with Server.executors = e })
    |> override idle_timeout_s (fun c s ->
           { c with Server.idle_timeout_s = Some s })
    |> override max_line_bytes (fun c b -> { c with Server.max_line_bytes = b })
    |> override stall_after_s (fun c s -> { c with Server.stall_after_s = s })
    |> override watchdog_period_s (fun c p ->
           { c with Server.watchdog_period_s = Some p })
  in
  let t, thread = Server.serve_background cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain t;
      Thread.join thread)
    (fun () -> f address t)

let request_exn c req =
  match Client.request c req with
  | Ok resp -> resp
  | Error e -> Alcotest.fail (Verrors.to_string e)

let with_client address f =
  match Client.connect address with
  | Error e -> Alcotest.fail (Verrors.to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let test_server_roundtrip () =
  with_server (fun address t ->
      with_client address (fun c ->
          let health = request_exn c Protocol.Health in
          Alcotest.(check bool) "health ok" true health.Protocol.ok;
          let run =
            Protocol.Run
              { opts = Protocol.default_opts ~benchmark:"s15850";
                algorithm = Flow.Initial; warm = false }
          in
          let cold = request_exn c run in
          Alcotest.(check bool) "run ok" true cold.Protocol.ok;
          let warm = request_exn c run in
          Alcotest.(check string) "cold and warm responses identical"
            (Json.to_string cold.Protocol.body)
            (Json.to_string warm.Protocol.body);
          let bad =
            request_exn c
              (Protocol.Run
                 { opts = Protocol.default_opts ~benchmark:"nonesuch";
                   algorithm = Flow.Initial; warm = false })
          in
          Alcotest.(check bool) "unknown benchmark is an error" false
            bad.Protocol.ok;
          let stats = request_exn c Protocol.Stats in
          (match stats.Protocol.body with
          | Json.Obj fields -> (
            match List.assoc_opt "cache" fields with
            | Some (Json.Obj cache) ->
              Alcotest.(check bool) "cache hit recorded" true
                (match List.assoc_opt "hits" cache with
                | Some (Json.Num h) -> h >= 1.0
                | _ -> false)
            | _ -> Alcotest.fail "stats carry no cache block")
          | _ -> Alcotest.fail "stats body not an object");
          let bye = request_exn c Protocol.Shutdown in
          Alcotest.(check bool) "shutdown acknowledged" true bye.Protocol.ok);
      (* rejected, not crashed, once draining *)
      Alcotest.(check bool) "draining" true (Server.draining t))

let send_raw c fd req ~id =
  ignore c;
  let line = Protocol.line (Protocol.request_to_json ~id:(Json.Num id) req) in
  ignore (Unix.write_substring fd line 0 (String.length line))

let test_server_rejects_while_draining () =
  (* Keep the executor busy with a slow request so the drain stays
     in-flight, then ask for more work: the reader must answer with a
     structured overloaded rejection while the slow request still
     completes (graceful drain finishes accepted work). *)
  with_server (fun address t ->
      let path =
        match address with Server.Unix_path p -> p | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          send_raw () fd
            (Protocol.Montecarlo
               { opts = Protocol.default_opts ~benchmark:"s13207";
                 instances = 2000 })
            ~id:0.0;
          Thread.delay 0.2;
          Server.initiate_drain t;
          send_raw () fd
            (Protocol.Run
               { opts = Protocol.default_opts ~benchmark:"s15850";
                 algorithm = Flow.Initial; warm = false })
            ~id:1.0;
          (* The rejection is written inline by the reader and overtakes
             the queued montecarlo response. *)
          (match Protocol.parse_response (input_line ic) with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            Alcotest.(check bool) "rejection id" true
              (r.Protocol.rid = Json.Num 1.0);
            Alcotest.(check bool) "rejected" false r.Protocol.ok;
            let code =
              match r.Protocol.body with
              | Json.Obj fields -> List.assoc_opt "code" fields
              | _ -> None
            in
            Alcotest.(check bool) "overloaded code" true
              (code = Some (Json.Str "overloaded")));
          match Protocol.parse_response (input_line ic) with
          | Error msg -> Alcotest.fail msg
          | Ok r ->
            Alcotest.(check bool) "slow request finished" true
              (r.Protocol.rid = Json.Num 0.0 && r.Protocol.ok)))

let test_server_backpressure () =
  (* Pipeline one slow request plus a burst on a capacity-1 queue with a
     single executor, without waiting for responses: the burst must
     overflow the bound and come back as structured overloaded
     rejections.  Every burst request carries a distinct kappa so the
     single-flight layer cannot coalesce them into one queue slot. *)
  with_server ~queue_capacity:1 ~executors:1 (fun address _t ->
      let path =
        match address with Server.Unix_path p -> p | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let slow =
            Protocol.Montecarlo
              { opts = Protocol.default_opts ~benchmark:"s13207";
                instances = 2000 }
          in
          let quick i =
            Protocol.Run
              { opts =
                  { (Protocol.default_opts ~benchmark:"s15850") with
                    Protocol.kappa = 20.0 +. float_of_int i };
                algorithm = Flow.Initial;
                warm = false }
          in
          let burst = 8 in
          send_raw () fd slow ~id:0.0;
          for i = 1 to burst do
            send_raw () fd (quick i) ~id:(float_of_int i)
          done;
          let overloaded = ref 0 and ok = ref 0 in
          for _ = 0 to burst do
            match Protocol.parse_response (input_line ic) with
            | Error msg -> Alcotest.fail msg
            | Ok r ->
              if r.Protocol.ok then incr ok
              else (
                match r.Protocol.body with
                | Json.Obj fields
                  when List.assoc_opt "code" fields
                       = Some (Json.Str "overloaded") ->
                  incr overloaded
                | _ -> Alcotest.fail "non-overloaded error during burst")
          done;
          Alcotest.(check bool)
            (Printf.sprintf "burst rejected (%d overloaded, %d ok)"
               !overloaded !ok)
            true (!overloaded >= 1);
          Alcotest.(check bool) "slow request still served" true (!ok >= 1)))

let test_server_coalescing () =
  (* A single executor is pinned down by a slow solve; three
     content-identical heavy requests arrive behind it.  The first leads
     (takes the queue slot), the other two join its flight: all three
     must come back ok, byte-identical, each under its own request id,
     and the server must count exactly two joins. *)
  with_server ~executors:1 (fun address _t ->
      let path =
        match address with Server.Unix_path p -> p | _ -> assert false
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          send_raw () fd
            (Protocol.Montecarlo
               { opts = Protocol.default_opts ~benchmark:"s13207";
                 instances = 2000 })
            ~id:0.0;
          let dup =
            Protocol.Run
              { opts = Protocol.default_opts ~benchmark:"s15850";
                algorithm = Flow.Wavemin; warm = false }
          in
          for i = 1 to 3 do
            send_raw () fd dup ~id:(float_of_int i)
          done;
          let bodies = Hashtbl.create 4 in
          for _ = 0 to 3 do
            match Protocol.parse_response (input_line ic) with
            | Error msg -> Alcotest.fail msg
            | Ok r ->
              Alcotest.(check bool) "every response ok" true r.Protocol.ok;
              (match r.Protocol.rid with
              | Json.Num id ->
                Hashtbl.replace bodies id (Json.to_string r.Protocol.body)
              | _ -> Alcotest.fail "response with non-numeric id")
          done;
          Alcotest.(check int) "all four ids answered" 4
            (Hashtbl.length bodies);
          let body i = Hashtbl.find bodies (float_of_int i) in
          Alcotest.(check string) "first follower byte-identical" (body 1)
            (body 2);
          Alcotest.(check string) "second follower byte-identical" (body 1)
            (body 3));
      with_client address (fun c ->
          let stats = request_exn c Protocol.Stats in
          match
            Option.bind
              (Json.member "coalesced" stats.Protocol.body)
              Json.float_value
          with
          | Some n ->
            Alcotest.(check (float 0.0)) "two joins counted" 2.0 n
          | None -> Alcotest.fail "stats carry no coalesced counter"))

(* ---- telemetry: metrics request, stats rolling/last, access log --- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  scan 0

let get path json =
  let rec go path j =
    match path with [] -> Some j | k :: rest -> Option.bind (Json.member k j) (go rest)
  in
  go path json

let test_server_telemetry () =
  let log_path = Filename.temp_file "wm-access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      with_server ~access_log_path:log_path (fun address _t ->
          with_client address (fun c ->
              let run =
                Protocol.Run
                  { opts = Protocol.default_opts ~benchmark:"s15850";
                    algorithm = Flow.Initial; warm = false }
              in
              let cold = request_exn c run in
              let warm = request_exn c run in
              (* Telemetry must stay strictly out-of-band. *)
              Alcotest.(check string)
                "responses byte-identical with telemetry enabled"
                (Json.to_string cold.Protocol.body)
                (Json.to_string warm.Protocol.body);
              let m = request_exn c (Protocol.Metrics Protocol.Text) in
              Alcotest.(check bool) "metrics ok" true m.Protocol.ok;
              (match get [ "format" ] m.Protocol.body with
              | Some (Json.Str "prometheus") -> ()
              | _ -> Alcotest.fail "metrics format not prometheus");
              (match
                 Option.bind (get [ "body" ] m.Protocol.body) Json.string_value
               with
              | Some text ->
                Alcotest.(check bool) "request counter exposed" true
                  (contains_sub text "wavemin_server_requests_total");
                Alcotest.(check bool) "latency histogram exposed" true
                  (contains_sub text "wavemin_server_latency_ms_bucket")
              | None -> Alcotest.fail "metrics text body missing");
              let mj = request_exn c (Protocol.Metrics Protocol.Json_snapshot) in
              (match get [ "metrics" ] mj.Protocol.body with
              | Some (Json.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "json metrics snapshot empty");
              let stats = request_exn c Protocol.Stats in
              (match
                 Option.bind
                   (get [ "rolling"; "latency_ms"; "count" ] stats.Protocol.body)
                   Json.float_value
               with
              | Some n ->
                Alcotest.(check bool) "rolling latency sees the runs" true
                  (n >= 2.0)
              | None -> Alcotest.fail "stats carry no rolling latency");
              (match get [ "last" ] stats.Protocol.body with
              | Some last ->
                Alcotest.(check (option string)) "last type"
                  (Some "run")
                  (Option.bind (Json.member "type" last) Json.string_value);
                Alcotest.(check (option string)) "last cache outcome"
                  (Some "hit")
                  (Option.bind (Json.member "cache" last) Json.string_value);
                (match
                   Option.bind (Json.member "rid" last) Json.string_value
                 with
                | Some rid -> Alcotest.(check bool) "rid shape" true
                    (String.length rid > 1 && rid.[0] = 'r')
                | None -> Alcotest.fail "last has no rid")
              | None -> Alcotest.fail "stats carry no last block")));
      (* Drained: the access log is complete.  One line per data-plane
         request, parseable, carrying the cache outcomes. *)
      let ic = open_in log_path in
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      in
      Alcotest.(check int) "one line per data-plane request" 2
        (List.length lines);
      let outcomes =
        List.map
          (fun line ->
            match Json.of_string line with
            | Error msg -> Alcotest.failf "unparseable access line: %s" msg
            | Ok j ->
              (match Option.bind (Json.member "rid" j) Json.string_value with
              | Some _ -> ()
              | None -> Alcotest.fail "access line has no rid");
              (match
                 Option.bind (Json.member "wall_ms" j) Json.float_value
               with
              | Some w -> Alcotest.(check bool) "wall_ms sane" true (w >= 0.0)
              | None -> Alcotest.fail "access line has no wall_ms");
              Option.bind (Json.member "cache" j) Json.string_value)
          lines
      in
      Alcotest.(check (list (option string)))
        "cold miss then warm hit"
        [ Some "miss"; Some "hit" ] outcomes)

(* ---- the bench-serve load generator ------------------------------- *)

module Loadgen = Repro_server.Loadgen
module Report = Repro_obs.Report

let test_loadgen_deterministic_counts () =
  with_server (fun address _t ->
      let cfg =
        { (Loadgen.default_config address ~benchmark:"s15850") with
          Loadgen.connections = 3; total = Some 12 }
      in
      match Loadgen.run cfg with
      | Error e -> Alcotest.fail (Verrors.to_string e)
      | Ok r ->
        Alcotest.(check int) "exact budget" 12 r.Loadgen.total_requests;
        Alcotest.(check int) "no errors" 0 r.Loadgen.total_errors;
        (* 12 requests over the 6-slot weighted schedule = two full
           rounds: class counts are independent of thread timing. *)
        let count name =
          (List.find (fun c -> c.Loadgen.name = name) r.Loadgen.classes)
            .Loadgen.count
        in
        Alcotest.(check int) "run-initial" 6 (count "run-initial");
        Alcotest.(check int) "run-wavemin" 2 (count "run-wavemin");
        Alcotest.(check int) "validate" 2 (count "validate");
        Alcotest.(check int) "stats" 2 (count "stats");
        Alcotest.(check bool) "throughput positive" true
          (r.Loadgen.throughput_rps > 0.0);
        Alcotest.(check bool) "rolling saw everything" true
          (r.Loadgen.rolling.Repro_obs.Rolling.count = 12))

let test_loadgen_report_roundtrip_and_gate () =
  with_server (fun address _t ->
      let cfg =
        { (Loadgen.default_config address ~benchmark:"s15850") with
          Loadgen.connections = 2; total = Some 6 }
      in
      match Loadgen.run cfg with
      | Error e -> Alcotest.fail (Verrors.to_string e)
      | Ok r ->
        let report = Loadgen.to_report cfg r in
        let path = Filename.temp_file "wm-bench-serve" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Report.write path report;
            match Report.read path with
            | Error msg -> Alcotest.failf "report unreadable: %s" msg
            | Ok back ->
              Alcotest.(check bool) "round-trips" true
                (Report.equal report back);
              (* The gate a CI baseline would apply: a report must pass
                 against itself. *)
              let d = Report.diff ~baseline:back ~candidate:report () in
              Alcotest.(check int) "self-diff passes the gate" 0
                (List.length (Report.failures d))))

let test_loadgen_dead_daemon () =
  let cfg =
    Loadgen.default_config (temp_address ()) ~benchmark:"s15850"
  in
  match Loadgen.run cfg with
  | Ok _ -> Alcotest.fail "load against a dead daemon reported success"
  | Error e ->
    Alcotest.(check string) "io error" "io-error"
      (Verrors.code_name e.Verrors.code)

(* ---- fault seams -------------------------------------------------- *)

let test_server_survives_faults () =
  (* With every seam armed at probability 1 the daemon must keep
     answering: a structured error (or a degraded-but-ok result), then
     recover to a clean response once the fault clears. *)
  let broken_lib = Liberty.to_string (Flow.leaf_library ()) ^ "\n# tweak\n" in
  with_server (fun address _t ->
      with_client address (fun c ->
          List.iter
            (fun seam ->
              let name = Fault.seam_name seam in
              (match Fault.set_spec (name ^ ":1") with
              | Ok () -> ()
              | Error msg -> Alcotest.fail msg);
              Fun.protect ~finally:Fault.clear (fun () ->
                  let opts =
                    { (Protocol.default_opts ~benchmark:"s15850") with
                      Protocol.library =
                        (* force a parse so the parser seam can fire *)
                        (if seam = Fault.Parser then Some broken_lib else None)
                    }
                  in
                  let resp =
                    request_exn c
                      (Protocol.Run { opts; algorithm = Flow.Wavemin; warm = false })
                  in
                  (* Fallback chains may absorb the fault (ok response
                     with degradations); what is forbidden is a dead
                     server or a torn response. *)
                  ignore resp.Protocol.ok;
                  let health = request_exn c Protocol.Health in
                  Alcotest.(check bool)
                    (name ^ ": server alive under fault")
                    true health.Protocol.ok);
              let clean =
                request_exn c
                  (Protocol.Run
                     { opts = Protocol.default_opts ~benchmark:"s15850";
                       algorithm = Flow.Initial; warm = false })
              in
              Alcotest.(check bool)
                (name ^ ": clean after clearing")
                true clean.Protocol.ok)
            Fault.all_seams))

(* ---- resilience: deadlines, reader guards, watchdog, sockets ------ *)

let with_raw address f =
  let path = match address with Server.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Unix.in_channel_of_descr fd))

let send_deadline fd req ~id ~deadline_ms =
  let line =
    Protocol.line (Protocol.request_to_json ~deadline_ms ~id:(Json.Num id) req)
  in
  ignore (Unix.write_substring fd line 0 (String.length line))

let read_resp ic =
  match Protocol.parse_response (input_line ic) with
  | Error msg -> Alcotest.fail msg
  | Ok r -> r

let response_code (r : Protocol.response) =
  match r.Protocol.body with
  | Json.Obj fields ->
    Option.bind (List.assoc_opt "code" fields) Json.string_value
  | _ -> None

let stat_num stats k =
  Option.bind (Json.member k stats.Protocol.body) Json.float_value

let slow_request =
  Protocol.Montecarlo
    { opts = Protocol.default_opts ~benchmark:"s13207"; instances = 2000 }

let test_deadline_flight_triage () =
  (* A single executor is pinned down; a coalesced flight of three
     identical requests waits behind it — two with a 1 ms deadline, one
     without.  At dispatch the dead members must be shed with their own
     [deadline-exceeded] lines and the live member promoted to leader:
     the solve still runs exactly once, for the client that still wants
     it. *)
  with_server ~executors:1 (fun address _t ->
      with_raw address (fun fd ic ->
          send_raw () fd slow_request ~id:0.0;
          Thread.delay 0.2;
          let dup =
            Protocol.Run
              { opts = Protocol.default_opts ~benchmark:"s15850";
                algorithm = Flow.Wavemin; warm = false }
          in
          send_deadline fd dup ~id:1.0 ~deadline_ms:1.0;
          send_deadline fd dup ~id:2.0 ~deadline_ms:1.0;
          send_raw () fd dup ~id:3.0;
          let responses = Hashtbl.create 4 in
          for _ = 0 to 3 do
            let r = read_resp ic in
            match r.Protocol.rid with
            | Json.Num id -> Hashtbl.replace responses id r
            | _ -> Alcotest.fail "response with non-numeric id"
          done;
          Alcotest.(check int) "all four ids answered" 4
            (Hashtbl.length responses);
          let r i = Hashtbl.find responses (float_of_int i) in
          Alcotest.(check bool) "slow request ok" true (r 0).Protocol.ok;
          Alcotest.(check bool) "expired leader shed" false (r 1).Protocol.ok;
          Alcotest.(check (option string)) "leader deadline-exceeded"
            (Some "deadline-exceeded")
            (response_code (r 1));
          Alcotest.(check bool) "expired follower shed" false
            (r 2).Protocol.ok;
          Alcotest.(check (option string)) "follower deadline-exceeded"
            (Some "deadline-exceeded")
            (response_code (r 2));
          Alcotest.(check bool) "live member promoted and served" true
            (r 3).Protocol.ok);
      with_client address (fun c ->
          let stats = request_exn c Protocol.Stats in
          Alcotest.(check (option (float 0.0))) "two members expired"
            (Some 2.0) (stat_num stats "expired")))

let expired_never_executes =
  QCheck.Test.make ~count:3
    ~name:"expired-deadline request never executes"
    QCheck.(pair (int_bound 20) (int_bound 3))
    (fun (salt, step) ->
      (* A random request (distinct kappa so nothing is pre-cached) with
         a random small deadline queues behind a slow solve and expires
         in the queue.  Contract: the answer is always a structured
         [deadline-exceeded] error, and the solve never ran — proved by
         the session cache, which a run would have populated: re-sending
         the same request afterwards must be a cache miss. *)
      let opts =
        { (Protocol.default_opts ~benchmark:"s15850") with
          Protocol.kappa = 40.0 +. float_of_int salt }
      in
      let req = Protocol.Run { opts; algorithm = Flow.Initial; warm = false } in
      let deadline_ms = 0.5 +. float_of_int step in
      with_server ~executors:1 (fun address _t ->
          with_raw address (fun fd ic ->
              send_raw () fd slow_request ~id:0.0;
              Thread.delay 0.1;
              send_deadline fd req ~id:1.0 ~deadline_ms;
              let first = read_resp ic in
              Alcotest.(check bool) "slow request ok" true first.Protocol.ok;
              let shed = read_resp ic in
              Alcotest.(check bool) "shed answer is an error" false
                shed.Protocol.ok;
              Alcotest.(check (option string)) "deadline-exceeded code"
                (Some "deadline-exceeded")
                (response_code shed));
          with_client address (fun c ->
              let stats = request_exn c Protocol.Stats in
              Alcotest.(check bool) "expired counted" true
                (match stat_num stats "expired" with
                | Some n -> n >= 1.0
                | None -> false);
              let redo = request_exn c req in
              Alcotest.(check bool) "re-sent request executes" true
                redo.Protocol.ok;
              let stats = request_exn c Protocol.Stats in
              Alcotest.(check (option string))
                "re-run is a cache miss: the shed request never executed"
                (Some "miss")
                (Option.bind
                   (get [ "last"; "cache" ] stats.Protocol.body)
                   Json.string_value));
          true))

let test_reader_oversized_line () =
  (* A peer streaming an unterminated monster line must get a structured
     [parse-error] and a closed connection — never unbounded buffering. *)
  with_server ~max_line_bytes:1024 (fun address _t ->
      with_raw address (fun fd ic ->
          let blob = String.make 4096 'x' in
          ignore (Unix.write_substring fd blob 0 (String.length blob));
          let r = read_resp ic in
          Alcotest.(check bool) "rejected" false r.Protocol.ok;
          Alcotest.(check (option string)) "parse-error code"
            (Some "parse-error") (response_code r);
          match input_line ic with
          | _ -> Alcotest.fail "connection survived an oversized line"
          | exception End_of_file -> ()))

let test_reader_idle_timeout () =
  (* A slowloris peer — bytes but never a complete line — must be cut
     off with a structured [io-error] after the idle timeout. *)
  with_server ~idle_timeout_s:0.2 (fun address _t ->
      with_raw address (fun fd ic ->
          ignore (Unix.write_substring fd "{" 0 1);
          let r = read_resp ic in
          Alcotest.(check bool) "rejected" false r.Protocol.ok;
          Alcotest.(check (option string)) "io-error code" (Some "io-error")
            (response_code r);
          match input_line ic with
          | _ -> Alcotest.fail "connection survived the idle timeout"
          | exception End_of_file -> ()))

let test_watchdog_reports_stall () =
  (* An unbudgeted solve running past [stall_after_s] must be reported
     (counted in stats) but never killed: the request still completes. *)
  with_server ~executors:1 ~stall_after_s:0.05 ~watchdog_period_s:0.02
    (fun address _t ->
      with_client address (fun c ->
          let resp = request_exn c slow_request in
          Alcotest.(check bool) "stalled request still completes" true
            resp.Protocol.ok;
          let stats = request_exn c Protocol.Stats in
          Alcotest.(check bool) "stall reported" true
            (match stat_num stats "stalled" with
            | Some n -> n >= 1.0
            | None -> false)))

let test_stale_socket_recovered () =
  (* A SIGKILLed daemon leaves its socket file behind.  The probe finds
     nobody answering, evicts it, and the new daemon binds and serves. *)
  let address = temp_address () in
  let path = match address with Server.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  Unix.close fd;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists path);
  let cfg =
    { (Server.default_config address) with
      Server.report_path = None; flight_dir = None }
  in
  let t, thread = Server.serve_background cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.initiate_drain t;
      Thread.join thread)
    (fun () ->
      with_client address (fun c ->
          let health = request_exn c Protocol.Health in
          Alcotest.(check bool) "recovered and serving" true
            health.Protocol.ok))

let test_live_socket_refused () =
  (* A live daemon must never be evicted by a second instance: the
     probe connects, so the second bind fails with a structured
     [io-error] — and the first daemon keeps serving. *)
  with_server (fun address _t ->
      let cfg =
        { (Server.default_config address) with
          Server.report_path = None; flight_dir = None }
      in
      (match Server.serve_background cfg with
      | exception Verrors.Error e ->
        Alcotest.(check string) "io-error refusal" "io-error"
          (Verrors.code_name e.Verrors.code)
      | _ -> Alcotest.fail "second daemon evicted a live socket");
      with_client address (fun c ->
          let health = request_exn c Protocol.Health in
          Alcotest.(check bool) "first daemon unharmed" true
            health.Protocol.ok))

let test_non_socket_path_refused () =
  (* Anything that is not a socket is refused, never unlinked. *)
  let address = temp_address () in
  let path = match address with Server.Unix_path p -> p | _ -> assert false in
  let oc = open_out path in
  output_string oc "precious\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cfg =
        { (Server.default_config address) with
          Server.report_path = None; flight_dir = None }
      in
      (match Server.serve_background cfg with
      | exception Verrors.Error e ->
        Alcotest.(check string) "io-error refusal" "io-error"
          (Verrors.code_name e.Verrors.code)
      | _ -> Alcotest.fail "daemon bound over a regular file");
      Alcotest.(check bool) "file not evicted" true (Sys.file_exists path))

(* ---- flight recorder forensics ------------------------------------ *)

module Flight = Repro_obs.Flight
module Explain = Repro_obs.Explain

let degraded_run_opts =
  (* A label budget this small trips inside ClkWaveMin and forces the
     fallback chain — the canonical degradation the flight recorder is
     there to dissect.  Large enough that whole label rows complete
     before the trip, so the report carries per-row evolution too. *)
  { (Protocol.default_opts ~benchmark:"s15850") with
    Protocol.max_labels = Some 64 }

let test_server_flight_forensics () =
  let dir =
    let d = Filename.temp_file "wm-flight" "" in
    Sys.remove d;
    Unix.mkdir d 0o700;
    d
  in
  let cleanup () =
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      with_server ~flight_dir:dir (fun address _t ->
          with_client address (fun c ->
              let resp =
                request_exn c
                  (Protocol.Run
                     { opts = degraded_run_opts; algorithm = Flow.Wavemin; warm = false })
              in
              Alcotest.(check bool) "degraded run still ok" true
                resp.Protocol.ok;
              (match Json.member "degradations" resp.Protocol.body with
              | Some (Json.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "run did not degrade as arranged");
              (* Live snapshot over the control plane. *)
              let fl = request_exn c Protocol.Flight in
              Alcotest.(check bool) "flight request ok" true fl.Protocol.ok;
              Alcotest.(check (option string)) "versioned dump"
                (Some "wavemin-flight")
                (Option.bind (Json.member "schema" fl.Protocol.body)
                   Json.string_value);
              match Explain.render fl.Protocol.body with
              | Error msg -> Alcotest.failf "snapshot unrenderable: %s" msg
              | Ok report ->
                List.iter
                  (fun needle ->
                    Alcotest.(check bool) ("report mentions " ^ needle) true
                      (contains_sub report needle))
                  [ "solve timeline"; "budget-exhausted"; "fallback";
                    "binding sinks"; "labels/row" ]));
      (* The degraded request also left a black-box dump on disk, named
         by its request id and renderable offline. *)
      let dumps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".flight.json")
      in
      (match dumps with
      | [] -> Alcotest.fail "no flight dump written for the degraded request"
      | name :: _ ->
        Alcotest.(check bool) "request-id-named" true
          (String.length name > 0 && name.[0] = 'r');
        let ic = open_in_bin (Filename.concat dir name) in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Json.of_string text with
        | Error msg -> Alcotest.failf "dump file unparseable: %s" msg
        | Ok dump -> (
          match Explain.render dump with
          | Error msg -> Alcotest.failf "dump file unrenderable: %s" msg
          | Ok report ->
            Alcotest.(check bool) "offline report has the fallback" true
              (contains_sub report "fallback"))))

let test_flight_recorder_never_influences () =
  (* The byte-identity contract with the recorder specifically: the
     same degraded request executes identically with recording off and
     on, while the enabled run actually fills the ring. *)
  let req = Protocol.Run { opts = degraded_run_opts; algorithm = Flow.Wavemin; warm = false } in
  let render = function
    | Ok body -> "ok:" ^ Json.to_string body
    | Error (e, _) -> "err:" ^ Json.to_string (Verrors.to_json e)
  in
  let was_enabled = Flight.enabled () in
  Fun.protect
    ~finally:(fun () -> Flight.set_enabled was_enabled)
    (fun () ->
      Flight.set_enabled false;
      let off = render (Handlers.execute (Session.create ()) req) in
      Flight.set_enabled true;
      Flight.clear ();
      let on = render (Handlers.execute (Session.create ()) req) in
      let recorded = Flight.recorded () in
      Alcotest.(check string) "byte-identical with recorder on" off on;
      Alcotest.(check bool) "recorder saw the solve" true (recorded > 0))

(* ---- bit-identity: concurrent == sequential ----------------------- *)

let identity_requests =
  [ Protocol.Run
      { opts = Protocol.default_opts ~benchmark:"s15850";
        algorithm = Flow.Initial; warm = false };
    Protocol.Run
      { opts = Protocol.default_opts ~benchmark:"s15850";
        algorithm = Flow.Peakmin; warm = false };
    Protocol.Run
      { opts = Protocol.default_opts ~benchmark:"s13207";
        algorithm = Flow.Initial; warm = false };
    Protocol.Validate
      { opts = Protocol.default_opts ~benchmark:"s15850"; all = false };
    Protocol.Run
      { opts =
          { (Protocol.default_opts ~benchmark:"s15850") with
            Protocol.kappa = 30.0 };
        algorithm = Flow.Peakmin;
        warm = false } ]

let render_outcome = function
  | Ok body -> "ok:" ^ Json.to_string body
  | Error (e, _) -> "err:" ^ Json.to_string (Verrors.to_json e)

let sequential_outcomes reqs =
  let session = Session.create () in
  List.map (fun req -> render_outcome (Handlers.execute session req)) reqs

let concurrent_outcomes ~executors ~jobs reqs =
  Par.with_jobs jobs (fun () ->
      with_server ~executors (fun address _t ->
          let results = Array.make (List.length reqs) "" in
          let clients =
            List.mapi
              (fun i req ->
                Thread.create
                  (fun () ->
                    with_client address (fun c ->
                        let resp = request_exn c req in
                        results.(i) <-
                          (if resp.Protocol.ok then
                             "ok:" ^ Json.to_string resp.Protocol.body
                           else "err:" ^ Json.to_string resp.Protocol.body)))
                  ())
              reqs
          in
          List.iter Thread.join clients;
          Array.to_list results))

let bit_identity =
  QCheck.Test.make ~count:2 ~name:"concurrent clients == sequential execution"
    QCheck.(pair (int_bound 2) small_nat)
    (fun (drop, salt) ->
      (* A random sublist in a random rotation, served across executor
         counts {1, 2, 8} x job counts {1, 4}.  One request is
         duplicated so the single-flight layer can fire: whether the
         duplicate coalesces (concurrent in-flight) or re-executes
         (sequentialized by timing) the bytes must be identical. *)
      let reqs =
        List.filteri (fun i _ -> i <> drop) identity_requests
      in
      let n = List.length reqs in
      let rot = salt mod n in
      let reqs =
        List.mapi (fun i _ -> List.nth reqs ((i + rot) mod n)) reqs
      in
      let reqs = reqs @ [ List.hd reqs ] in
      let expected = sequential_outcomes reqs in
      List.for_all
        (fun (executors, jobs) ->
          concurrent_outcomes ~executors ~jobs reqs = expected)
        [ (1, 1); (1, 4); (2, 4); (8, 1); (8, 4); (2, 1) ])

let () =
  Repro_obs.Log.setup ~level:None ();
  Alcotest.run "server"
    [ ( "lru",
        [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "find bumps recency" `Quick test_lru_find_bumps;
          Alcotest.test_case "mem keeps recency" `Quick
            test_lru_mem_does_not_bump;
          Alcotest.test_case "replace/remove" `Quick
            test_lru_replace_and_remove ] );
      ( "bqueue",
        [ Alcotest.test_case "backpressure" `Quick test_bqueue_backpressure;
          Alcotest.test_case "drain" `Quick test_bqueue_drain;
          Alcotest.test_case "expiry sweep" `Quick test_bqueue_pop_live;
          Alcotest.test_case "blocking pop" `Quick test_bqueue_blocking_pop ] );
      ( "access-log",
        [ Alcotest.test_case "size-based rotation" `Quick
            test_access_log_rotation;
          Alcotest.test_case "unbounded by default" `Quick
            test_access_log_no_rotation_by_default;
          Alcotest.test_case "concurrent writers" `Quick
            test_access_log_concurrent_writers ] );
      ( "protocol",
        [ Alcotest.test_case "round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed" `Quick test_protocol_malformed;
          Alcotest.test_case "responses" `Quick test_protocol_response ] );
      ( "session",
        [ Alcotest.test_case "hit/miss" `Quick test_session_hit_miss;
          Alcotest.test_case "content hash" `Quick test_session_content_hash;
          Alcotest.test_case "eviction" `Quick test_session_eviction;
          Alcotest.test_case "shard clamping" `Quick
            test_session_shard_clamping;
          Alcotest.test_case "shard distribution" `Quick
            test_session_shard_distribution;
          Alcotest.test_case "per-shard eviction" `Quick
            test_session_per_shard_eviction;
          Alcotest.test_case "key digests pinned" `Quick
            test_session_key_digests_pinned;
          Alcotest.test_case "warm-start store" `Quick
            test_session_warm_store;
          Alcotest.test_case "warm-start run" `Quick
            test_handlers_warm_run ] );
      ( "sflight",
        [ Alcotest.test_case "lead/join/complete" `Quick
            test_sflight_lead_join_complete;
          Alcotest.test_case "failure never memoized" `Quick
            test_sflight_failure_not_memoized;
          Alcotest.test_case "refusal leaves no entry" `Quick
            test_sflight_refusal_leaves_no_entry ] );
      ( "socket",
        [ Alcotest.test_case "round-trip" `Quick test_server_roundtrip;
          Alcotest.test_case "draining rejects" `Quick
            test_server_rejects_while_draining;
          Alcotest.test_case "backpressure" `Slow test_server_backpressure;
          Alcotest.test_case "coalescing" `Slow test_server_coalescing;
          Alcotest.test_case "telemetry" `Quick test_server_telemetry;
          Alcotest.test_case "fault seams" `Slow test_server_survives_faults ] );
      ( "resilience",
        [ Alcotest.test_case "deadline flight triage" `Quick
            test_deadline_flight_triage;
          Alcotest.test_case "oversized line rejected" `Quick
            test_reader_oversized_line;
          Alcotest.test_case "idle connection cut" `Quick
            test_reader_idle_timeout;
          Alcotest.test_case "watchdog reports stall" `Quick
            test_watchdog_reports_stall;
          Alcotest.test_case "stale socket recovered" `Quick
            test_stale_socket_recovered;
          Alcotest.test_case "live socket refused" `Quick
            test_live_socket_refused;
          Alcotest.test_case "non-socket path refused" `Quick
            test_non_socket_path_refused ] );
      ( "flight",
        [ Alcotest.test_case "degradation forensics" `Quick
            test_server_flight_forensics;
          Alcotest.test_case "recorder never influences" `Quick
            test_flight_recorder_never_influences ] );
      ( "loadgen",
        [ Alcotest.test_case "deterministic class counts" `Quick
            test_loadgen_deterministic_counts;
          Alcotest.test_case "report round-trip + self-gate" `Quick
            test_loadgen_report_roundtrip_and_gate;
          Alcotest.test_case "dead daemon" `Quick test_loadgen_dead_daemon ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ bit_identity; expired_never_executes ] ) ]
