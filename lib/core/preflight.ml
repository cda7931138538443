module Verrors = Repro_util.Verrors
module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell

let node_subject id = Printf.sprintf "node %d" id

(* Collect-all style: every checker appends to a diagnostics list and
   keeps going, so one validate run reports the full damage. *)
let check_nodes nodes =
  let ds = ref [] in
  let add ?subject fmt =
    Printf.ksprintf
      (fun message ->
        ds :=
          Verrors.make ~code:Verrors.Invalid_tree ~stage:"preflight.tree"
            ?subject message
          :: !ds)
      fmt
  in
  let n = Array.length nodes in
  if n = 0 then add "empty node array";
  let in_range id = id >= 0 && id < n in
  Array.iteri
    (fun i (nd : Tree.node) ->
      let subject = node_subject nd.Tree.id in
      if nd.Tree.id <> i then
        add ~subject "id %d does not match its array index %d" nd.Tree.id i;
      (match nd.Tree.parent with
      | Some p when not (in_range p) ->
        add ~subject "dangling parent id %d (tree has %d nodes)" p n
      | Some p when p = nd.Tree.id -> add ~subject "node is its own parent"
      | Some p ->
        let listed =
          in_range nd.Tree.id && List.mem nd.Tree.id nodes.(p).Tree.children
        in
        if not listed then
          add ~subject "parent %d does not list it as a child" p
      | None -> ());
      List.iter
        (fun c ->
          if not (in_range c) then
            add ~subject "dangling child id %d (tree has %d nodes)" c n
          else if nodes.(c).Tree.parent <> Some nd.Tree.id then
            add ~subject "child %d does not point back to it as parent" c)
        nd.Tree.children;
      (match nd.Tree.kind with
      | Tree.Leaf ->
        if nd.Tree.children <> [] then
          add ~subject "leaf has %d children" (List.length nd.Tree.children);
        if not (nd.Tree.sink_cap > 0.0) then
          add ~subject "leaf sink capacitance %g fF is not positive"
            nd.Tree.sink_cap
      | Tree.Internal ->
        if nd.Tree.children = [] then add ~subject "internal node has no children";
        if nd.Tree.sink_cap <> 0.0 then
          add ~subject "internal node has sink capacitance %g fF (must be 0)"
            nd.Tree.sink_cap);
      if not (Float.is_finite nd.Tree.x && Float.is_finite nd.Tree.y) then
        add ~subject "non-finite placement (%g, %g)" nd.Tree.x nd.Tree.y;
      let w = nd.Tree.wire in
      if
        not
          (w.Repro_clocktree.Wire.length >= 0.0
          && w.Repro_clocktree.Wire.res >= 0.0
          && w.Repro_clocktree.Wire.cap >= 0.0)
      then
        add ~subject "negative wire RC (length %g um, %g kOhm, %g fF)"
          w.Repro_clocktree.Wire.length w.Repro_clocktree.Wire.res
          w.Repro_clocktree.Wire.cap)
    nodes;
  let roots =
    Array.to_list nodes
    |> List.filter (fun (nd : Tree.node) -> nd.Tree.parent = None)
    |> List.map (fun (nd : Tree.node) -> nd.Tree.id)
  in
  (match roots with
  | [] when n > 0 -> add "no root node (every node has a parent)"
  | [ _ ] | [] -> ()
  | ids ->
    add "%d root nodes (%s); a tree has exactly one" (List.length ids)
      (String.concat ", " (List.map string_of_int ids)));
  (* Reachability: with one root and locally-consistent pointers, any
     unreachable node indicates a parent cycle off the main tree. *)
  (match roots with
  | [ root ] ->
    let seen = Array.make n false in
    let rec visit id =
      if in_range id && not seen.(id) then begin
        seen.(id) <- true;
        List.iter visit nodes.(id).Tree.children
      end
    in
    visit root;
    Array.iteri
      (fun id reached ->
        if not reached then
          add ~subject:(node_subject id)
            "unreachable from root %d (parent cycle?)" root)
      seen
  | _ -> ());
  List.rev !ds

let check_tree tree = check_nodes (Tree.nodes tree)

let check_library cells =
  let ds = ref [] in
  let add ?subject ?hints fmt =
    Printf.ksprintf
      (fun message ->
        ds :=
          Verrors.make ~code:Verrors.Invalid_library
            ~stage:"preflight.library" ?subject ?hints message
          :: !ds)
      fmt
  in
  if cells = [] then add "empty cell library"
  else begin
    (* Distinct cells sharing a name would alias in caches and printed
       libraries. *)
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun (c : Cell.t) ->
        (match Hashtbl.find_opt by_name c.Cell.name with
        | Some prev when prev != c && Stdlib.compare prev c <> 0 ->
          add ~subject:c.Cell.name
            "two distinct cells share the name %s" c.Cell.name
        | _ -> ());
        Hashtbl.replace by_name c.Cell.name c)
      cells;
    let has pol = List.exists (fun c -> Cell.polarity c = pol) cells in
    if not (has Cell.Positive) then
      add
        ~hints:[ "add a buffer or adjustable_buffer cell" ]
        "no positive-polarity cell (buffer/ADB) in the library";
    if not (has Cell.Negative) then
      add
        ~hints:
          [ "add an inverter or adjustable_inverter cell; polarity \
             assignment is vacuous without one" ]
        "no negative-polarity cell (inverter/ADI) in the library"
  end;
  List.rev !ds

let check_params (p : Context.params) =
  let ds = ref [] in
  let add ?hints fmt =
    Printf.ksprintf
      (fun message ->
        ds :=
          Verrors.make ~code:Verrors.Invalid_params ~stage:"preflight.params"
            ?hints message
          :: !ds)
      fmt
  in
  if not (p.Context.kappa > 0.0) then
    add "kappa %g ps is not positive" p.Context.kappa;
  if not (p.Context.epsilon >= 0.0) then
    add "epsilon %g is negative" p.Context.epsilon;
  if p.Context.num_slots < 1 then
    add "num_slots %d is below 1" p.Context.num_slots;
  if not (p.Context.zone_side > 0.0) then
    add "zone_side %g um is not positive" p.Context.zone_side;
  if p.Context.max_labels < 1 then
    add "max_labels %d is below 1" p.Context.max_labels;
  if not (p.Context.coalesce >= 0.0) then
    add "coalesce %g ps is negative" p.Context.coalesce;
  if p.Context.max_interval_classes < 1 then
    add "max_interval_classes %d is below 1" p.Context.max_interval_classes;
  if not (p.Context.sibling_guard >= 0.0) then
    add "sibling_guard %g ps is negative" p.Context.sibling_guard;
  if
    p.Context.kappa > 0.0
    && p.Context.sibling_guard >= 0.0
    && p.Context.kappa -. p.Context.sibling_guard < 1.0
  then
    add
      ~hints:
        [ "raise kappa or lower sibling_guard so their difference is at \
           least 1 ps" ]
      "sibling_guard %g ps leaves an effective skew window below 1 ps \
       (kappa %g ps); the solver clamps it to 1 ps"
      p.Context.sibling_guard p.Context.kappa;
  List.rev !ds

let check_modes (envs : Timing.env array) =
  let ds = ref [] in
  let add ?subject fmt =
    Printf.ksprintf
      (fun message ->
        ds :=
          Verrors.make ~code:Verrors.Invalid_modes ~stage:"preflight.modes"
            ?subject message
          :: !ds)
      fmt
  in
  if Array.length envs = 0 then add "no power modes";
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun i env ->
      let subject = Printf.sprintf "mode %d" i in
      if env.Timing.mode <> i then
        add ~subject "env.mode %d does not match its array index %d"
          env.Timing.mode i;
      (match Hashtbl.find_opt seen env.Timing.mode with
      | Some j ->
        add ~subject "duplicate mode id %d (also used at index %d)"
          env.Timing.mode j
      | None -> Hashtbl.add seen env.Timing.mode i);
      if not (env.Timing.source_slew > 0.0) then
        add ~subject "source slew %g ps is not positive" env.Timing.source_slew)
    envs;
  List.rev !ds

let check_feasibility ?(params = Context.default_params) tree ~cells =
  match
    Verrors.guard ~stage:"preflight.feasibility" (fun () ->
        let ds = ref [] in
        let zones = Zones.partition tree ~side:params.Context.zone_side in
        if Zones.num_zones zones = 0 then
          ds :=
            Verrors.make ~code:Verrors.Empty_zones
              ~stage:"preflight.feasibility"
              (Printf.sprintf
                 "zone partitioning (side %g um) produced no zone with \
                  leaves"
                 params.Context.zone_side)
            :: !ds;
        let env = Timing.nominal () in
        let base = Assignment.default tree ~num_modes:1 in
        let timing = Timing.analyze tree base env ~edge:Repro_cell.Electrical.Rising in
        let sinks = Intervals.collect tree base env timing ~cells in
        (match
           Intervals.feasible_intervals ~coalesce:params.Context.coalesce
             sinks ~kappa:(Context.effective_kappa params)
         with
        | _ :: _ -> ()
        | [] ->
          ds :=
            Context.infeasible_window params ~stage:"preflight.feasibility"
              (Context.Validate sinks)
            :: !ds);
        List.rev !ds)
  with
  | Ok ds -> ds
  | Error e -> [ e ]

let check ?params ?envs tree ~cells =
  let structural =
    check_tree tree @ check_library cells
    @ (match params with
      | Some p -> check_params p
      | None -> [])
    @ (match envs with Some e -> check_modes e | None -> [])
  in
  (* Feasibility evaluates the inputs, so only attempt it on inputs the
     cheap checks accepted. *)
  if structural <> [] then structural
  else check_feasibility ?params tree ~cells

let result = function [] -> Ok () | ds -> Error ds

let to_string = function
  | [] -> "preflight: ok"
  | ds -> String.concat "\n" (List.map Verrors.to_string ds)
