module Cell = Repro_cell.Cell
module Library = Repro_cell.Library

let to_dot ?assignment tree =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph clock_tree {\n  rankdir=TB;\n";
  Array.iter
    (fun nd ->
      let cell =
        match assignment with
        | Some asg -> Assignment.cell asg nd.Tree.id
        | None -> nd.Tree.default_cell
      in
      (match nd.Tree.kind with
      | Tree.Leaf ->
        let fill =
          match Cell.polarity cell with
          | Cell.Negative -> ", style=filled, fillcolor=lightgrey"
          | Cell.Positive -> ""
        in
        Buffer.add_string b
          (Printf.sprintf
             "  n%d [shape=box, label=\"%d: %s\\n%.1f fF\"%s];\n" nd.Tree.id
             nd.Tree.id cell.Cell.name nd.Tree.sink_cap fill)
      | Tree.Internal ->
        Buffer.add_string b
          (Printf.sprintf "  n%d [label=\"%d: %s\"];\n" nd.Tree.id nd.Tree.id
             cell.Cell.name));
      match nd.Tree.parent with
      | None -> ()
      | Some p ->
        Buffer.add_string b
          (Printf.sprintf "  n%d -> n%d [label=\"%.0f um\"];\n" p nd.Tree.id
             nd.Tree.wire.Wire.length))
    (Tree.nodes tree);
  Buffer.add_string b "}\n";
  Buffer.contents b

let header = "# id parent kind x y wire_len sink_cap cell"

let to_table tree =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  let f = Repro_util.Floats.shortest_string in
  Array.iter
    (fun nd ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %s %s %s %s %s %s\n" nd.Tree.id
           (match nd.Tree.parent with Some p -> p | None -> -1)
           (match nd.Tree.kind with Tree.Leaf -> "leaf" | Tree.Internal -> "internal")
           (f nd.Tree.x) (f nd.Tree.y) (f nd.Tree.wire.Wire.length)
           (f nd.Tree.sink_cap) nd.Tree.default_cell.Cell.name))
    (Tree.nodes tree);
  Buffer.contents b

let of_table input =
  let lines =
    String.split_on_char '\n' input
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) ->
           String.length l > 0 && not (String.length l > 0 && l.[0] = '#'))
  in
  let parse_line (lineno, line) =
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ id; parent; kind; x; y; wire_len; sink_cap; cell ] -> (
      try
        let parent = int_of_string parent in
        Ok
          ( int_of_string id,
            (if parent < 0 then None else Some parent),
            (match kind with
            | "leaf" -> Tree.Leaf
            | "internal" -> Tree.Internal
            | _ -> failwith "bad kind"),
            float_of_string x,
            float_of_string y,
            float_of_string wire_len,
            float_of_string sink_cap,
            Library.find cell )
      with
      | Not_found -> Error (Printf.sprintf "line %d: unknown cell" lineno)
      | Failure _ -> Error (Printf.sprintf "line %d: malformed field" lineno))
    | _ -> Error (Printf.sprintf "line %d: expected 8 fields" lineno)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
      match parse_line l with
      | Ok row -> collect (row :: acc) rest
      | Error _ as e -> e)
  in
  match collect [] lines with
  | Error e -> Error e
  | Ok rows ->
    let rows =
      List.sort
        (fun (a, _, _, _, _, _, _, _) (b, _, _, _, _, _, _, _) -> compare a b)
        rows
    in
    let n = List.length rows in
    let contiguous =
      List.for_all2
        (fun (id, _, _, _, _, _, _, _) expected -> id = expected)
        rows
        (List.init n (fun i -> i))
    in
    if not contiguous then Error "node ids must be exactly 0..n-1"
    else begin
    let children = Array.make n [] in
    List.iter
      (fun (id, parent, _, _, _, _, _, _) ->
        match parent with
        | Some p when p >= 0 && p < n -> children.(p) <- id :: children.(p)
        | Some _ -> ()
        | None -> ())
      rows;
    let nodes =
      List.map
        (fun (id, parent, kind, x, y, wire_len, sink_cap, cell) ->
          {
            Tree.id;
            parent;
            children = List.rev children.(id);
            kind;
            x;
            y;
            wire = Wire.of_length wire_len;
            sink_cap;
            default_cell = cell;
          })
        rows
    in
    (try Ok (Tree.create (Array.of_list nodes))
     with Invalid_argument msg -> Error msg)
    end

let save_file path tree =
  let oc = open_out path in
  output_string oc (to_table tree);
  close_out oc

let load_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  of_table contents
