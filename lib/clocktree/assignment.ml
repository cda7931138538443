module Cell = Repro_cell.Cell

type t = {
  cells : Cell.t array;
  extra : float array array; (* extra.(mode).(node) *)
}

let default tree ~num_modes =
  if num_modes < 1 then invalid_arg "Assignment.default: num_modes < 1";
  let n = Tree.size tree in
  {
    cells = Array.map (fun nd -> nd.Tree.default_cell) (Tree.nodes tree);
    extra = Array.init num_modes (fun _ -> Array.make n 0.0);
  }

let num_modes t = Array.length t.extra

let cell t id = t.cells.(id)

let extra_delay t ~mode id =
  if mode < 0 || mode >= num_modes t then
    invalid_arg "Assignment.extra_delay: bad mode";
  t.extra.(mode).(id)

let set_cell t id new_cell =
  let cells = Array.copy t.cells in
  cells.(id) <- new_cell;
  let extra =
    Array.map
      (fun row ->
        let row = Array.copy row in
        row.(id) <- 0.0;
        row)
      t.extra
  in
  { cells; extra }

let set_extra_delay t ~mode id value =
  if mode < 0 || mode >= num_modes t then
    invalid_arg "Assignment.set_extra_delay: bad mode";
  let c = t.cells.(id) in
  if not (Cell.is_adjustable c) then
    invalid_arg "Assignment.set_extra_delay: cell is not adjustable";
  if not (Array.exists (fun s -> s = value) c.Cell.delay_steps) then
    invalid_arg "Assignment.set_extra_delay: value not in delay steps";
  let extra =
    Array.mapi
      (fun m row ->
        if m = mode then begin
          let row = Array.copy row in
          row.(id) <- value;
          row
        end
        else row)
      t.extra
  in
  { t with extra }

let count_leaves t tree ~pred =
  Array.fold_left
    (fun acc nd -> if pred t.cells.(nd.Tree.id) then acc + 1 else acc)
    0 (Tree.leaves tree)

let leaf_cells t tree =
  Array.map (fun nd -> (nd.Tree.id, t.cells.(nd.Tree.id))) (Tree.leaves tree)

