type t = { times : float array; values : float array }

let zero = { times = [||]; values = [||] }

let create points =
  let sorted = List.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) points in
  let rec check = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
      if t1 = t2 then invalid_arg "Pwl.create: duplicate breakpoint time";
      check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  { times = Array.of_list (List.map fst sorted);
    values = Array.of_list (List.map snd sorted) }

let triangle ~start ~peak_time ~finish ~height =
  if not (start < peak_time && peak_time < finish) then
    invalid_arg "Pwl.triangle: requires start < peak_time < finish";
  create [ (start, 0.0); (peak_time, height); (finish, 0.0) ]

(* Index of the last breakpoint <= x, or -1 when x precedes them all. *)
let find_segment times x =
  let n = Array.length times in
  if n = 0 || x < times.(0) then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if times.(mid) <= x then lo := mid else hi := mid - 1
    done;
    !lo
  end

let eval w x =
  let n = Array.length w.times in
  if n = 0 then 0.0
  else
    let i = find_segment w.times x in
    if i < 0 || x > w.times.(n - 1) then 0.0
    else if i = n - 1 then w.values.(n - 1)
    else
      let t0 = w.times.(i) and t1 = w.times.(i + 1) in
      let v0 = w.values.(i) and v1 = w.values.(i + 1) in
      v0 +. ((v1 -. v0) *. (x -. t0) /. (t1 -. t0))

let shift w dt =
  { w with times = Array.map (fun t -> t +. dt) w.times }

let scale w k = { w with values = Array.map (fun v -> v *. k) w.values }

(* Merge two sorted time arrays, dropping duplicates. *)
let merge_times a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0.0 in
  let rec go i j k last =
    if i = na && j = nb then k
    else
      let pick_a = j = nb || (i < na && a.(i) <= b.(j)) in
      let x = if pick_a then a.(i) else b.(j) in
      let i' = if pick_a then i + 1 else i in
      let j' = if pick_a then j else j + 1 in
      match last with
      | Some prev when prev = x -> go i' j' k last
      | Some _ | None ->
        out.(k) <- x;
        go i' j' (k + 1) (Some x)
  in
  let k = go 0 0 0 None in
  Array.sub out 0 k

let add w1 w2 =
  if Array.length w1.times = 0 then w2
  else if Array.length w2.times = 0 then w1
  else
    let times = merge_times w1.times w2.times in
    let values = Array.map (fun t -> eval w1 t +. eval w2 t) times in
    { times; values }

let sum ws =
  (* Balanced pairwise reduction keeps the breakpoint merging O(n log n)
     in the total number of breakpoints instead of O(n^2). *)
  let rec reduce = function
    | [] -> zero
    | [ w ] -> w
    | ws ->
      let rec pair = function
        | a :: b :: rest -> add a b :: pair rest
        | ([ _ ] | []) as tail -> tail
      in
      reduce (pair ws)
  in
  reduce ws

let peak w = Repro_util.Floats.fold_max 0.0 w.values

let peak_time w =
  let best = ref 0.0 and best_t = ref 0.0 in
  Array.iteri
    (fun i v ->
      if v > !best then begin
        best := v;
        best_t := w.times.(i)
      end)
    w.values;
  !best_t

let area w =
  let n = Array.length w.times in
  let acc = ref 0.0 in
  for i = 0 to n - 2 do
    let dt = w.times.(i + 1) -. w.times.(i) in
    acc := !acc +. (0.5 *. (w.values.(i) +. w.values.(i + 1)) *. dt)
  done;
  !acc

let support w =
  let n = Array.length w.times in
  if n = 0 then None else Some (w.times.(0), w.times.(n - 1))

let breakpoints w =
  Array.to_list (Array.mapi (fun i t -> (t, w.values.(i))) w.times)

let sample w ~times = Array.map (eval w) times

let sample_into ?(shift = 0.0) w ~times ~into =
  let n = Array.length times in
  if Array.length into <> n then
    invalid_arg "Pwl.sample_into: length mismatch";
  for i = 0 to n - 1 do
    into.(i) <- eval w (times.(i) -. shift)
  done

let add_into ?(shift = 0.0) w ~times ~into =
  let n = Array.length times in
  if Array.length into <> n then invalid_arg "Pwl.add_into: length mismatch";
  for i = 0 to n - 1 do
    into.(i) <- into.(i) +. eval w (times.(i) -. shift)
  done

let sub_into ?(shift = 0.0) w ~times ~into =
  let n = Array.length times in
  if Array.length into <> n then invalid_arg "Pwl.sub_into: length mismatch";
  for i = 0 to n - 1 do
    into.(i) <- into.(i) -. eval w (times.(i) -. shift)
  done

let peak2 a b =
  (* Peak of the pointwise sum without materializing [add a b]: walk the
     union of breakpoints with two cursors (the maximum of a PWL sum is
     attained at a breakpoint of either operand). *)
  let na = Array.length a.times and nb = Array.length b.times in
  if na = 0 then peak b
  else if nb = 0 then peak a
  else begin
    let best = ref 0.0 in
    let i = ref 0 and j = ref 0 in
    while !i < na || !j < nb do
      let t =
        if !j >= nb then a.times.(!i)
        else if !i >= na then b.times.(!j)
        else Float.min a.times.(!i) b.times.(!j)
      in
      let v = eval a t +. eval b t in
      if v > !best then best := v;
      while !i < na && a.times.(!i) <= t do incr i done;
      while !j < nb && b.times.(!j) <= t do incr j done
    done;
    !best
  end

let equal ?(eps = 1e-9) w1 w2 =
  let times = merge_times w1.times w2.times in
  Array.for_all (fun t -> Float.abs (eval w1 t -. eval w2 t) <= eps) times

let pp fmt w =
  Format.fprintf fmt "@[<hov 2>pwl[";
  Array.iteri
    (fun i t -> Format.fprintf fmt "@ (%g, %g)" t w.values.(i))
    w.times;
  Format.fprintf fmt "]@]"
