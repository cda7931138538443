module Metrics = Repro_obs.Metrics
module Trace = Repro_obs.Trace
module Budget = Repro_obs.Budget
module Flight = Repro_obs.Flight

module Log = (val Logs.src_log (Repro_obs.Log.src "wavemin.warburton"))

(* Registered once at module init so the instruments always appear in a
   metrics dump, even at zero. *)
let labels_per_row_h = Metrics.histogram "warburton.labels_per_row"
let labels_pruned_c = Metrics.counter "warburton.labels_pruned"
let labels_capped_c = Metrics.counter "warburton.labels_capped"
let grid_delta_h = Metrics.histogram "warburton.grid_delta"
let solves_c = Metrics.counter "warburton.solves"

(* minima.(i).(k): the smallest component k among row i's options. *)
let row_minima rows dim =
  Array.map
    (fun row ->
      Array.init dim (fun k ->
          Array.fold_left (fun acc w -> Float.min acc w.(k)) infinity row))
    rows

(* One warning per process: the first truncation anywhere is loud, every
   later one (often thousands across a sweep) drops to debug.  Zone
   solves run in parallel, so the flag is claimed with a
   compare-and-set and exactly one of them logs the warning. *)
let cap_warned = Atomic.make false

let warn_cap ~row ~dropped ~total ~max_labels =
  Metrics.incr ~by:dropped labels_capped_c;
  if Atomic.compare_and_set cap_warned false true then
    Log.warn (fun m ->
        m
          "label cap hit at row %d: dropped %d of %d labels \
           (max_labels = %d); the solution is approximate beyond the \
           epsilon guarantee"
          row dropped total max_labels)
  else
    Log.debug (fun m ->
        m "label cap hit at row %d: dropped %d of %d labels" row dropped total)

(* ε-grid coordinate of cost [c] in an objective of cell size [dlt]; an
   objective with a zero cell size is keyed by the exact bits of [c].
   Two labels share a cell when all their coordinates are equal. *)
let[@inline] grid_coord c dlt =
  if dlt <= 0.0 then Int64.bits_of_float c
  else Int64.of_float (floor (c /. dlt))

(* A label's cell hash mixes one key per objective: the coordinate
   itself where the cell size is positive, and any function of the cost
   where it is zero (equal bits give equal costs).  The extension loop
   computes the keys inline: for a quotient in [0, 2^62) truncation
   equals [floor], and no C call ([floor], the int64 conversions) is
   made.  A label with a quotient outside that range is rehashed by
   [cell_hash], which takes the same keys through [grid_coord]. *)
let[@inline] mix_hash h key = (h lxor key) * 0x100000001b3

let[@inline] zero_size_key c = int_of_float (c *. 0x1p40)

let cell_hash costs deltas dim o =
  let h = ref 0 in
  for d = 0 to dim - 1 do
    let c = costs.(o + d) and dlt = deltas.(d) in
    let key =
      if dlt > 0.0 then Int64.to_int (grid_coord c dlt) else zero_size_key c
    in
    h := mix_hash !h key
  done;
  !h

(* Whether the labels at offsets [oi] and [oj] of [costs] lie in the same
   grid cell, comparing coordinates from component [d] on. *)
let rec same_cell costs deltas dim oi oj d =
  d >= dim
  || (let dlt = deltas.(d) in
      Int64.equal (grid_coord costs.(oi + d) dlt) (grid_coord costs.(oj + d) dlt)
      && same_cell costs deltas dim oi oj (d + 1))

(* Sorts [idx.(lo .. hi-1)] by increasing [proj], ties by increasing
   index — the cap's rank order.  The key is a strict total order
   ([Float.compare] on the projection, then the distinct indices), so
   the result is the unique sorted order, whatever the algorithm.
   Merge sort through the reusable [tmp]; no allocation. *)
let[@inline] ranks_before proj a b =
  let pa = proj.(a) and pb = proj.(b) in
  if pa < pb then true
  else if pa > pb then false
  else if pa = pb then a < b
  else match Float.compare pa pb with 0 -> a < b | c -> c < 0

let rec sort_by_projection proj idx tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_by_projection proj idx tmp lo mid;
    sort_by_projection proj idx tmp mid hi;
    (* Merge tmp.(lo .. mid-1) with idx.(mid .. hi-1) into idx from lo;
       the write position never passes the right-hand read. *)
    Array.blit idx lo tmp lo (mid - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !i < mid && (!j >= hi || not (ranks_before proj idx.(!j) tmp.(!i))) then begin
        idx.(k) <- tmp.(!i);
        incr i
      end
      else begin
        idx.(k) <- idx.(!j);
        incr j
      end
    done
  end

(* The per-extension buffers and the frontier costs outlive a solve:
   each solve takes a set from a shared free list (or starts an empty
   one), grows it as it needs and hands it back, so a pass over many
   zones allocates them once per concurrent solve, not once per solve.
   Pushes allocate a fresh cons, so the compare-and-set stack has no ABA
   problem. *)
type scratch = {
  mutable costs : float array;  (** Extended labels, [n * dim]. *)
  mutable maxes : float array;
  mutable proj : float array;
  mutable hashes : int array;
  mutable choice : int array;
  mutable parent : int array;
  mutable surv : int array;
  mutable tmp : int array;
  mutable table : int array;
  mutable frontier : float array;  (** Surviving labels, [n * dim]. *)
}

let free_scratch : scratch list Atomic.t = Atomic.make []

let rec take_scratch () =
  match Atomic.get free_scratch with
  | [] ->
    { costs = [||]; maxes = [||]; proj = [||]; hashes = [||]; choice = [||];
      parent = [||]; surv = [||]; tmp = [||]; table = [||]; frontier = [||] }
  | s :: rest as all ->
    if Atomic.compare_and_set free_scratch all rest then s else take_scratch ()

let rec release_scratch s =
  let all = Atomic.get free_scratch in
  if not (Atomic.compare_and_set free_scratch all (s :: all)) then
    release_scratch s

let pareto_paths_capped ?(epsilon = 0.01) ?(max_labels = 20_000) graph =
  if epsilon < 0.0 then invalid_arg "Warburton.pareto_paths: epsilon < 0";
  if max_labels < 1 then invalid_arg "Warburton.pareto_paths: max_labels < 1";
  Metrics.incr solves_c;
  let rows = Layered.options graph in
  let dim = Layered.dimension graph in
  Trace.with_span ~name:"warburton.pareto_paths"
    ~attrs:
      [ ("rows", string_of_int (Array.length rows));
        ("dim", string_of_int dim) ]
  @@ fun () ->
  let num_rows = Array.length rows in
  let minima = row_minima rows dim in
  (* suffix_min.(i).(k): sum over rows i.. of the row-wise component
     minima, plus the dest weight — a lower bound on what any completion
     adds in component k after the first i rows are fixed.  When the
     label set must be truncated, labels are ranked by this admissible
     projection of the final min-max objective (current cost plus the
     suffix bound, max over components): a purely myopic rank (current
     max component) keeps prefixes that cannot complete well. *)
  let suffix_min = Array.make (num_rows + 1) (Layered.dest_weight graph) in
  for i = num_rows - 1 downto 0 do
    suffix_min.(i) <- Array.mapi (fun k v -> v +. minima.(i).(k)) suffix_min.(i + 1)
  done;
  (* Grid cell sizes: ε·LB_k/(R+1), LB_k the dest weight plus the
     row-wise minima summed in row order. *)
  let deltas =
    if epsilon = 0.0 then Array.make dim 0.0
    else begin
      let lb = Array.copy (Layered.dest_weight graph) in
      Array.iter (Array.iteri (fun k m -> lb.(k) <- lb.(k) +. m)) minima;
      Array.map (fun l -> epsilon *. l /. float_of_int (num_rows + 1)) lb
    end
  in
  Array.iter (fun d -> Metrics.observe grid_delta_h d) deltas;
  (* The frontier lives in flat scratch buffers: costs are a
     [count * dim] float array (one row-major block per label), choice
     prefixes are persistent lists shared parent-to-child.  Each row
     extends the frontier into per-extension buffers (costs, cached max,
     cap projection, grid-cell hash, choice, parent), prunes and caps
     through an index array of survivors, and copies them back.  The
     buffers come from the scratch free list and are grown
     geometrically, so a row allocates nothing per label beyond the
     survivors' choice cons cells. *)
  let hashing = not (Array.for_all (fun d -> d <= 0.0) deltas) in
  let sc = take_scratch () in
  let cur_choices = ref [| [] |] in
  let next_choices = ref [||] in
  let cur_n = ref 1 in
  if Array.length sc.frontier < dim then sc.frontier <- Array.make dim 0.0
  else Array.fill sc.frontier 0 dim 0.0;
  let ensure_ext n =
    if Array.length sc.maxes < n then begin
      let cap = max n (2 * Array.length sc.maxes) in
      sc.maxes <- Array.make cap 0.0;
      sc.proj <- Array.make cap 0.0;
      sc.hashes <- Array.make cap 0;
      sc.choice <- Array.make cap 0;
      sc.parent <- Array.make cap 0;
      sc.surv <- Array.make cap 0;
      sc.tmp <- Array.make cap 0
    end;
    if Array.length sc.costs < n * dim then
      sc.costs <- Array.make (max (n * dim) (2 * Array.length sc.costs)) 0.0
  in
  let any_capped = ref false in
  let step row_index row =
    (* Cooperative cancellation: a no-op atomic load unless an ambient
       budget is installed, in which case exhaustion raises
       [Budget_exhausted] here — between rows — so partial extension
       state never escapes. *)
    Budget.check_current ();
    let k_row = Array.length row in
    let n_ext = !cur_n * k_row in
    ensure_ext n_ext;
    Budget.charge_labels_current n_ext;
    let costs = sc.costs
    and maxes = sc.maxes
    and proj = sc.proj
    and hashes = sc.hashes
    and choice = sc.choice
    and parent = sc.parent
    and surv = sc.surv
    and cc = sc.frontier in
    let remaining = suffix_min.(row_index + 1) in
    (* Extension: label-major, choice-minor — the same enumeration order
       as the old list-based concat_map.  One pass per extended label
       writes its cost and accumulates its max component, its cap
       projection (cost plus the suffix bound) and the hash of its grid
       coordinates. *)
    let pos = ref 0 in
    for li = 0 to !cur_n - 1 do
      let base = li * dim in
      for c = 0 to k_row - 1 do
        let w = row.(c) in
        let o = !pos * dim in
        let m = ref 0.0 and p = ref 0.0 and h = ref 0 and inline = ref true in
        for d = 0 to dim - 1 do
          let v = cc.(base + d) +. w.(d) in
          costs.(o + d) <- v;
          if v > !m then m := v;
          let q = v +. remaining.(d) in
          if q > !p then p := q;
          if hashing then begin
            let dlt = deltas.(d) in
            if dlt > 0.0 then begin
              let x = v /. dlt in
              if x >= 0.0 && x < 0x1p62 then h := mix_hash !h (int_of_float x)
              else inline := false
            end
            else h := mix_hash !h (zero_size_key v)
          end
        done;
        maxes.(!pos) <- !m;
        proj.(!pos) <- !p;
        hashes.(!pos) <- (if !inline then !h else cell_hash costs deltas dim o);
        choice.(!pos) <- c;
        parent.(!pos) <- li;
        incr pos
      done
    done;
    (* ε-grid prune into [surv]: per cell the label with the smallest
       cached max survives, first-seen winning ties, and survivors keep
       the order in which their cells were first seen.  A probe compares
       the stored hash first and recomputes grid coordinates from the
       stored costs only on a hash match. *)
    let n =
      if not hashing then begin
        for i = 0 to n_ext - 1 do
          surv.(i) <- i
        done;
        n_ext
      end
      else begin
        let size = ref 1 in
        while !size < 2 * n_ext do
          size := 2 * !size
        done;
        if Array.length sc.table < !size then sc.table <- Array.make !size (-1)
        else Array.fill sc.table 0 !size (-1);
        let tbl = sc.table and mask = !size - 1 in
        let cells = ref 0 in
        for i = 0 to n_ext - 1 do
          let h = hashes.(i) in
          let s = ref ((h lxor (h lsr 32)) land mask) in
          let probing = ref true in
          while !probing do
            let cell = tbl.(!s) in
            if cell < 0 then begin
              tbl.(!s) <- !cells;
              surv.(!cells) <- i;
              incr cells;
              probing := false
            end
            else begin
              let j = surv.(cell) in
              if hashes.(j) = h && same_cell costs deltas dim (j * dim) (i * dim) 0
              then begin
                if not (maxes.(j) <= maxes.(i)) then surv.(cell) <- i;
                probing := false
              end
              else s := (!s + 1) land mask
            end
          done
        done;
        !cells
      end
    in
    (* Dominance pruning is quadratic and prunes little in high
       dimension; apply it only where it pays (small sets, few
       objectives) and lean on the ε-grid and the cap otherwise.  The
       cached max gives an O(1) early reject: a label can only dominate
       one whose max is no smaller.  The kept set is compacted into the
       front of [surv]: it never outgrows the prefix already read. *)
    let n =
      if not (dim <= 8 && n <= 256) then n
      else begin
        let dominates i j =
          let oi = i * dim and oj = j * dim in
          let rec go d =
            d >= dim || (costs.(oi + d) <= costs.(oj + d) && go (d + 1))
          in
          go 0
        in
        let kept_n = ref 0 in
        for r = 0 to n - 1 do
          let i = surv.(r) in
          let dominated = ref false in
          let q = ref 0 in
          while (not !dominated) && !q < !kept_n do
            let kl = surv.(!q) in
            if maxes.(kl) <= maxes.(i) && dominates kl i then
              dominated := true;
            incr q
          done;
          if not !dominated then begin
            let w = ref 0 in
            for q = 0 to !kept_n - 1 do
              let kl = surv.(q) in
              if not (maxes.(i) <= maxes.(kl) && dominates i kl) then begin
                surv.(!w) <- kl;
                incr w
              end
            done;
            kept_n := !w;
            surv.(!kept_n) <- i;
            incr kept_n
          end
        done;
        !kept_n
      end
    in
    let pruned_row = n_ext - n in
    Metrics.incr ~by:pruned_row labels_pruned_c;
    (* Admissible-projection cap: the [max_labels] survivors with the
       smallest projection are kept in rank order; equal projections
       break by extension index so the truncation is deterministic. *)
    let capped_row = ref 0 in
    let n =
      if n <= max_labels then n
      else begin
        warn_cap ~row:row_index ~dropped:(n - max_labels) ~total:n
          ~max_labels;
        capped_row := n - max_labels;
        any_capped := true;
        sort_by_projection proj surv sc.tmp 0 n;
        max_labels
      end
    in
    Metrics.observe labels_per_row_h (float_of_int n);
    if Flight.enabled () then
      Flight.record
        (Flight.Label_row
           { row = row_index;
             extended = n_ext;
             kept = n;
             pruned = pruned_row;
             capped = !capped_row });
    (* Commit survivors to the current-frontier buffers; the choice
       arrays alternate between two buffers. *)
    let old_choices = !cur_choices in
    if Array.length sc.frontier < n * dim then
      sc.frontier <- Array.make (max (n * dim) (2 * Array.length sc.frontier)) 0.0;
    if Array.length !next_choices < n then
      next_choices := Array.make (max n (2 * Array.length !next_choices)) [];
    let ncc = sc.frontier and nch = !next_choices in
    for r = 0 to n - 1 do
      let i = surv.(r) in
      Array.blit costs (i * dim) ncc (r * dim) dim;
      nch.(r) <- choice.(i) :: old_choices.(parent.(i))
    done;
    next_choices := old_choices;
    cur_choices := nch;
    cur_n := n
  in
  let with_dest =
    Fun.protect ~finally:(fun () -> release_scratch sc) @@ fun () ->
    Array.iteri step rows;
    let dest = Layered.dest_weight graph in
    List.init !cur_n (fun i ->
        let cost = Array.sub sc.frontier (i * dim) dim in
        for d = 0 to dim - 1 do
          cost.(d) <- cost.(d) +. dest.(d)
        done;
        { Pareto.cost; choices_rev = (!cur_choices).(i) })
  in
  let result =
    if dim <= 8 && List.length with_dest <= 256 then
      Pareto.non_dominated with_dest
    else with_dest
  in
  (result, !any_capped)

let pareto_paths ?epsilon ?max_labels graph =
  fst (pareto_paths_capped ?epsilon ?max_labels graph)

type solution = {
  choices : int array;
  cost : float array;
  objective : float;
  capped : bool;
}

let label_to_solution graph ~capped (l : Pareto.label) =
  let choices = Array.of_list (List.rev l.Pareto.choices_rev) in
  ignore graph;
  {
    choices;
    cost = l.Pareto.cost;
    objective = Pareto.max_component l;
    capped;
  }

let solve_min_max ?epsilon ?max_labels graph =
  let paths, capped = pareto_paths_capped ?epsilon ?max_labels graph in
  match Pareto.best_min_max paths with
  | Some best -> label_to_solution graph ~capped best
  | None ->
    (* A layered graph always has at least one path (rows are
       non-empty). *)
    assert false

let exhaustive_min_max graph =
  let rows = Layered.options graph in
  let num_paths =
    Array.fold_left (fun acc row -> acc * Array.length row) 1 rows
  in
  if num_paths > 1_000_000 then
    invalid_arg "Warburton.exhaustive_min_max: too many paths";
  let num_rows = Array.length rows in
  let best = ref None in
  let choices = Array.make num_rows 0 in
  let rec go row =
    if row = num_rows then begin
      let cost = Layered.path_cost graph ~choices in
      let objective = Array.fold_left Float.max 0.0 cost in
      match !best with
      | Some (_, _, o) when o <= objective -> ()
      | Some _ | None -> best := Some (Array.copy choices, cost, objective)
    end
    else
      for c = 0 to Array.length rows.(row) - 1 do
        choices.(row) <- c;
        go (row + 1)
      done
  in
  go 0;
  match !best with
  | Some (choices, cost, objective) ->
    { choices; cost; objective; capped = false }
  | None ->
    (* num_rows = 0: the single src->dest path. *)
    let cost = Array.copy (Layered.dest_weight graph) in
    {
      choices = [||];
      cost;
      objective = Array.fold_left Float.max 0.0 cost;
      capped = false;
    }
