type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards MRU *)
  mutable next : 'a node option;  (* towards LRU *)
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* MRU *)
  mutable tail : 'a node option;  (* LRU *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { cap = capacity; table = Hashtbl.create 16; head = None; tail = None }

let capacity t = t.cap
let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
    unlink t n;
    push_front t n;
    Some n.value

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table key

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some n ->
    n.value <- value;
    unlink t n;
    push_front t n;
    None
  | None ->
    let n = { key; value; prev = None; next = None } in
    Hashtbl.replace t.table key n;
    push_front t n;
    if Hashtbl.length t.table <= t.cap then None
    else begin
      match t.tail with
      | None -> None (* unreachable: cap >= 1 and we just inserted *)
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key;
        Some lru.key
    end

let keys t =
  let rec collect acc = function
    | None -> List.rev acc
    | Some n -> collect (n.key :: acc) n.next
  in
  collect [] t.head
