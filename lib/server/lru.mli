(** A plain LRU map with string keys.

    The session cache's eviction policy: [find] and [add] both mark the
    entry most-recently-used; inserting past [capacity] evicts the
    least-recently-used entry.  Operations are O(1) (hash table plus an
    intrusive doubly-linked recency list).  Not thread-safe — callers
    serialize access ({!Session} wraps one in a mutex). *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; a hit becomes the most-recently-used entry. *)

val mem : 'a t -> string -> bool
(** Membership test {e without} touching recency. *)

val add : 'a t -> string -> 'a -> string option
(** Insert or replace, making the entry most-recently-used.  Returns
    the key evicted to stay within capacity, if any (never the key just
    added). *)

val remove : 'a t -> string -> unit

val keys : 'a t -> string list
(** Most-recently-used first — the inverse of eviction order. *)
