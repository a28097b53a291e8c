(** Paged B+-tree: the classic baseline access method (Section 7.1 compares
    SP-GiST indexes against it) and the building block of the String
    B-tree / SBC-tree layer.

    Keys are opaque byte strings ordered by a pluggable comparator
    (lexicographic by default — pair with {!Key_codec} for typed keys);
    values are integers (row numbers or record references).  Duplicate keys
    are allowed.  Every node is one page read/written through the buffer
    pool, so {!Bdbms_obs.Stats} reflects true page-level I/O. *)

type t

val create :
  ?cmp:(string -> string -> int) -> Bdbms_storage.Pager.t -> t
(** An empty tree rooted at a fresh page. *)

val insert : t -> key:string -> value:int -> unit
(** @raise Invalid_argument if the key exceeds a quarter of the page size. *)

val delete : t -> key:string -> value:int -> bool
(** Remove one matching (key, value) entry; lazy deletion (leaves may
    underflow, pages are not merged — standard for research prototypes). *)

val search : t -> string -> int list
(** All values stored under keys equal to the probe. *)

val range :
  t ->
  ?lo:string * bool ->
  ?hi:string * bool ->
  unit ->
  (string * int) list
(** Entries with [lo <= key <= hi]; booleans make a bound exclusive when
    [false].  Omitted bounds are unbounded. *)

val prefix_search : t -> string -> (string * int) list
(** Entries whose key starts with the given bytes.  Only meaningful with
    the default lexicographic comparator. *)

val range_probe : t -> probe:(string -> int) -> (string * int) list
(** Generalized range scan: [probe k] must be monotone over the key order
    ([< 0] below the target range, [0] inside, [> 0] above).  Used by the
    String B-tree to search by pattern without materializing a key. *)

val entry_count : t -> int
val height : t -> int
val node_pages : t -> int
(** Pages allocated to this tree (storage footprint). *)
