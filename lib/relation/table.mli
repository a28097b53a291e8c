(** Heap-backed user tables with stable row numbers.

    Annotations and the outdated bitmaps address cells by (row, column)
    coordinates: the table is viewed as a two-dimensional space with
    columns on the X axis and tuples on the Y axis (Figure 5).  Rows are
    therefore numbered by insertion order and a deleted row leaves a
    tombstone — its number is never reused — so existing annotation
    rectangles and bitmap coordinates stay valid. *)

type t

val create : Bdbms_storage.Pager.t -> name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val layout : t -> Batch.layout
(** The precomputed decode plan for this table's schema (column records
    and vector kinds), shared by the tuple and batch decoders. *)

val pager : t -> Bdbms_storage.Pager.t

val insert : t -> Tuple.t -> (int, string) result
(** Append a tuple; returns its row number.  Fails on schema violation. *)

val get : t -> int -> Tuple.t option
(** [None] for a deleted or out-of-range row. *)

val update : t -> int -> Tuple.t -> (unit, string) result
(** Replace a live row in place (row number unchanged). *)

val update_cell : t -> row:int -> col:int -> Value.t -> (Value.t, string) result
(** Set one cell; returns the previous value. *)

val delete : t -> int -> bool
(** Tombstone a row; [true] if it was live. *)

val resurrect : t -> int -> Tuple.t -> (unit, string) result
(** Re-insert a tuple at a tombstoned row number, restoring the row
    exactly where it was — used by the approval manager when a DELETE is
    disapproved and its inverse INSERT executes (Section 6).  Fails if
    the row is live or was never allocated. *)

val is_live : t -> int -> bool

val row_count : t -> int
(** Highest row number + 1, including tombstones (the bitmap height). *)

val live_count : t -> int

val iter : t -> (int -> Tuple.t -> unit) -> unit
(** Live rows in row order.  The callback must not mutate the table
    (collect first, then write). *)

val fold : t -> init:'a -> f:('a -> int -> Tuple.t -> 'a) -> 'a
val to_list : t -> (int * Tuple.t) list

val batches :
  ?batch_rows:int -> ?need:bool array -> ?row_id:string -> t -> unit ->
  Batch.t option
(** Pull-based batch scan: live rows in row order, decoded into column
    batches of up to [batch_rows] (default {!Batch.default_rows}) rows.
    Runs of rows on the same heap page decode under a single page pin.
    Row order matches {!iter}, so every executor sees the same order.
    [need] prunes decode to the marked columns ({!Batch.builder}) — the
    caller guarantees nothing reads an unmarked column's vectors.
    [row_id] appends one more [INT] column of that name holding each
    row's number (never NULL, never pruned). *)

val storage_pages : t -> int
(** Heap pages (the row map's pages are not counted). *)

(** A table's fixed-size durable head: everything a restart needs to
    reattach the table, independent of its row count.  Rows are reached
    through the row map — a {!Bdbms_storage.Page_array} of one 6-byte
    entry per row number (heap page + 1, slot; all zero for a
    tombstone) — so no page list and no slot directory are kept. *)
type head = {
  map_root : Bdbms_storage.Page.id;  (** the row map's root page *)
  nrows : int;  (** {!row_count} *)
  live : int;  (** {!live_count} *)
  heap_last : Bdbms_storage.Page.id;  (** the heap page inserts go to *)
  heap_pages : int;  (** {!storage_pages} *)
}

val head : t -> head

val attach : Bdbms_storage.Pager.t -> name:string -> Schema.t -> head -> t
(** Reattach a table after a restart from its {!head}, reading no
    page. *)
