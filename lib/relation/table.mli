(** Heap-backed user tables with stable row numbers.

    Annotations and the outdated bitmaps address cells by (row, column)
    coordinates: the table is viewed as a two-dimensional space with
    columns on the X axis and tuples on the Y axis (Figure 5).  Rows are
    therefore numbered by insertion order and a deleted row leaves a
    tombstone — its number is never reused — so existing annotation
    rectangles and bitmap coordinates stay valid. *)

type t

type slot = Live of Bdbms_storage.Heap_file.rid | Dead
(** One entry of the row-number -> record mapping; tombstones are kept so
    row numbers stay stable (and so the mapping can be serialized to the
    durable catalog and restored by {!restore}). *)

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
(** Live rows in row order. *)

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

val heap_pages : t -> Bdbms_storage.Page.id list
(** The table's heap pages in allocation order (for the durable catalog). *)

val slots : t -> slot list
(** The row-number -> rid mapping including tombstones (for the durable
    catalog). *)

val restore :
  Bdbms_storage.Pager.t ->
  name:string ->
  Schema.t ->
  heap_pages:Bdbms_storage.Page.id list ->
  slots:slot list ->
  t
(** Reattach a table to its heap pages after a restart, from a catalog
    record written via {!heap_pages} and {!slots}. *)
