(** Column batches with selection vectors — the unit of work of the
    vectorized executor.

    A batch is ~1024 rows decoded from heap pages into typed column
    vectors: unboxed [int array]/[float array] for numerics, a byte
    vector for booleans, per-batch dictionary ids for string-likes, and
    boxed [Value.t] for everything else (RLE sequences, generic operator
    outputs).  Each column carries a one-bit-wide null bitmap; the data
    slot under a set null bit is unspecified.

    Predicates never copy surviving rows: they compact the batch's
    {e selection vector} in place ({!retain}) and downstream operators
    visit only [sel.(0 .. nsel-1)].

    The representation is concrete on purpose: {!Bdbms_asql.Vexec}
    compiles predicates into direct per-kind array loops, which needs to
    match on {!data}. *)

(** Vector representation chosen for a column type. *)
type kind = KInt | KFloat | KBool | KStr | KVal

val kind_of_ty : Value.ty -> kind

type layout = {
  arity : int;
  cols : Schema.column array;
  kinds : kind array;
}
(** Precomputed decode plan for a schema — the per-row [Schema] lookups
    hoisted out of the decode loop, shared by the tuple and batch
    decoders. *)

val layout_of_schema : Schema.t -> layout

val generic_layout : Schema.t -> layout
(** A layout storing every column boxed ([KVal]) — for operator outputs
    whose values are already materialized. *)

type data =
  | DInt of int array
  | DFloat of float array
  | DBool of Bytes.t
  | DStr of int array  (** ids into the batch dictionary *)
  | DVal of Value.t array

type col = {
  data : data;
  nulls : Bdbms_util.Bitmap.t;  (** [rows x 1]; checked before [data] *)
  ty : Value.ty;
}

type t = {
  schema : Schema.t;
  cols : col array;
  dict : string array;
      (** the per-batch string dictionary: two [DStr] cells of a batch
          hold equal ids exactly when their strings are equal *)
  n : int;  (** rows decoded into the vectors *)
  mutable sel : int array;  (** selection vector; first [nsel] entries live *)
  mutable nsel : int;
}

val default_rows : int
(** Rows per batch when the caller does not choose (1024). *)

val rows : t -> int
val schema : t -> Schema.t
val arity : t -> int

val with_schema : t -> Schema.t -> t
(** Same vectors under a renamed schema (scan aliasing).
    @raise Invalid_argument on arity mismatch. *)

(** {2 Building}

    A builder accumulates up to [cap] rows into freshly allocated
    vectors.  [finish] hands the vectors to the batch without copying,
    so a builder must not be reused after [finish]. *)

type builder

val builder : ?cap:int -> ?need:bool array -> Schema.t -> layout -> builder
(** [need] (default: all [true]) marks the columns a query reads;
    {!append_span}/{!append_payload} validate and step over the values of
    unmarked columns without storing or interning them ({e projection
    pruning}).  A pruned column reads back as all-NULL, so code that
    boxes whole rows stays well-defined — but the caller must still
    guarantee no consumer depends on a pruned column's values.
    @raise Invalid_argument if [cap <= 0] or the mask arity mismatches. *)

val full : builder -> bool
val length : builder -> int

val append_payload : builder -> string -> unit
(** Decode one encoded tuple payload (as stored by [Tuple.encode])
    straight into the column vectors — no [Value.t] boxing for numerics
    and booleans, strings interned in the batch dictionary.
    @raise Invalid_argument on a malformed payload, an arity mismatch,
    a value that does not fit its column's kind, or a full builder. *)

val append_span : builder -> Bytes.t -> pos:int -> len:int -> unit
(** Zero-copy {!append_payload}: decode the record at [buf.[pos ..
    pos+len-1]] in place (a pinned heap page — see
    {!Bdbms_storage.Heap_file.with_page_spans}).  The caller must
    guarantee the span lies within [buf]; the buffer is never mutated.
    @raise Invalid_argument as {!append_payload}. *)

val append_tuple : builder -> Tuple.t -> unit
(** Boxed append, for operator outputs.
    @raise Invalid_argument as {!append_payload}. *)

val finish : builder -> t
(** The accumulated rows as a batch with an identity selection vector. *)

val add_column : t -> name:string -> ty:Value.ty -> data -> t
(** The batch with one more column after its own: slot [i] of the
    vector is physical row [i]'s value ([DStr] ids index the batch's
    dictionary).  A [DVal] slot holding [VNull] is NULL; no other slot
    is.  The vector is taken over, not copied — the hidden row id of an
    annotated scan, a computed column.
    @raise Invalid_argument if it is shorter than the batch or [name]
    duplicates a column ({!Schema.make}'s error). *)

(** {2 Row access} *)

val is_null : t -> row:int -> col:int -> bool

val value : t -> row:int -> col:int -> Value.t
(** Box one cell (NULL bit wins over the data slot). *)

val tuple_of : t -> int -> Tuple.t
(** Box one row. *)

val hash_key : t -> row:int -> col:int -> string option
(** [Value.hash_key] of the cell, computed without boxing it; [None] on
    NULL. *)

val join_key : t -> int -> int list -> string option
(** Hash-join key over the given columns: one column's {!hash_key}
    as is; for more, the concatenation of each column's {!hash_key}
    prefixed by its length and [':'] (so it is self-delimiting).  [None]
    when any key column is NULL. *)

val group_key : t -> int -> int array -> string
(** {!Tuple.group_key} of the row's values in the given columns,
    computed without boxing typed cells: the key the batch GROUP BY and
    DISTINCT group under.  NULL is a value here, unlike {!join_key}. *)

(** {2 Selection vector} *)

val selected : t -> int
(** Number of currently selected rows. *)

val sel_row : t -> int -> int
(** [sel_row t i] is the physical row of the [i]-th selected row. *)

val selected_rows : t -> int list

val retain : t -> (int -> bool) -> int
(** [retain t keep] compacts the selection vector to the rows satisfying
    [keep] (called on physical row indices, in selection order) and
    returns how many rows were dropped. *)

val reset_selection : t -> unit
(** Back to the identity selection over all [n] rows. *)

val set_selection : t -> int array -> unit
(** Replace the selection vector (copies the argument).
    @raise Invalid_argument on an out-of-range row. *)
