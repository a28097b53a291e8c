(** Volcano-style streaming iterators over boxed tuples.

    Scans, filters and joins run over column batches (the executor's
    [Vexec] operators); these are the tuple-at-a-time stages above
    them — projection, computed columns, DISTINCT, top-k, OFFSET and
    LIMIT — each pulling one tuple at a time from its input (Graefe's
    iterator model), so the tail of a plain query streams in constant
    memory wherever its semantics allow. *)

type t
(** A cursor producing tuples of a fixed schema.  Cursors are single-use:
    once exhausted they stay exhausted. *)

val schema : t -> Schema.t

val next : t -> Tuple.t option
(** Pull the next tuple; [None] at end of stream. *)

val close : t -> unit
(** Release the cursor early (idempotent; pulling after close yields
    [None]). *)

val make : Schema.t -> (unit -> Tuple.t option) -> t
(** Build a cursor from a pull function (for custom sources such as a
    lazy view over column batches). *)

val of_list : Schema.t -> Tuple.t list -> t

val rename : t -> Schema.t -> t
(** Reinterpret the stream under a different schema of the same arity
    (e.g. qualify column names with a table alias).
    @raise Invalid_argument on arity mismatch. *)

val project : t -> string list -> t
(** Pipelined projection.  @raise Not_found on unknown columns. *)

val extend : t -> name:string -> ty:Value.ty -> Expr.t -> t
(** Append a computed column (pipelined {!Ops.extend}). *)

val distinct : t -> t
(** Streaming duplicate elimination, first appearance wins; equality
    matches {!Ops.distinct} ([Value.compare] = 0 column-wise). *)

val limit : t -> int -> t
(** Stops pulling from the input after [n] tuples (early termination). *)

val offset : t -> int -> t
(** Discards the first [n] tuples. *)

val top_k : t -> cmp:(Tuple.t -> Tuple.t -> int) -> k:int -> Tuple.t list
(** Drain the cursor keeping only the [k] least tuples under [cmp] in a
    bounded heap (ORDER BY ... LIMIT without a full sort).  Ties preserve
    input order, so the result equals [stable_sort cmp] + take [k]. *)

val to_list : t -> Tuple.t list
(** Drain the cursor. *)

val to_rowset : t -> Ops.rowset
(** Drain into a materialized rowset. *)
