(** Volcano-style streaming iterators.

    {!Ops} materializes every intermediate result, which keeps the
    annotation-propagation semantics easy to verify; this module is the
    pipelined alternative for plain relational work over data too large to
    materialize: each operator pulls tuples one at a time from its input
    (Graefe's iterator model), so a select-project pipeline over a large
    table runs in constant memory. *)

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
(** Build a cursor from a pull function (for custom sources such as index
    probes). *)

val scan : Table.t -> t
(** Stream a table's live rows in row order, reading pages lazily. *)

val of_list : Schema.t -> Tuple.t list -> t

val select : ?on_drop:(unit -> unit) -> t -> Expr.t -> t
(** Pipelined filter; [on_drop] is invoked once per tuple the predicate
    rejects (used by the executor to count rows pruned by pushdown). *)

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

val nested_loop_join : t -> rebuild:(unit -> t) -> on:Expr.t -> t
(** Join the outer cursor with an inner relation; [rebuild] produces a
    fresh inner cursor per outer tuple (the textbook pipelined
    nested-loop join). *)

val join_key : Tuple.t -> int list -> string option
(** The hash key {!hash_join} uses for the given key columns of a tuple:
    a self-delimiting concatenation of {!Value.hash_key}s, [None] when any
    key column is NULL.  Exposed so annotated-tuple joins hash
    identically. *)

val hash_join :
  ?stats:Bdbms_obs.Stats.t ->
  build_left:bool ->
  left_keys:int list ->
  right_keys:int list ->
  t ->
  t ->
  t
(** Equi-join on positional key lists (one index per side, pairwise).
    The build side ([left] when [build_left]) is drained into an in-memory
    hash table on first pull; the other side streams through as the probe.
    Key hashing uses {!Value.hash_key}, so NULL keys never match and
    cross-type numeric equality works; candidates are re-checked with
    {!Value.equal}.  Output tuples are always [left ++ right] regardless
    of build side.  [stats] counts build/probe rows. *)

val block_join : ?on:Expr.t -> t -> t -> t
(** Block nested-loop join: [right] is materialized once, then streamed
    against per [left] tuple; the fallback for non-equi join predicates. *)

val top_k : t -> cmp:(Tuple.t -> Tuple.t -> int) -> k:int -> Tuple.t list
(** Drain the cursor keeping only the [k] least tuples under [cmp] in a
    bounded heap (ORDER BY ... LIMIT without a full sort).  Ties preserve
    input order, so the result equals [stable_sort cmp] + take [k]. *)

val to_list : t -> Tuple.t list
(** Drain the cursor. *)

val to_rowset : t -> Ops.rowset
(** Drain into a materialized rowset. *)

val count : t -> int
(** Drain, counting tuples. *)

val fold : t -> init:'a -> f:('a -> Tuple.t -> 'a) -> 'a
(** Drain, folding over tuples. *)

val aggregate : t -> (Ops.aggregate * string) list -> Ops.rowset
(** Streaming ungrouped aggregation: one pass, constant memory; result is
    the single row {!Ops.group_by} with empty [keys] would produce. *)
