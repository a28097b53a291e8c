(** Batched (vectorized) operators for the plain query path.

    Each operator is the batch-at-a-time counterpart of a
    {!Bdbms_relation.Cursor} operator and is observationally identical
    to it — same rows, same order, same three-valued predicate
    semantics, same error messages — so the executor can run the same
    {!Plan} through either pipeline and the differential suite can
    assert the outputs match.  The speed comes from page-at-a-time
    decoding into column vectors, predicates compiled to per-column
    loops over a selection vector, and aggregates running typed tight
    loops that box only at finalization. *)

type src = {
  schema : Bdbms_relation.Schema.t;
  next : unit -> Bdbms_relation.Batch.t option;
}
(** A pull-based stream of column batches.  Like cursors, sources are
    single-use; [next] keeps returning [None] once exhausted. *)

val scan : ?batch_rows:int -> ?need:bool array -> Bdbms_relation.Table.t -> src
(** Batch scan of a table's live rows in row order
    ({!Bdbms_relation.Table.batches}); [need] prunes decode to the marked
    columns — the caller must prove nothing reads the others. *)

val of_rows : ?batch_rows:int -> Bdbms_relation.Table.t -> int list -> src
(** Re-batch point-fetched rows (index-probe candidates); dead rows are
    skipped. *)

val with_schema : src -> Bdbms_relation.Schema.t -> src
(** Reinterpret under a different schema of the same arity (alias
    qualification).  @raise Invalid_argument on arity mismatch. *)

val compile_pred :
  Bdbms_relation.Schema.t ->
  Bdbms_relation.Expr.t ->
  Bdbms_relation.Batch.t ->
  int ->
  bool
(** Compile a predicate to a per-batch row test with
    {!Bdbms_relation.Expr.eval_pred} semantics (NULL collapses to
    false).  Column/literal and column/column comparisons specialize to
    typed loops per vector kind; everything else evaluates boxed with
    column indices pre-resolved.  Exposed for the property tests. *)

val filter : ?on_drop:(int -> unit) -> src -> Bdbms_relation.Expr.t -> src
(** Compact each batch's selection vector to the rows satisfying the
    predicate.  [on_drop] receives the per-batch count of rows dropped.
    Fully-filtered batches flow through empty rather than being
    skipped. *)

val hash_join :
  ?stats:Bdbms_obs.Stats.t ->
  ?batch_rows:int ->
  build_left:bool ->
  left_keys:int list ->
  right_keys:int list ->
  src ->
  src ->
  src
(** Equi-join on positional key lists, batch counterpart of
    {!Bdbms_relation.Cursor.hash_join}: the build side drains into a
    hash table of boxed tuples on first pull, the probe side streams
    through batch-by-batch.  NULL keys never match; candidates re-check
    {!Bdbms_relation.Value.equal}; output order and the [left ++ right]
    column layout match the tuple path exactly. *)

val aggregate :
  src -> (Bdbms_relation.Ops.aggregate * string) list -> Bdbms_relation.Ops.rowset
(** Streaming ungrouped aggregation over batches — the single row
    {!Bdbms_relation.Cursor.aggregate} would produce, computed with
    typed per-column loops.  @raise Bdbms_relation.Expr.Eval_error on an
    unknown aggregate column. *)

val top_k :
  src ->
  cmp:(Bdbms_relation.Tuple.t -> Bdbms_relation.Tuple.t -> int) ->
  k:int ->
  Bdbms_relation.Tuple.t list
(** Bounded-heap ORDER BY ... LIMIT over batches; ties preserve input
    order, matching {!Bdbms_relation.Cursor.top_k}. *)

val to_cursor : src -> Bdbms_relation.Cursor.t
(** Lazy tuple view: boxes only selected rows and pulls batches on
    demand, so a downstream LIMIT stops decoding early. *)

val to_rowset : src -> Bdbms_relation.Ops.rowset

val meter : Analyze.t -> Analyze.node -> src -> src
(** Wrap [next] with {!Analyze.meter_batch_pull}: each produced batch
    adds its selected-row count to the node's actual rows and one to its
    batch count. *)
