(** Batched (vectorized) operators: the plain query path.

    Every plain SELECT's plan runs through these operators.  They must
    compute exactly what the executor's naive oracle computes — same
    rows, same three-valued predicate semantics, same error messages —
    and the differential suite asserts the outputs match.  The speed
    comes from page-at-a-time decoding into column vectors, predicates
    compiled to per-column loops over a selection vector, and aggregates
    running typed tight loops that box only at finalization. *)

type src = {
  schema : Bdbms_relation.Schema.t;
  next : unit -> Bdbms_relation.Batch.t option;
}
(** A pull-based stream of column batches.  Sources are
    single-use; [next] keeps returning [None] once exhausted. *)

val scan :
  ?batch_rows:int ->
  ?need:bool array ->
  ?row_id:string ->
  Bdbms_relation.Table.t ->
  src
(** Batch scan of a table's live rows in row order
    ({!Bdbms_relation.Table.batches}); [need] prunes decode to the marked
    columns — the caller must prove nothing reads the others.  [row_id]
    appends a trailing [INT] column of that name holding each row's
    number. *)

val of_rows :
  ?batch_rows:int -> ?row_id:string -> Bdbms_relation.Table.t -> int list -> src
(** Re-batch point-fetched rows (index-probe candidates); dead rows are
    skipped.  [row_id] as for {!scan}. *)

val of_tuples :
  ?stats:Bdbms_obs.Stats.t ->
  ?batch_rows:int ->
  Bdbms_relation.Schema.t ->
  Bdbms_relation.Tuple.t array ->
  src
(** Batch already-materialized rows (a [sys.*] view's snapshot, a
    sort's output) into all-boxed vectors, in array order; with [stats],
    each batch counts in its [batches_decoded], like a heap scan's. *)

val with_schema : src -> Bdbms_relation.Schema.t -> src
(** Reinterpret under a different schema of the same arity (alias
    qualification).  @raise Invalid_argument on arity mismatch. *)

val project : src -> int list -> src
(** Reorder (or drop) columns by position without copying: each batch
    keeps its vectors, dictionary and selection vector.  Restores the
    FROM-order layout of a cost-reordered join plan. *)

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
(** Equi-join on positional key lists (one index per side, pairwise):
    the build side ([left] when [build_left]) drains into a hash table of
    boxed tuples on first pull, the probe side streams through
    batch-by-batch.  Key hashing uses {!Bdbms_relation.Value.hash_key},
    so NULL keys never match and cross-type numeric equality works;
    candidates re-check {!Bdbms_relation.Value.equal}.  Output rows are
    [left ++ right] in probe order, matches in build order, regardless of
    build side.  [stats] counts build/probe rows. *)

val block_join : ?batch_rows:int -> src -> src -> src
(** Block nested-loop join (cross product) for plan steps without an
    equi-join edge: [right] is drained once into boxed tuples, then each
    selected [left] row, in order, is paired with every right row, in
    order, as [left ++ right].  No predicate: the caller filters above
    it, so each output batch considers at most [batch_rows] pairs. *)

val rows_of : src -> unit -> (Bdbms_relation.Batch.t * int) option
(** The selected rows of a source, one [(batch, physical row)] per call,
    in order, pulling batches on demand; [None] once exhausted. *)

(** {2 The plain tail}

    The operators between the scan/join pipeline and the output.  The
    blocking ones ({!group_by}, {!sort}, {!top_k}) drain their input at
    their first pull, so a metered node above them is charged for it. *)

val drain : src -> Bdbms_relation.Tuple.t list
(** Drain a source, boxing its selected rows in order: the output. *)

val group_by :
  ?batch_rows:int ->
  src ->
  keys:string list ->
  (Bdbms_relation.Expr.aggregate * string) list ->
  src
(** Grouped ([keys] non-empty) or ungrouped aggregation: the rows
    {!Bdbms_annotation.Propagate.group_by} computes, in its order — key
    columns then one column per [(aggregate, output name)], groups by
    first appearance, one row over empty input when ungrouped.  Rows
    group under {!Bdbms_relation.Batch.group_key}; numeric aggregates
    run typed per-column loops.  @raise Bdbms_relation.Expr.Eval_error
    on an unknown aggregate column. *)

val extend :
  src -> name:string -> ty:Bdbms_relation.Value.ty -> Bdbms_relation.Expr.t -> src
(** Append a computed column (the pipelined
    {!Bdbms_annotation.Propagate.extend}), evaluated on selected rows
    only.  [ty] is only declared: the column's values stay boxed. *)

val distinct : src -> src
(** Streaming duplicate elimination, first appearance wins, under
    {!Bdbms_relation.Batch.group_key} over every column. *)

val limit : src -> offset:int -> limit:int option -> src
(** OFFSET/LIMIT: trims batch selections and stops pulling its input
    once [limit] rows passed, so nothing below decodes further. *)

val sort :
  ?batch_rows:int ->
  src ->
  cmp:(Bdbms_relation.Tuple.t -> Bdbms_relation.Tuple.t -> int) ->
  src
(** ORDER BY without LIMIT: a stable sort of the drained rows. *)

val top_k :
  ?batch_rows:int ->
  src ->
  cmp:(Bdbms_relation.Tuple.t -> Bdbms_relation.Tuple.t -> int) ->
  k:int ->
  src
(** ORDER BY ... LIMIT through a bounded heap: the [k] least rows
    under [cmp], equal to a stable sort cut to [k] (ties keep input
    order). *)

val meter : Analyze.t -> Analyze.node -> src -> src
(** Wrap [next] with {!Analyze.meter_batch_pull}: each produced batch
    adds its selected-row count to the node's actual rows and one to its
    batch count. *)
