(** SELECT planning: conjunct classification, predicate pushdown, access
    path selection, and cost-based join ordering.

    The planner takes the FROM list and a WHERE expression {e already
    resolved} against the canonical joined schema (the fold of
    [Schema.concat] over the per-table schemas, alias-prefixed for
    multi-table queries) and splits the WHERE into top-level conjuncts:

    - a conjunct touching a single table is {e pushed} below the join and
      evaluated during that table's scan;
    - an equality between columns of two different tables becomes a hash
      join key ({e edge});
    - everything else is {e deferred} to the earliest join step at which
      all its tables are available.

    Selectivities come from the per-table statistics collected by
    [ANALYZE] ({!Bdbms_stats}) when available — MCV/histogram-based
    equality, range and LIKE estimates, and [1 / max(ndv, ndv)] join
    selectivity from the distinct sketches — and fall back to the
    textbook heuristic constants ({!selectivity}) for never-analyzed
    tables; each source records which world it was estimated in
    ({!est_src}), surfaced by EXPLAIN.

    Join order: when {e every} FROM table carries statistics and there
    are at least two of them, the planner picks a greedy bottom-up
    left-deep order (smallest filtered source first, then repeatedly the
    source minimizing the next intermediate estimate, preferring
    equi-edge-connected sources); otherwise joins stay in FROM order.
    When the chosen order differs from FROM order, [permuted] is set and
    the executor restores the canonical column order with one final
    projection, so results are indistinguishable from the FROM-order
    plan.  Each step with at least one edge runs as a hash join building
    on the estimated-smaller input, edge-less steps fall back to a block
    nested-loop cross product filtered by the deferred conjuncts.  Both
    the streaming executor and the cost model's EXPLAIN rendering
    consume this plan. *)

val selectivity : Bdbms_relation.Expr.t -> float
(** Heuristic predicate selectivity (equality 0.10, range 0.30, ...). *)

val conjuncts_selectivity : Bdbms_relation.Expr.t list -> float

type est_src = Stats | Heuristic
    (** Where an estimate came from: ANALYZE statistics or the fallback
        heuristic constants. *)

val est_src_name : est_src -> string
(** ["stats"] / ["heuristic"], as rendered by EXPLAIN. *)

val conjunct_selectivity :
  Bdbms_stats.Table_stats.t option ->
  schema:Bdbms_relation.Schema.t ->
  Bdbms_relation.Expr.t ->
  float
(** One conjunct's selectivity: statistics when available and the shape
    is covered, {!selectivity} otherwise. *)

val conjuncts_selectivity_for :
  Bdbms_stats.Table_stats.t option ->
  schema:Bdbms_relation.Schema.t ->
  Bdbms_relation.Expr.t list ->
  float

(** What a FROM item scans: a heap-backed catalog table, or a virtual
    relation — a [sys.*] introspection view materialized at plan time.
    Virtual rels are small by construction (bounded rings, registry
    snapshots), so every engine path sees the same immutable rows. *)
type rel =
  | Base of Bdbms_relation.Table.t
  | Virtual of {
      v_name : string;
      v_schema : Bdbms_relation.Schema.t;
      v_rows : Bdbms_relation.Tuple.t array;
    }

val rel_name : rel -> string
val rel_schema : rel -> Bdbms_relation.Schema.t
val rel_live_count : rel -> int

type frame = {
  entries : (Ast.from_item * rel) list;
  schema : Bdbms_relation.Schema.t;  (** canonical joined schema *)
  prefixes : string list;            (** alias/table qualifier per entry *)
  multi : bool;
  slices : (int * Bdbms_relation.Schema.t) list;
      (** per entry: column offset and slice of the joined schema *)
  row_ids : bool;  (** each slice ends in a hidden {!row_id_name} column *)
}

val row_id_name : string
(** ["#row"]: the hidden [INT] column an annotated query's frame appends
    to each slice, holding the source row's number (NULL for [sys.*]
    rows).  No identifier can spell it, so no query can name, resolve or
    select it. *)

val frame : ?row_ids:bool -> (Ast.from_item * rel) list -> frame
(** Name-resolution frame for a FROM list (relations already looked up).
    With [row_ids] (default [false]) every slice gets a trailing
    {!row_id_name} column; the other column names are unchanged.
    @raise Invalid_argument on an empty list. *)

val item_prefix : Ast.from_item -> string
(** The qualifier a query uses for this item's columns: its alias, or
    the table name with any [sys.] namespace stripped. *)

type access =
  | Seq_scan
  | Index_probe of { index : Context.index_def; value : Bdbms_relation.Value.t }
      (** fetch candidate rows from a secondary index for a pushed
          [col = literal] conjunct; the full pushed predicate is still
          applied to each candidate *)

type source = {
  item : Ast.from_item;
  rel : rel;
  prefix : string;
  offset : int;  (** first column of this table's slice in the joined schema *)
  schema : Bdbms_relation.Schema.t;  (** the slice *)
  access : access;
  access_est : float;
      (** rows the access path is expected to fetch (live rows for a
          scan, [live * eq-selectivity] for an index probe) *)
  pushed : Bdbms_relation.Expr.t list;
      (** single-table conjuncts, resolved against the slice schema *)
  est_rows : float;
  est_src : est_src;
      (** whether this source's estimates used real statistics *)
  row_id : int option;
      (** joined-schema position of the slice's hidden row-id column (its
          last) when the frame has them *)
}

type join_kind =
  | Hash of {
      left_cols : int list;
          (** absolute joined-schema (FROM-order) positions, for EXPLAIN
              labels and projection pruning *)
      left_acc_cols : int list;
          (** the same keys as positions in the {e accumulated} schema
              (slices concatenated in join order) — what the executor
              keys the build side on; equals [left_cols] when the order
              is not permuted *)
      right_cols : int list;  (** absolute joined-schema positions *)
      build_left : bool;  (** hash the accumulated left input *)
    }  (** equi-join on pairwise key lists *)
  | Nested  (** no equi edge: block nested-loop cross product *)

type step = {
  src : source;
  kind : join_kind;
  post : Bdbms_relation.Expr.t list;
      (** deferred conjuncts that become evaluable after this step *)
  est_rows : float;
}

type t = {
  base : source;
  steps : step list;
  schema : Bdbms_relation.Schema.t;
      (** canonical FROM-order joined schema — {e not} permuted *)
  prefixes : string list;
  order : int list;
      (** join order as FROM indices; [0; 1; ...] when not permuted *)
  permuted : bool;
      (** the pipeline's accumulated column order differs from
          [schema]; the executor must project back to [schema]'s names
          before the SELECT tail *)
  row_ids : bool;  (** planned over a frame with row-id columns *)
}

val build : Context.t -> frame -> where:Bdbms_relation.Expr.t option -> t
(** Plan a FROM/WHERE pair.  [where] must already be resolved against
    [frame.schema] (use {!Resolve}); unresolvable queries should not
    reach the planner.  Bumps the [plans_reordered] counter when the
    chosen order differs from FROM order. *)
