(** Annotation propagation: the extended operator semantics of Section 3.4.

    This is the one materialized relational algebra.  A rowset carries,
    for every tuple, the annotation set of each column position; a plain
    row is a row whose sets are all empty ({!of_rows}), so the naive
    query oracle, annotated queries and plain set operations all run on
    these operators.  Each is the relational operator extended with the
    paper's propagation rules:

    - projection passes only the annotations of the projected columns;
    - selection passes surviving tuples with {e all} their annotations;
    - PROMOTE copies annotations from source columns onto a projected
      column so they survive a later projection;
    - AWHERE / AHAVING filter {e tuples} by a condition over their
      annotations; FILTER keeps every tuple but drops the annotations that
      fail the condition;
    - operators that group or combine tuples (duplicate elimination,
      group by, union, intersect, difference) union the annotations of
      the combined tuples onto the representative output tuple; tuples
      combine when their {!Bdbms_relation.Tuple.group_key}s are equal. *)

type atuple = {
  tuple : Bdbms_relation.Tuple.t;
  anns : Ann.t list array;  (** per-column annotation sets, same arity *)
}

type t = { schema : Bdbms_relation.Schema.t; rows : atuple list }

val scan :
  Manager.t ->
  Bdbms_relation.Table.t ->
  ?ann_tables:string list ->
  ?include_archived:bool ->
  unit ->
  t
(** Live rows with their annotations attached, resolved through the
    manager (archived annotations excluded by default: they do not
    propagate, Section 3.3).  [ann_tables] narrows which annotation
    tables participate — the ANNOTATION operator of A-SQL SELECT. *)

val of_rows : Bdbms_relation.Schema.t -> Bdbms_relation.Tuple.t list -> t
(** Plain rows: every row shares one all-empty annotation array, so
    wrapping an answer allocates nothing per row. *)

val all_annotations : atuple -> Ann.t list
(** Distinct annotations over all columns of one tuple. *)

val select : t -> Bdbms_relation.Expr.t -> t
val project : t -> string list -> t

val extend :
  t -> name:string -> ty:Bdbms_relation.Value.ty -> Bdbms_relation.Expr.t -> t
(** Append the computed column [name] of declared type [ty]; it carries
    no annotations. *)

val promote : t -> from:string list -> to_:string -> t
(** Copy the annotations of [from] columns onto column [to_].
    @raise Not_found on unknown columns. *)

val awhere : t -> Ann_pred.t -> t
(** Keep tuples having at least one annotation satisfying the condition. *)

val filter_anns : t -> Ann_pred.t -> t
(** Keep all tuples; drop annotations failing the condition. *)

val distinct : t -> t

(** Set operators, with set semantics (the paper's INTERSECT example).
    An INT column opposite a REAL one comes out REAL, its values
    widened, so [2] and [2.0] are one row.
    @raise Bdbms_relation.Expr.Eval_error when the schemas are not
    union-compatible. *)

val union : t -> t -> t
val intersect : t -> t -> t
val except : t -> t -> t
val join : ?on_pair:(unit -> unit) -> t -> t -> on:Bdbms_relation.Expr.t -> t
(** Nested-loop join keeping both sides' annotations.  [on_pair] is
    invoked once per considered pair — the executor hangs its
    cooperative-cancellation checkpoint there, since the product can
    dwarf both inputs. *)

val group_by :
  t ->
  keys:string list ->
  aggs:(Bdbms_relation.Expr.aggregate * string) list ->
  t
(** Group on [keys] under {!Bdbms_relation.Tuple.group_key} (NULL is a
    key value, [-0.0] groups with [0.0]), in first-appearance order;
    each [(agg, out_name)] adds an output column.  With empty [keys], a
    single global group, even over empty input.  One pass over the
    input folds each aggregate over its group in input order
    ({!Bdbms_relation.Expr.agg_step}) and unions the annotations: key
    columns keep the union of their group members' annotations; an
    aggregate column carries the union of its source column's
    annotations across the group ([COUNT( * )] carries none).
    @raise Bdbms_relation.Expr.Eval_error on an unknown aggregate
    column. *)

val order_by : t -> (string * [ `Asc | `Desc ]) list -> t
val limit : t -> int -> t
val row_count : t -> int
