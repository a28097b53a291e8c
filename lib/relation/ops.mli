(** Relational operators over materialized rowsets.

    These are the plain (annotation-unaware) operators; the annotation
    manager wraps each of them with the annotation-propagation semantics of
    Section 3.4.  Rowsets are materialized lists — query plans in this
    prototype are evaluated operator-at-a-time, which keeps the propagation
    semantics easy to verify against the paper. *)

type rowset = { schema : Schema.t; rows : Tuple.t list }

val scan : Table.t -> rowset
(** Live rows in row order. *)

val select : rowset -> Expr.t -> rowset
val project : rowset -> string list -> rowset
val extend : rowset -> name:string -> ty:Value.ty -> Expr.t -> rowset
(** Append a computed column. *)

val cross : rowset -> rowset -> rowset
val join : rowset -> rowset -> on:Expr.t -> rowset
(** Nested-loop join; [on] is evaluated over the concatenated schema. *)

val distinct : rowset -> rowset
val order_by : rowset -> (string * [ `Asc | `Desc ]) list -> rowset
val limit : rowset -> int -> rowset

(** Set operators (set semantics, as in the paper's INTERSECT example). *)

val union : rowset -> rowset -> rowset
val intersect : rowset -> rowset -> rowset
val except : rowset -> rowset -> rowset

type aggregate =
  | Count_star
  | Count of string
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

val aggregate_name : aggregate -> string

val agg_column : aggregate -> string option
(** The input column an aggregate reads; [None] for [Count_star]. *)

val agg_type : Schema.t -> aggregate -> Value.ty
(** Result type of an aggregate over the given input schema. *)

val group_by :
  rowset -> keys:string list -> aggs:(aggregate * string) list -> rowset
(** Group on [keys] under {!Tuple.group_key} (NULL is a key value, [-0.0]
    groups with [0.0]), in first-appearance order; each
    [(agg, out_name)] adds an output column.  With empty [keys], a single
    global group (even over an empty input for COUNT). *)

val row_count : rowset -> int
val pp : Format.formatter -> rowset -> unit
