(** Scalar expressions over tuples: predicates, arithmetic, LIKE patterns.

    Used by the WHERE / HAVING clauses of A-SQL and, applied to annotation
    attributes instead of data attributes, by AWHERE / AHAVING / FILTER. *)

type cmp = Eq | Neq | Lt | Leq | Gt | Geq

type arith = Add | Sub | Mul | Div | Mod

type t =
  | Col of string                (** column reference, resolved by name *)
  | Lit of Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Like of t * string           (** SQL LIKE: [%] any run, [_] any char *)
  | In_list of t * Value.t list
  | Is_null of t
  | Concat of t * t

exception Eval_error of string

val eval : Schema.t -> Tuple.t -> t -> Value.t
(** @raise Eval_error on unknown columns or type mismatches. *)

val eval_pred : Schema.t -> Tuple.t -> t -> bool
(** Evaluate as a predicate: NULL results are false (SQL three-valued logic
    collapsed to its query-filtering behaviour). *)

val columns_used : t -> string list
(** Distinct column names referenced, in first-use order. *)

val like_match : pattern:string -> string -> bool
(** The LIKE matcher, exposed for index-level regex/prefix rewrites. *)

val apply_cmp : cmp -> Value.t -> Value.t -> Value.t
(** One comparison under three-valued logic (NULL operand -> VNull).
    Exposed so the vectorized executor's compiled predicates share the
    exact comparison semantics.  @raise Eval_error on type mismatch. *)

val apply_arith : arith -> Value.t -> Value.t -> Value.t
(** One arithmetic step (NULL operand -> VNull).
    @raise Eval_error on division by zero or non-numeric operands. *)

val type_of : Schema.t -> t -> Value.ty
(** The declared type of a computed column, decided statically: a
    column's type, a literal's (NULL is TEXT), BOOL for comparisons,
    AND/OR/NOT, LIKE, IN and IS NULL, INT for arithmetic over two INTs
    and FLOAT for other arithmetic, TEXT for [||].
    @raise Eval_error on unknown columns. *)

val pp : Format.formatter -> t -> unit

(** {2 Aggregates}

    The five SQL aggregates, shared by the materialized algebra
    ([Propagate.group_by]) and the batch engine ([Vexec.group_by]):
    both fold one {!acc} per group and aggregate in input order and
    finish it with {!agg_result}, so their answers agree to the bit. *)

type aggregate =
  | Count_star
  | Count of string
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

val aggregate_name : aggregate -> string
(** The default output name, e.g. [SUM(len)]. *)

val agg_column : aggregate -> string option
(** The input column an aggregate reads; [None] for [Count_star]. *)

val agg_input : Schema.t -> aggregate -> int option
(** The position of {!agg_column} in the input schema.
    @raise Eval_error on an unknown column. *)

val agg_type : Schema.t -> aggregate -> Value.ty
(** Result type of an aggregate over the given input schema.
    @raise Eval_error on an unknown column. *)

type acc = {
  mutable n : int;  (** rows counted / non-NULL inputs seen *)
  mutable isum : int;
  mutable fsum : float;  (** every input as a float, summed in order *)
  mutable all_int : bool;
  mutable best : Value.t;  (** MIN/MAX so far; NULL = none yet *)
}
(** One aggregate's running state over one group.  The batch engine's
    typed loops update the fields directly. *)

val new_acc : unit -> acc

val agg_step : aggregate -> acc -> Value.t -> unit
(** Fold one row's input value (ignored by [Count_star]); NULLs count
    only for [Count_star].  @raise Eval_error when SUM/AVG meet a
    non-numeric value. *)

val agg_result : aggregate -> acc -> Value.t
(** COUNT is an INT; SUM stays an INT while every input was one and is
    the float sum otherwise; AVG is the float sum over the count; an
    aggregate other than COUNT over no non-NULL input is NULL. *)
