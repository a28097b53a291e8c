(** Qualified-column name resolution, shared by the executor, the planner,
    and the cost model so that index matching, predicate pushdown, and
    error reporting all agree on what a column reference means.

    A reference resolves against a schema in three attempts: the exact
    name, then stripping a known [alias_] / [table_] qualifier, then a
    unique [_name] suffix match (a bare column mentioned while the schema
    carries table prefixes). *)

type outcome = Resolved of string | Unknown | Ambiguous

val column :
  Bdbms_relation.Schema.t -> prefixes:string list -> string -> outcome
(** Resolve one column reference.  [prefixes] are the acceptable
    qualifiers (table names and aliases in scope). *)

val map_expr :
  (string -> string) -> Bdbms_relation.Expr.t -> Bdbms_relation.Expr.t
(** Rewrite every column reference in an expression. *)
