(** Cost estimation for A-SQL plans: the plan tree's nodes.

    Section 3.4 leaves "for each A-SQL operator its algebraic definition,
    cost estimate function, and algebraic properties" as an open issue;
    this module supplies the cost-estimate part.  It turns a planned
    query ({!Plan.t} plus the SELECT's tail clauses) into {!Analyze.node}s
    carrying per-operator cardinality and page-access estimates, each
    tagged with its estimate source ([stats] when every input to the node
    carried ANALYZE statistics, [heuristic] otherwise).  EXPLAIN renders
    these nodes; EXPLAIN ANALYZE meters the same nodes while the query
    runs.  Estimates use per-table statistics when available and fall
    back to textbook selectivity heuristics (equality 10%, range 30%,
    LIKE 25%, AWHERE 50%). *)

(** {2 Scans and joins} *)

val source_nodes : Context.t -> Plan.source -> Analyze.node * Analyze.node
(** [(scan, top)] for one planned source: the access path ([SCAN t] or
    [INDEX SCAN t via idx(col)], suffixed [ANNOTATION(...)] when the item
    names annotation tables) and the node its output leaves through — a
    pushed [WHERE] above the scan, or the scan itself. *)

val step_nodes :
  Plan.t -> Analyze.node -> Plan.step -> Analyze.node -> Analyze.node * Analyze.node
(** [step_nodes plan left step right] is [(join, top)] for one join step:
    the hash or block nested-loop join over [left] and [right], and its
    [POST-JOIN WHERE] when the step has deferred conjuncts (else the
    join itself). *)

val plan_node : Context.t -> Plan.t -> Analyze.node
(** The whole FROM/WHERE tree of a plan: {!source_nodes} and
    {!step_nodes} folded in join order. *)

val set_op_node :
  [ `Union | `Intersect | `Except ] -> Analyze.node -> Analyze.node -> Analyze.node
(** A compound query's combining node over its two sides' trees. *)

(** {2 The SELECT tail} *)

type clause =
  | Awhere of Bdbms_annotation.Ann_pred.t
  | Aggregate  (** GROUP BY, or an ungrouped aggregate *)
  | Ahaving of Bdbms_annotation.Ann_pred.t
  | Project
  | Filter of Bdbms_annotation.Ann_pred.t
  | Distinct
  | Order of { top_k : bool }
      (** ORDER BY; a bounded top-k when [top_k] and there is a LIMIT *)

val aggregated : Ast.select -> bool
(** The SELECT groups or aggregates. *)

val tail_clauses : Ast.select -> clause list
(** The clauses between the FROM/WHERE tree and the output, in the order
    both SELECT tails apply them (OFFSET/LIMIT ride in the last one). *)

val top_k_bound : Ast.select -> int option
(** The rows an ORDER BY must keep under a LIMIT: OFFSET + LIMIT. *)

val tail_node : Ast.select -> clause -> Analyze.node -> Analyze.node
(** One plain-tail operator's node above its input's. *)

val result_node : Ast.select -> Analyze.node -> Analyze.node
(** The materialized (annotated or naive) tail as one node, labelled
    [RESULT (clause, ...)] with every {!tail_clauses} label in order, its
    estimate composed from theirs. *)
