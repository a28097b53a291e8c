(** The A-SQL executor: evaluates parsed statements against a
    {!Context.t} on behalf of a session user.

    Query answers are annotated rowsets: annotations propagate per the
    Section 3.4 semantics, archived annotations stay out, and cells the
    dependency manager has marked outdated arrive with a system Quality
    annotation ("outdated: needs re-verification") — Section 5's
    "reporting and annotating outdated data". *)

type outcome =
  | Rows of Bdbms_annotation.Propagate.t
  | Count of { affected : int; verb : string }
  | Message of string
  | Entries of Bdbms_auth.Approval.entry list

exception Read_only of string
(** Raised (before any mutation) when a write or DDL statement arrives
    while the engine is in read-only degraded mode; the payload is the
    reason recorded at entry.  Deliberately not folded into {!execute}'s
    [Error] so the engine layers can map it to a retryable error. *)

exception View_read_only of string
(** Raised (before any engine state is touched) when a write or DDL
    statement — INSERT/UPDATE/DELETE, DROP/CREATE TABLE, CREATE INDEX,
    COPY FROM, annotation DDL, or an explicit ANALYZE — targets a
    [sys.*] system view; the payload is the canonical view name.
    {!execute} folds it into [Error "... is a read-only system view"]. *)

val execute :
  Context.t -> user:string -> Ast.statement -> (outcome, string) result
(** Evaluate one statement.  SQL-level failures return [Error];
    {!Read_only}, {!Bdbms_util.Cancel.Cancelled} (statement deadline)
    and {!Bdbms_storage.Backend.Io_degraded} (retry budget exhausted)
    propagate as exceptions: [Db.statement], the one statement
    boundary, sorts them into error classes. *)

val analyze_query :
  Context.t ->
  user:string ->
  Ast.query ->
  Analyze.node option * Bdbms_annotation.Propagate.t * Bdbms_util.Timer.ns
(** Execute [q] with the {!Analyze} recorder installed: the recorded
    operator tree (if any), the result rows, and total wall time.  This
    is [EXPLAIN ANALYZE] before rendering; exposed so tests can compare
    per-node actuals against the naive oracle. *)

val explain_query : Context.t -> user:string -> Ast.query -> Analyze.node
(** [EXPLAIN] before rendering: the estimate tree of [q]'s batch plan —
    the nodes {!analyze_query} meters — built after the same ACL checks,
    lookups and planning as the query, and failing where it would.
    Nothing is executed. *)

val reanalyze_stale : Context.t -> unit
(** Re-run ANALYZE for every registered table whose statistics are marked
    stale (by DML churn or EXPLAIN ANALYZE drift feedback); entries for
    dropped tables are discarded.  [Db.exec] and [Db.exec_script] call
    this after their statements, before the commit. *)

val render : outcome -> string
(** Human-readable rendering: a table of rows with their annotations
    footnoted, an affected-row count, or a message. *)
