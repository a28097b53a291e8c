(** The [sys.*] introspection views: live engine state — metrics,
    histograms, sessions, table statistics, the slow-query ring, and
    trace spans — surfaced as read-only virtual relations that the
    regular planner and every SELECT engine scan like tables (the batch
    engine batches their snapshot rows, {!Vexec.of_tuples}).

    Views materialize a consistent snapshot at plan time and are not in
    the catalog: writes against them raise
    {!Executor.View_read_only}, ANALYZE never visits them, and the
    server can inject live rows (e.g. the session table) through
    {!Context.t.sys_providers}. *)

val is_sys : string -> bool
(** Case-insensitive ["sys."] name-prefix test. *)

val is_privileged : string -> bool
(** [sys.sessions] and [sys.slow_queries] expose other users' activity,
    so they require an explicit SELECT grant (or the superuser) even
    outside strict-ACL mode. *)


val schema_of : string -> Bdbms_relation.Schema.t option
(** Schema of a view by (case-insensitive) name. *)

val materialize :
  Context.t -> user:string -> string -> Plan.rel option
(** Snapshot one view as a {!Plan.Virtual} relation; [None] for an
    unknown [sys.*] name.  [user] labels the local fallback row of
    [sys.sessions] when no server provider is installed. *)
