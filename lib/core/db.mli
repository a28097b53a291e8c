(** The bdbms database: the public entry point.

    A [Db.t] assembles the full engine of the paper's architecture
    (Section 2) — storage, catalog, annotation manager, provenance
    manager, dependency tracker, and both authorization models — behind
    one A-SQL interface.

    {[
      let db = Db.create () in
      Db.exec_exn db "CREATE TABLE Gene (GID TEXT, GSequence DNA)";
      Db.exec_exn db "INSERT INTO Gene VALUES ('JW0080', 'ATGATGGAA')";
      Db.exec_exn db "CREATE ANNOTATION TABLE notes ON Gene";
      Db.exec_exn db
        "ADD ANNOTATION TO Gene.notes VALUE 'curated' ON (SELECT * FROM Gene)";
      print_endline
        (Db.render_exn db "SELECT GID FROM Gene ANNOTATION(notes)")
    ]} *)

type t

val create :
  ?page_size:int ->
  ?pool_pages:int ->
  ?policy:Bdbms_storage.Pager.policy ->
  ?path:string ->
  ?fault:Bdbms_storage.Fault.t ->
  unit ->
  t
(** A fresh database.  The bio procedures ["P"] (gene→protein
    translation), ["MolWeight"], and ["BLAST"] are pre-registered for
    [CREATE DEPENDENCY].  With [path] the page store is durable (database
    file + write-ahead log, crash recovery at open) and every successful
    statement is auto-committed; without it the database is in-memory.

    Reopening an existing file is self-bootstrapping: crash recovery
    replays the write-ahead log, then the page-0 durable catalog rebuilds
    every manager — tables, annotation tables and registry, dependency
    rules and instances, outdated marks, users/groups/grants, the
    approval log, provenance tools, and index definitions — with zero
    manual re-registration.  [fault] injects crash points for recovery
    testing.
    @raise Bdbms_storage.Backend.Corrupt when a stored page or the
    catalog fails CRC verification. *)

val context : t -> Bdbms_asql.Context.t
(** Direct access to the assembled managers, for programmatic use. *)

val exec :
  t -> ?user:string -> string -> (Bdbms_asql.Executor.outcome, string) result
(** Execute one A-SQL statement as [user] (default the superuser
    ["admin"]). *)

val exec_exn : t -> ?user:string -> string -> Bdbms_asql.Executor.outcome
(** @raise Failure on parse or execution errors. *)

val exec_script :
  t -> ?user:string -> string -> (Bdbms_asql.Executor.outcome list, string) result
(** Execute a [;]-separated script, stopping at the first error.  On a
    durable database a failing script rolls back: the uncommitted WAL
    tail is abandoned and the engine re-bootstraps from the last
    committed state, so no partial effects survive. *)

val render_exn : t -> ?user:string -> string -> string
(** Execute and render human-readable output. *)

(** {1 Server entry points}

    Used by the multi-session server ([Bdbms_server]), which owns
    transaction boundaries itself.  Regular callers want {!exec}. *)

val exec_nocommit :
  t ->
  ?user:string ->
  ?session:int ->
  ?timeout_ms:float ->
  string ->
  (Bdbms_asql.Executor.outcome, string) result
(** Execute one statement {e without} auto-commit or auto-rollback: the
    caller replays a transaction's buffered statements with this, then
    seals the batch with {!commit} (one WAL flush for the whole group) or
    discards it with {!force_rollback}.  [timeout_ms] overrides the
    handle-level {!set_stmt_timeout_ms} for this statement.  Unlike
    {!exec}, the fault-lifecycle exceptions
    ({!Bdbms_util.Cancel.Cancelled}, {!Bdbms_asql.Executor.Read_only},
    {!Bdbms_storage.Backend.Io_degraded}) propagate to the caller, which
    owns the transaction boundary. *)

val force_rollback : t -> unit
(** Abandon everything since the last commit and re-bootstrap the engine
    from the committed state (no-op on an in-memory database). *)

val set_on_first_dirty :
  t ->
  (Bdbms_storage.Page.id -> Bdbms_storage.Page.t -> unit) option ->
  unit
(** Install (or clear) the pager's clean→dirty pre-image observer
    ({!Bdbms_storage.Disk.set_on_first_dirty}), keeping it installed
    across the context recreation a rollback performs.  The snapshot
    version store captures committed page images here. *)

val register_builtin_procedures : Bdbms_asql.Context.t -> unit
(** Register the bio procedures (["P"], ["MolWeight"], ["BLAST"]) into a
    caller-assembled context — required before [Context.bootstrap] so
    persisted dependency chains rebind; [create] does this itself. *)

val set_strict_acl : t -> bool -> unit
(** Enforce GRANT/REVOKE for non-admin users (off by default). *)

val set_auto_provenance : t -> bool -> unit
(** Record Local_insert / Local_update provenance on every DML (off by
    default). *)

val set_exec_mode : t -> Bdbms_asql.Context.exec_mode -> unit
(** Select the SELECT engine: [`Naive] materializes every intermediate
    (the differential-testing oracle), [`Tuple] is the pipelined volcano
    executor, [`Batch] (the default) the vectorized engine over column
    batches, which transparently falls back to the tuple path for
    annotated queries and uncovered plan shapes (counted in
    {!io_stats}'s [batch_fallbacks]). *)

val exec_mode : t -> Bdbms_asql.Context.exec_mode

val set_batch_rows : t -> int -> unit
(** Rows per column batch on the [`Batch] path (default 1024).
    @raise Invalid_argument when not positive. *)

val set_stmt_timeout_ms : t -> float option -> unit
(** Arm (or disarm with [None]) the default statement deadline: any
    statement running at least this long is cooperatively cancelled at
    its next checkpoint (page pin, every 64 tuples, every batch, or
    between I/O retry sleeps), rolled back, and returned as an [Error].
    A timeout of [0] cancels at the very first checkpoint.
    @raise Invalid_argument when negative. *)

val stmt_timeout_ms : t -> float option

val degraded : t -> string option
(** [Some reason] while the engine is in read-only degraded mode (an
    I/O retry budget was exhausted): reads keep serving from the last
    committed state, writes fail fast with a retryable error.  A health
    probe runs at the next statement and re-arms write mode once I/O
    recovers. *)

val enter_degraded : t -> string -> unit
(** Force read-only degraded mode (normally triggered internally by
    {!Bdbms_storage.Backend.Io_degraded}): records the reason, bumps the
    [degraded] gauge/counter, and re-bootstraps from the last committed
    state under its own bounded retry.  Used by the server engine when a
    transaction's I/O gives out. *)

val try_heal : t -> unit
(** Run one I/O health probe if degraded; on success clear degraded mode
    and re-arm writes.  No-op when healthy. *)

val durable : t -> bool

val commit : t -> (unit, string) result
(** Make all writes so far durable (no-op on an in-memory database).
    [exec]/[exec_script] already do this after each successful call.
    [Error] once the database is closed. *)

val checkpoint : t -> (unit, string) result
(** Store dirty pages to the database file and reset the write-ahead
    log.  [Error] once the database is closed. *)

val close : t -> unit
(** Checkpoint and release the database files.  The handle is dead
    afterwards: [exec]/[commit]/[checkpoint] return
    [Error "database is closed"], and closing again is a no-op. *)

val is_closed : t -> bool

val recovery_info : t -> Bdbms_storage.Recovery.outcome option
(** What crash recovery replayed when this database was opened. *)

val catalog_records : t -> int
(** How many durable-catalog records the open bootstrapped (0 for a
    fresh or in-memory database). *)

val io_stats : t -> Bdbms_obs.Stats.snapshot
(** Every counter and gauge of the handle.  Counters are monotonic for
    the life of the handle (a rollback's re-bootstrap keeps counting), so
    measure an operation with {!Bdbms_obs.Stats.diff} of two readings. *)

(** {1 Observability}

    Every handle owns one {!Bdbms_obs.Obs.t} shared with the storage
    layer and the executor; it survives the context recreation a rollback
    performs, so counters, histograms and traces accumulate across
    transactions. *)

val obs : t -> Bdbms_obs.Obs.t
(** The handle's trace ring, counter group and metrics registry, for
    programmatic use. *)

val metrics : t -> string
(** Prometheus-style text exposition of every {!io_stats} slot
    ([bdbms_<name>_total], or [bdbms_<name>] for a gauge) and every
    latency histogram (statement execution, WAL group flush, eviction
    write-back, catalog root swap, checkpoint, recovery). *)

val qlog : t -> Bdbms_obs.Qlog.t
(** The structured query log: slow-statement ring (feeds
    [sys.slow_queries]) and sampling JSONL sink.  Every statement run
    through this handle is recorded with its user, duration, row count
    and trace id; [session] on {!exec_nocommit} attributes server-side
    statements to their connection. *)

val set_tracing : t -> bool -> unit
(** Turn hierarchical trace-span recording on or off (off by default;
    the disabled path costs one branch per span site). *)

val tracing : t -> bool

val trace_tree : t -> string
(** The recorded spans as an indented tree (most recent window of the
    fixed-size ring). *)

val trace_json : t -> string
(** The recorded spans as a flat JSON array. *)

val set_slow_ms : t -> float option -> unit
(** Arm (or disarm with [None]) the slow-query log: any statement whose
    wall time reaches the threshold prints its text and span tree to
    stderr.  Arming also enables tracing so the spans exist. *)

val slow_ms : t -> float option
