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
    catalog fails CRC verification.
    @raise Bdbms_asql.Durable_catalog.Unsupported_version when the file
    holds a catalog of another format (the file is released first). *)

val context : t -> Bdbms_asql.Context.t
(** Direct access to the assembled managers, for programmatic use. *)

val exec :
  t -> ?user:string -> string -> (Bdbms_asql.Executor.outcome, string) result
(** Execute one A-SQL statement as [user] (default the superuser
    ["admin"]): parse it, run it through {!statement}, re-ANALYZE the
    tables whose statistics went stale and commit; a failed statement
    rolls back. *)

val exec_exn : t -> ?user:string -> string -> Bdbms_asql.Executor.outcome
(** @raise Failure on parse or execution errors. *)

val exec_script :
  t -> ?user:string -> string -> (Bdbms_asql.Executor.outcome list, string) result
(** Execute a [;]-separated script, stopping at the first error.  Each
    statement runs through {!statement} with its own text; the script
    commits once, after the last.  On a
    durable database a failing script rolls back: the uncommitted WAL
    tail is abandoned and the engine re-bootstraps from the last
    committed state, so no partial effects survive. *)

val render_exn : t -> ?user:string -> string -> string
(** Execute and render human-readable output. *)

(** {1 The statement boundary}

    Every A-SQL statement runs through {!statement}: {!exec},
    {!exec_script}, the server engine's autocommit and transaction
    statements, and the shell's [-f] scripts.  What follows the
    statement (commit, rollback, re-ANALYZE) is the caller's. *)

type error =
  | Sql of string  (** parse/execution/authorization error *)
  | Conflict of string  (** first-writer-wins abort (the server engine's) *)
  | Busy of string  (** buffer pool exhausted *)
  | Timeout of string  (** statement deadline expired *)
  | Degraded of string
      (** read-only degraded mode, or an exhausted I/O retry budget *)
  | Closed  (** the handle is closed *)

val error_message : error -> string

val statement :
  t ->
  ?snapshot:Bdbms_asql.Context.t ->
  user:string ->
  ?session:int ->
  ?timeout_ms:float ->
  ?trace_id:int ->
  sql:string ->
  Bdbms_asql.Ast.statement ->
  (Bdbms_asql.Executor.outcome, error) result
(** Run one statement, parsed from [sql], on the handle's own context or
    on a transaction [snapshot]'s, neither committing nor rolling back.
    Once per statement it installs [trace_id] (0: a fresh local id) as
    the ambient trace id, opens the ["execute"] span, applies the
    deadline ([timeout_ms], else {!set_stmt_timeout_ms}'s default),
    records one observation — the [stmt_hist] sample, the query-log
    entry (with [session], the wire session id, 0 = local) and the slow
    log — and sorts the fault-lifecycle exceptions
    ({!Bdbms_util.Cancel.Cancelled}, {!Bdbms_asql.Executor.Read_only},
    {!Bdbms_storage.Backend.Io_degraded},
    {!Bdbms_storage.Pager.Pool_exhausted}) into {!error} classes.  On
    the handle's own context a degraded handle runs a health probe
    first, and an exhausted I/O retry budget marks it degraded; the
    caller's {!force_rollback} then re-bootstraps it read-only. *)

val classified :
  t -> own:bool -> (unit -> ('a, error) result) -> ('a, error) result
(** [f ()] with {!statement}'s fault classes; [own]: on the handle's own
    context, where an exhausted I/O retry budget marks it degraded. *)

val replay :
  t -> user:string -> Bdbms_asql.Ast.statement ->
  (Bdbms_asql.Executor.outcome, error) result
(** Run a statement already observed on a transaction snapshot on the
    handle's own context for commit replay: {!statement}'s span,
    deadline and fault classes, without a second observation. *)

val force_rollback : t -> unit
(** Abandon everything since the last commit and re-bootstrap the engine
    from the committed state (no-op on an in-memory database).  When the
    re-bootstrap's own I/O fails, enter read-only degraded mode, whose
    entry retries it with backoff. *)

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
    (the differential-testing oracle), [`Batch] (the default) is the
    vectorized engine over column batches.  Under [`Batch], annotated
    queries run the same engine and get annotation envelopes attached to
    their result rows (each counted in {!io_stats}'s [batch_fallbacks]). *)

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

val try_heal : t -> unit
(** Run one I/O health probe if degraded; on success clear degraded mode
    and re-arm writes.  No-op when healthy. *)

val durable : t -> bool

val commit : t -> (unit, error) result
(** Make all writes so far durable (no-op on an in-memory database).
    [exec]/[exec_script] already do this after each successful call.
    I/O faults are classified like {!statement}'s; the caller rolls
    back.  [Error Closed] once the database is closed. *)

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
    and trace id, once, at {!statement}; its [session] attributes
    server-side statements to their connection. *)

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
