(** The concurrency engine: one shared durable {!Bdbms.Db.t} behind
    snapshot-isolated transactions with group commit.

    Sessions run transactions against private snapshots (a
    copy-on-write {!Bdbms_storage.Disk.overlay} whose base reads come
    from the {!Version_store} at the transaction's horizon), so readers
    never block behind writers and never observe a partial transaction.
    Write statements execute against the snapshot (read-your-own-writes)
    {e and} are buffered; at commit they are replayed onto the canonical
    engine by a single committer that drains all concurrently queued
    transactions and seals the batch with one WAL fsync — group commit.

    Conflicts are first-writer-wins at table granularity: if any commit
    sealed after this transaction's horizon wrote a table in this
    transaction's footprint (tables its write statements read or wrote;
    DDL is a wildcard), the commit fails with {!Conflict} and the client
    may retry on a fresh snapshot. *)

type t

type error = Bdbms.Db.error =
  | Sql of string  (** parse/execution/authorization error — not retryable *)
  | Conflict of string  (** first-writer-wins abort — retry on a fresh snapshot *)
  | Busy of string  (** transient resource exhaustion (e.g. pager pool) — retryable *)
  | Timeout of string
      (** statement deadline expired; rolled back — not retryable (the
          same deadline would expire again) *)
  | Degraded of string
      (** engine is in read-only degraded mode after an exhausted I/O
          retry budget — retryable (a health probe re-arms writes once
          I/O recovers) *)
  | Closed  (** the engine is shut down *)

val error_message : error -> string

val create :
  ?page_size:int ->
  ?pool_pages:int ->
  ?snapshot_pool_pages:int ->
  ?strict_acl:bool ->
  ?fault:Bdbms_storage.Fault.t ->
  path:string ->
  unit ->
  t
(** Open (or create) the database file at [path] and wrap it for
    concurrent use.  Always durable: snapshots bootstrap from the
    committed page-0 catalog and rollback re-bootstraps from disk, so a
    file path is required.  [snapshot_pool_pages] bounds each
    transaction overlay's frame table (default 128).
    @raise Bdbms_storage.Backend.Locked if another handle (this process
    or another) has the file open. *)

val db : t -> Bdbms.Db.t
(** The canonical engine.  Exposed for wiring (stats, metrics, obs);
    arbitrary concurrent [Db.exec] calls through it would bypass the
    engine lock — use {!execute}. *)

val obs : t -> Bdbms_obs.Obs.t
(** The canonical handle's observability: session, frame, conflict and
    group-commit counts go into its counter group beside the storage
    counters. *)

val version_store : t -> Version_store.t

val execute :
  t ->
  ?user:string ->
  ?session:int ->
  ?exec_mode:Bdbms_asql.Context.exec_mode ->
  ?timeout_ms:float ->
  ?trace_id:int ->
  string ->
  (Bdbms_asql.Executor.outcome, error) result
(** Autocommit path: parse one statement and run it through
    {!Bdbms.Db.statement} (the one statement boundary: trace id, span,
    deadline, observation, fault classes) on the canonical engine under
    the engine lock, then commit (sealing a version-store cycle) or abort
    the cycle, and return.
    Never conflicts — it runs at the head of history.  [exec_mode]
    overrides the SELECT engine for this statement only (the session
    [\exec] setting); the canonical engine's mode is restored after.
    [timeout_ms] arms a cooperative deadline on the statement: on expiry
    it is rolled back and answered with {!Timeout}.  [session] (the
    wire session id) and [trace_id] (the client-stamped request id, 0 =
    none) flow into the statement's trace spans and query-log entry.
    When degraded, a health probe runs first; if still degraded, write
    statements are refused with {!Degraded}. *)

(** {1 Explicit transactions} *)

type txn

val begin_txn : t -> ?user:string -> unit -> (txn, error) result
(** Take a snapshot: pin the current CSN as the horizon and build a
    private engine over a copy-on-write overlay.  A fault while
    bootstrapping it is classified like a snapshot statement's (e.g.
    {!Busy} when a base read finds the canonical pool exhausted) and
    releases the horizon; {!Closed} once the engine is shut down. *)

val txn_exec :
  txn ->
  ?session:int ->
  ?timeout_ms:float ->
  ?trace_id:int ->
  string ->
  (Bdbms_asql.Executor.outcome, error) result
(** Execute a statement inside the transaction: parsed once and run
    through {!Bdbms.Db.statement} against its snapshot, which records its
    one observation and sorts its faults into error classes.  Write
    statements also enter the replay buffer, parsed, with their text.  After any error the
    transaction is failed: subsequent statements return [Sql] errors
    until rollback (commit will also refuse).  [timeout_ms] arms a
    cooperative deadline on this statement (expiry fails the transaction
    with {!Timeout}); [session]/[trace_id] attribute its query-log entry
    and spans like {!execute}.  While the engine is degraded, write
    statements are refused with {!Degraded} rather than buffered, since
    commit replay would refuse them anyway. *)

val commit_txn : txn -> (int, error) result
(** Commit: conflict-check against commits sealed after the horizon,
    replay the buffered writes on the canonical engine
    ({!Bdbms.Db.replay}: executed again, neither re-parsed nor
    re-observed; their cost shows in the commit's own latency and
    trace), group-commit
    with concurrently arriving transactions (one WAL fsync per batch),
    and return this transaction's position in the global commit order
    (0 for a read-only transaction, which commits trivially).  The
    transaction is finished afterwards regardless of outcome. *)

val rollback_txn : txn -> unit
(** Discard the transaction: drop the overlay and release the horizon. *)

val txn_user : txn -> string
val txn_active : txn -> bool

val txn_set_exec_mode : txn -> Bdbms_asql.Context.exec_mode -> unit
(** Apply a session [\exec] override to the transaction's snapshot
    context (it begins with the canonical engine's mode). *)

val close : t -> unit
(** Checkpoint and close the canonical engine.  In-flight transactions
    fail with {!Closed} at their next commit. *)
