(** Per-connection session state over a shared {!Engine.t}.

    A session carries an authenticated user, at most one open
    transaction, and its conflict bookkeeping.  Many sessions share one
    engine; their statements interleave freely — reads run against
    snapshots, writes group-commit.

    The session layer is also where transaction-control statements
    ([BEGIN] / [COMMIT] / [ROLLBACK]) are intercepted: they are session
    state changes, not engine statements. *)

type t

type reply =
  | Outcome of Bdbms_asql.Executor.outcome
  | Began
  | Committed of int
      (** position in the global commit order (0 = read-only) *)
  | Rolled_back

val create : Engine.t -> user:string -> (t, Engine.error) result
(** Authenticate [user] (must exist in the shared engine's principal
    store, or be the superuser) and open a session.  Bumps the
    [sessions_opened] counter and the sessions-in-flight gauge. *)

val id : t -> int
val user : t -> string
val in_txn : t -> bool

val sys_rows : Engine.t -> Bdbms_relation.Tuple.t list
(** Live rows for the [sys.sessions] virtual table: one per open session
    on this engine (id, user, idle/txn state, in-flight statement,
    conflict streak), in id order.  The server installs
    [fun () -> sys_rows engine] as the ["sys.sessions"] provider on the
    canonical context. *)

val set_exec_mode : t -> Bdbms_asql.Context.exec_mode option -> unit
(** Install (or with [None] clear) the session's SELECT-engine override
    (the [\exec] control op).  Applies to subsequent autocommit
    statements, to transactions this session begins, and immediately to
    an already-open transaction. *)

val exec_mode : t -> Bdbms_asql.Context.exec_mode
(** The engine the session's next statement will run under (the
    override, or the shared engine's default). *)

val set_stmt_timeout_ms : t -> float option -> unit
(** Install (or with [None] clear) the session's default statement
    deadline (the [\timeout] control op).  A query frame carrying its
    own deadline overrides it for that statement.
    @raise Invalid_argument when negative. *)

val stmt_timeout_ms : t -> float option

val execute :
  t -> ?timeout_ms:float -> ?trace_id:int -> string -> (reply, Engine.error) result
(** Run one statement: [BEGIN]/[COMMIT]/[ROLLBACK] (and their synonyms)
    drive the session's transaction; anything else executes inside the
    open transaction, or autocommits on the engine when none is open.
    [timeout_ms] (from the query frame) overrides the session's default
    deadline for this statement.  [trace_id] (from a protocol-2 query
    frame; 0 = none) tags the statement's trace spans and query-log
    entry so a wire request can be followed through the engine.
    Transient errors ([Busy], [Conflict], [Degraded]) and deadline
    expiries ([Timeout]) fail the statement (and abort an open
    transaction) but never the session. *)

type control = Begin_txn | Commit_txn | Rollback_txn

val control_of : string -> control option
(** [BEGIN], [COMMIT], [ROLLBACK] or a synonym, in any case, a trailing
    [;] allowed: {!execute} runs these on the session, not the engine. *)

val close : t -> unit
(** Roll back any open transaction and release the session (drops the
    sessions gauge).  Idempotent. *)
