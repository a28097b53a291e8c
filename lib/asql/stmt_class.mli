(** Statement classification for snapshot-isolated transactions.

    The conflict detector works at table granularity: a transaction's
    write set is the tables its buffered statements mutate, and
    first-writer-wins compares that against the tables later commits
    touched after this transaction's snapshot horizon.  Because a
    committed transaction is {e replayed} against the canonical engine,
    a write statement's {e read} tables matter too — if another commit
    changed a table the statement reads, the replay could compute
    different effects than the snapshot execution did, so those reads
    are part of the conflict footprint.

    Schema and metadata statements (DDL, grants, approval control,
    dependencies, indexes) get the wildcard footprint [ddl = true]:
    they conflict with any concurrent write. *)

type t = {
  reads : string list;  (** user tables read (lowercased, deduplicated) *)
  writes : string list;  (** user tables mutated *)
  ddl : bool;  (** touches shared metadata: conflicts with everything *)
}

val classify : Ast.statement -> t

val is_write : t -> bool
(** Whether the statement mutates tables or metadata: a server
    transaction buffers it and replays it at commit instead of running
    it read-only against the snapshot, and the executor refuses it in
    read-only degraded mode ([COPY TO] exports to a file and is not a
    write). *)
