(** The assembled bdbms engine: every manager from the architecture of
    Section 2 wired over one buffer pool, one catalog, and one logical
    clock.  The A-SQL executor runs against this; the [Bdbms.Db] facade
    owns one. *)

type exec_mode = [ `Naive | `Batch ]
(** The two SELECT engines.  [`Naive] materializes every intermediate
    result (the semantic oracle for equivalence tests), [`Batch] is the
    vectorized pipeline over column batches with selection vectors.
    Under [`Batch], annotated/ASQL-extended queries (ANNOTATION, AWHERE,
    provenance propagation) take the materialized annotated path
    instead, each counted in [Stats.batch_fallbacks]. *)

val exec_modes : (string * exec_mode) list
(** Every engine under its user-facing name, in the order help texts
    list them. *)

val exec_mode_of_string : string -> exec_mode option
(** Case-insensitive lookup in {!exec_modes}. *)

val exec_mode_name : exec_mode -> string

(** A secondary B+-tree index over one column of a user table.  Indexes
    are maintained incrementally by the executor's DML paths; mutations
    that bypass the executor (approval inverse statements, dependency
    re-derivations) mark them dirty, and a dirty index is rebuilt from a
    table scan on its next use. *)
type index_def = {
  idx_name : string;
  idx_table : string;
  idx_column : string;
  mutable tree : Bdbms_index.Btree.t;
  mutable built : bool;
  mutable dirty : bool;
}

type t = {
  disk : Bdbms_storage.Disk.t;
  bp : Bdbms_storage.Pager.t;
  clock : Bdbms_util.Clock.t;
  catalog : Bdbms_relation.Catalog.t;
  ann : Bdbms_annotation.Manager.t;
  prov : Bdbms_provenance.Prov_store.t;
  tracker : Bdbms_dependency.Tracker.t;
  principals : Bdbms_auth.Principal.t;
  acl : Bdbms_auth.Acl.t;
  approval : Bdbms_auth.Approval.t;
  mutable strict_acl : bool;
      (** when on, non-admin DML and SELECT require GRANTs *)
  mutable auto_provenance : bool;
      (** when on, DML records Local_insert / Local_update provenance *)
  mutable exec_mode : exec_mode;
      (** which SELECT engine runs; the default is [`Batch] *)
  mutable batch_rows : int;
      (** rows per column batch on the [`Batch] path (default 1024;
          tests use 1 as the degenerate case) *)
  indexes : (string, index_def) Hashtbl.t;
      (** by lowercase index name *)
  tstats : Bdbms_stats.Registry.t;
      (** per-table optimizer statistics: ANALYZE results maintained
          incrementally by the DML paths, consumed by [Plan]/[Cost] for
          selectivity and join ordering, persisted through the durable
          catalog as opaque versioned blobs *)
  obs : Bdbms_obs.Obs.t;
      (** trace spans + metrics; shared with the disk manager and WAL,
          and carried across [Db.rollback]'s context recreation *)
  cancel : Bdbms_util.Cancel.t;
      (** cooperative cancellation/deadline token; also attached to the
          pager (checked at every pin) and the backend retry loops *)
  mutable read_only : string option;
      (** [Some reason] while the engine is in read-only degraded mode:
          write statements fail fast with a retryable error, reads keep
          serving from clean pages *)
  mutable analyze : Analyze.t option;
      (** installed by the executor for the duration of an
          [EXPLAIN ANALYZE] statement; [None] otherwise *)
  mutable session_label : string option;
      (** owning session (server mode), for trace-span attribution *)
  mutable sys_providers :
    (string * (unit -> Bdbms_relation.Tuple.t list)) list;
      (** extra row sources for [sys.*] virtual tables, keyed by view
          name (e.g. ["sys.sessions"]).  The server installs the
          live-session provider here; an entry shadows the view's
          built-in local fallback.  Copied across [Db.rollback]'s
          context recreation and into transaction snapshots. *)
}

val create :
  ?page_size:int -> ?pool_pages:int -> ?policy:Bdbms_storage.Pager.policy ->
  ?path:string -> ?disk:Bdbms_storage.Disk.t ->
  ?fault:Bdbms_storage.Fault.t ->
  ?obs:Bdbms_obs.Obs.t ->
  unit -> t
(** A fresh engine.  The superuser ["admin"] and the system actor exist
    from the start; approval inverse execution is wired into the
    dependency tracker.  [pool_pages] bounds the pager's frame table
    (durable default 256; in-memory default unbounded).  With [path],
    the page store is durable: backed by a database file and write-ahead
    log, with crash recovery run at open (see
    {!Bdbms_storage.Disk.open_file}).  With [disk], the engine runs over
    the caller's store instead of constructing one — this is how the
    multi-session server builds a transaction snapshot: an engine over a
    copy-on-write {!Bdbms_storage.Disk.overlay}, bootstrapped from the
    committed catalog visible through the overlay's base. *)

val durable : t -> bool

val with_deadline : t -> ?timeout_ms:float -> (unit -> 'a) -> 'a
(** Run a thunk under a statement deadline (no-op without [timeout_ms]);
    previous cancellation state is restored on exit.  Expired deadlines
    surface as {!Bdbms_util.Cancel.Cancelled} from the next cooperative
    checkpoint. *)

val bootstrap : t -> int
(** Rebuild the engine's logical state from the page-0 durable catalog:
    table schemas reattach to their heap pages, annotation tables and
    the registry return, dependency rules rebind their procedure chains
    against the registry (so call this {e after} registering built-in
    procedures), grants, approval log, provenance tools and index
    definitions come back.  Returns the number of catalog records
    replayed (0 on a fresh or in-memory database).
    @raise Bdbms_storage.Backend.Corrupt on a CRC failure,
    @raise Durable_catalog.Malformed on a framing failure. *)

val encode_catalog : t -> Bytes.t
(** The current metadata as a {!Durable_catalog} blob: what
    {!persist_catalog} hands to the page-0 root. *)

val persist_catalog : t -> unit
(** Serialize the current metadata into the page-0 catalog (done
    automatically by {!commit}, {!checkpoint} and {!close}).  A blob
    identical to the live root's writes nothing
    ({!Bdbms_storage.Meta_page.write_root}). *)

val commit : t -> unit
(** Write back dirty pager frames (appending their redo records) and
    group-flush the write-ahead log with a commit marker (no-op when not
    durable). *)

val checkpoint : t -> unit
(** {!commit}, then store dirty pages to the database file and reset the
    log. *)

val close : t -> unit
(** Checkpoint (unless crashed) and release the database files. *)

val register_procedure :
  t -> Bdbms_dependency.Procedure.t -> (unit, string) result
(** Make an executable/non-executable procedure available to
    [CREATE DEPENDENCY ... USING name]. *)

val superuser : string
(** ["admin"], exempt from ACL checks. *)

val indexes_on : t -> table:string -> index_def list
(** All indexes registered over a table. *)

val mark_indexes_dirty : t -> table:string -> unit
(** Called when a table is mutated behind the executor's back. *)

val index_key : Bdbms_relation.Value.t -> string
(** Order-preserving byte encoding of a value as an index key. *)
