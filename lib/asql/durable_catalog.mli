(** The durable catalog codec: every piece of engine metadata — table
    heads, annotation-table definitions, the annotation
    registry, dependency rules and instances, outdated marks, principals,
    ACL grants, the approval log, provenance tool registrations, index
    definitions and the logical clock — serialized as versioned,
    CRC-framed records into one blob.  {!Meta_page} anchors the blob at
    page 0; {!Context} writes it at every durable commit and feeds it
    back through {!restore} when a database file is reopened, so
    [Db.create ~path] bootstraps the full engine with zero manual
    re-registration.

    Blob layout: ["BCAT"] magic, u32 format version, u32 record count,
    then records.  Record: u8 tag, u32 payload length, payload, u32
    CRC-32 of the payload.  Unknown tags are skipped on restore (forward
    compatibility); a bad record CRC raises {!Malformed}.

    Format 2: a user table is one fixed-size head record (tag 19: name,
    schema, row-map root, row count, live count, heap tail page, heap
    page count — {!Bdbms_relation.Table.head}).  Its rows are reached
    through the row map in the table's own pages, so a table's record
    does not grow with its rows.  Format 1 kept every table's page list
    and whole slot directory in the blob (tag 2); it is refused with
    {!Unsupported_version}. *)

exception Malformed of string
(** The blob (already page- and blob-CRC-verified by {!Meta_page})
    fails record-level verification or refers to impossible state. *)

exception Unsupported_version of { found : int; supported : int }
(** The blob is a well-formed catalog of another format version. *)

val version : int
(** The format this engine writes and reads: 2. *)

type index_info = { ix_name : string; ix_table : string; ix_column : string }
(** A secondary-index definition, decoupled from {!Context.index_def}
    so the codec does not depend on the context (trees are not
    serialized — they are rebuilt lazily on first use). *)

(** The component handles the codec reads from / writes into.  Passing
    them explicitly (rather than a [Context.t]) keeps the dependency
    arrow pointing one way. *)
type components = {
  dc_clock : Bdbms_util.Clock.t;
  dc_catalog : Bdbms_relation.Catalog.t;
  dc_ann : Bdbms_annotation.Manager.t;
  dc_prov : Bdbms_provenance.Prov_store.t;
  dc_tracker : Bdbms_dependency.Tracker.t;
  dc_principals : Bdbms_auth.Principal.t;
  dc_acl : Bdbms_auth.Acl.t;
  dc_approval : Bdbms_auth.Approval.t;
}

val encode : components -> indexes:index_info list -> stats:string list -> Bytes.t
(** Deterministic: dumps are sorted, so identical metadata encodes to
    identical bytes.  [stats] carries the optimizer-statistics blobs
    (one opaque, internally versioned record per analyzed table,
    produced by [Bdbms_stats.Registry.encode_all]) — the catalog frames
    them under its own tag without looking inside. *)

val restore :
  Bdbms_storage.Pager.t -> components -> Bytes.t ->
  index_info list * string list * int
(** Feed a blob back into freshly created (empty) components; returns
    the index definitions to re-register, the opaque statistics blobs
    to hand back to [Bdbms_stats.Registry.restore], and the number of
    catalog records replayed.  Procedure chains are rebound against the
    tracker's registry by name: a procedure registered before restore
    (e.g. the built-in bio tools) keeps its executable body and adopts
    the persisted version; a missing one becomes a non-executable
    placeholder, so its targets can still be marked outdated.
    @raise Malformed on a framing or record-CRC failure.
    @raise Unsupported_version on a catalog of another format. *)
