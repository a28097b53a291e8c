(** The engine-wide statistics registry: one {!Table_stats.t} per
    analyzed table, keyed case-insensitively by table name.

    The registry also owns the wire codec: each table's statistics
    serialize to one self-contained versioned blob, which the durable
    catalog stores opaquely (it never links against this library's
    internals — blobs written by a newer stats version are simply
    dropped on restore, and the table reverts to heuristics until the
    next ANALYZE). *)

type t

val create : unit -> t
val find : t -> string -> Table_stats.t option
val set : t -> Table_stats.t -> unit
val remove : t -> string -> unit
val all : t -> Table_stats.t list
(** Sorted by table name, for deterministic persistence. *)

val stale : t -> Table_stats.t list
(** Entries whose distribution shape is no longer trusted. *)

(** DML delta hooks: no-ops when the table was never analyzed. *)

val note_insert : t -> string -> Bdbms_relation.Tuple.t -> unit
val note_update : t -> string -> col:int -> Table_stats.Value.t -> unit
val note_delete : t -> string -> Bdbms_relation.Tuple.t -> unit

val mark_stale : t -> string -> bool
(** [true] when the table had fresh stats that are now marked stale
    (i.e. this call changed something). *)

val encode_table : Table_stats.t -> string
(** One versioned blob. *)

val decode_table : string -> Table_stats.t option
(** [None] on an unknown version or malformed input — never raises. *)

val encode_all : t -> string list
val restore : t -> string list -> unit
(** Decode blobs into the registry, silently dropping undecodable
    ones. *)

val version : t -> int
(** Moves whenever {!set}, {!remove}, a delta hook on an analyzed table
    or {!mark_stale} changes what {!encode_all} reports (never
    backwards); the durable catalog reads it to skip re-encoding. *)
