(** The provenance manager (Section 4): provenance treated as a
    system-maintained category of annotations.

    Per the paper, end-users are not allowed to insert or update
    provenance; only the system and registered integration tools may.
    Every user table gets a reserved annotation table ["_provenance"]
    (compact scheme) the moment its first record arrives; records are
    schema-validated XML ({!Prov_record.xml_schema}).  Figure 8's query —
    "what is the source of this value at time T?" — is {!source_at}. *)

type t

val create : Bdbms_annotation.Manager.t -> t

val reserved_table_name : string
(** ["_provenance"]. *)

val register_tool : t -> string -> unit
(** Allow an integration tool (actor name) to record provenance. *)

val tools : t -> string list
(** Registered tool actors (sorted) — for the durable catalog. *)

val version : t -> int
(** Moves whenever a mutator above changes what {!tools} reports (never
    backwards); the durable catalog reads it to skip re-encoding. *)

val is_authorized_actor : t -> string -> bool
(** The system actor ["system"] and registered tools only. *)

val record :
  t ->
  table:Bdbms_relation.Table.t ->
  region:Bdbms_annotation.Region.t ->
  record:Prov_record.t ->
  (Bdbms_annotation.Ann.t, string) result
(** Attach a provenance record to a region.  Fails when
    [record.actor] is not an authorized actor — end-users cannot write
    provenance. *)

val records_for_cell :
  t -> table_name:string -> row:int -> col:int -> Prov_record.t list
(** All provenance of a cell, most recent first. *)

val source_at :
  t ->
  table_name:string ->
  row:int ->
  col:int ->
  at:Bdbms_util.Clock.time ->
  Prov_record.t option
(** The provenance record governing the cell's value at time [at]: the
    latest record with [record.at <= at]. *)

val history :
  t -> table:Bdbms_relation.Table.t -> region:Bdbms_annotation.Region.t ->
  (Prov_record.t list, string) result
(** Chronological provenance of a whole region. *)
