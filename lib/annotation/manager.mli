(** The annotation manager: bdbms's component owning annotation tables,
    the annotation registry, insertion at multiple granularities, and
    archival/restore (Sections 2–3).  The registry lives in pages
    ({!Ann_registry}); {!find} and friends decode annotations from it.

    A user relation may have multiple annotation tables attached (e.g. one
    for provenance, one for comments — CREATE ANNOTATION TABLE, Figure 4);
    each annotation table chooses a physical scheme ({!Ann_store.Cell} or
    {!Ann_store.Compact}) and a default category. *)

type t

val create :
  Bdbms_storage.Pager.t -> Bdbms_util.Clock.t -> t

val clock : t -> Bdbms_util.Clock.t

(** {1 Annotation tables (Figure 4)} *)

val create_annotation_table :
  t ->
  table:Bdbms_relation.Table.t ->
  name:string ->
  ?scheme:Ann_store.scheme ->
  ?category:Ann.category ->
  ?indexed:bool ->
  unit ->
  (unit, string) result
(** Default scheme is {!Ann_store.Compact}, default category {!Ann.Comment};
    [indexed] adds an R-tree over the stored regions (default false).
    Fails if the annotation table name is already attached to that table. *)

val drop_annotation_table : t -> table_name:string -> name:string -> bool

val annotation_table_names : t -> table_name:string -> string list

val has_annotation_table : t -> table_name:string -> name:string -> bool

(** {1 Adding annotations (ADD ANNOTATION, Figure 6a)} *)

val add :
  t ->
  table:Bdbms_relation.Table.t ->
  ann_tables:string list ->
  body:Bdbms_util.Xml_lite.t ->
  ?category:Ann.category ->
  author:string ->
  region:Region.t ->
  unit ->
  (Ann.t, string) result
(** Create one annotation and attach it to [region] in every listed
    annotation table.  When [category] is omitted, the first listed
    annotation table's default applies. *)

val add_text :
  t ->
  table:Bdbms_relation.Table.t ->
  ann_tables:string list ->
  text:string ->
  ?category:Ann.category ->
  author:string ->
  region:Region.t ->
  unit ->
  (Ann.t, string) result
(** Convenience: wraps plain text in [<Annotation>...</Annotation>]. *)

(** {1 Retrieval} *)

val find : t -> string -> Ann.t option

val for_cell :
  t ->
  table_name:string ->
  ?ann_tables:string list ->
  ?include_archived:bool ->
  row:int ->
  col:int ->
  unit ->
  Ann.t list

val for_region :
  t ->
  table:Bdbms_relation.Table.t ->
  ?ann_tables:string list ->
  ?include_archived:bool ->
  region:Region.t ->
  unit ->
  (Ann.t list, string) result

(** {1 Archival (ARCHIVE / RESTORE ANNOTATION, Figures 6b–6c)} *)

val archive :
  t ->
  table:Bdbms_relation.Table.t ->
  ?ann_tables:string list ->
  ?between:Bdbms_util.Clock.time * Bdbms_util.Clock.time ->
  region:Region.t ->
  unit ->
  (int, string) result
(** Archive annotations attached to the region (optionally only those
    first added within the inclusive time range); returns how many
    annotations changed state. *)

val restore :
  t ->
  table:Bdbms_relation.Table.t ->
  ?ann_tables:string list ->
  ?between:Bdbms_util.Clock.time * Bdbms_util.Clock.time ->
  region:Region.t ->
  unit ->
  (int, string) result

(** {1 Introspection (benchmarks)} *)

val store_of : t -> table_name:string -> name:string -> Ann_store.t option
val registry_size : t -> int

(** {1 Durable-catalog hooks}

    What the self-bootstrapping catalog serializes at commit and feeds
    back at open: annotation-table definitions with their heap pages,
    the registry's fixed-size head, and the id-generator high-water
    mark. *)

type ann_table_info = {
  ati_table : string;  (** owning user table (lowercase key) *)
  ati_name : string;
  ati_scheme : Ann_store.scheme;
  ati_indexed : bool;
  ati_category : Ann.category;
  ati_heap_pages : Bdbms_storage.Page.id list;
}

val dump_tables : t -> ann_table_info list
(** All annotation tables, sorted — deterministic catalog encoding. *)

val registry_head : t -> Ann_registry.head option
(** [None] until the first annotation. *)

val id_counter : t -> int

val restore_annotation_table : t -> ann_table_info -> unit
val restore_id_counter : t -> int -> unit

val attach_registry : t -> Ann_registry.head -> unit
(** Reattach the paged registry at bootstrap, reading no page. *)

val version : t -> int
(** Moves whenever a mutator changes the annotation-table definitions
    or {!id_counter} (never backwards); the durable catalog reads it to
    skip re-encoding.  The stores' heap pages and {!registry_head}
    change only together with a page write, which
    {!Bdbms_storage.Pager.mutations} counts. *)
