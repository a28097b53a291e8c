(** Annotation records: first-class metadata objects (Section 3).

    An annotation has an XML-formatted body (Section 3.2 supports
    (semi-)structured annotations), a category (Section 3's "categorizing
    annotations" — e.g. provenance vs user comments), an author, and the
    timestamp assigned when it was first added (used by ARCHIVE/RESTORE
    ... BETWEEN, Section 3.3).  Archival is a reversible flag, kept by the
    manager's registry: archived annotations stop propagating with query
    answers but can be restored. *)

type category =
  | Comment      (** free-text user commentary *)
  | Provenance   (** lineage records, system-maintained (Section 4) *)
  | Curation     (** curator verdicts and corrections *)
  | Quality      (** automatically attached quality/outdatedness notes *)
  | Custom of string

type t = {
  id : string;
  body : Bdbms_util.Xml_lite.t;
  category : category;
  author : string;
  created_at : Bdbms_util.Clock.time;
  archived : bool;
  archived_at : Bdbms_util.Clock.time option;
}

val make :
  id:string ->
  body:Bdbms_util.Xml_lite.t ->
  category:category ->
  author:string ->
  created_at:Bdbms_util.Clock.time ->
  t

val body_text : t -> string
(** Concatenated text content of the body. *)

val body_string : t -> string
(** Serialized XML of the body. *)

val archive : t -> at:Bdbms_util.Clock.time -> t
(** The record as it reads once archived at [at].  An annotation is a
    value: the registry stores the archived state. *)

val category_name : category -> string
val category_of_name : string -> category

val equal_id : t -> t -> bool
val pp : Format.formatter -> t -> unit
