(** Physical annotation storage schemes (Section 3.1, Figures 3 and 5).

    Two schemes with the same interface:

    - {!Cell} — the straightforward scheme of Figure 3: one stored record
      per annotated {e cell}, with the annotation value repeated in every
      record (the paper's example repeats annotation A2 six times).
    - {!Compact} — the scheme of Figure 5: the table is a 2-D space and an
      annotation over any group of contiguous cells is one rectangle
      record, storing the annotation value once per rectangle.

    Both write through a heap file on the shared buffer pool, so storage
    footprint and retrieval I/O are directly comparable (experiment E1). *)

type scheme = Cell | Compact

type t

val create : ?indexed:bool -> scheme -> Bdbms_storage.Pager.t -> t
(** [indexed] (default false) additionally maintains a paged R-tree over
    the stored regions (Section 3.1 calls for {e indexing} schemes, not
    just storage): cell and rectangle lookups then descend the index
    instead of scanning the heap file. *)

val scheme : t -> scheme
val indexed : t -> bool

val add : t -> ann_id:string -> body:string -> Bdbms_util.Rect.t list -> unit
(** Attach an annotation (its id and serialized body) to a region given as
    rectangles. *)

val ids_for_cell : t -> row:int -> col:int -> string list
(** Annotation ids attached to one cell (duplicates removed). *)

val ids_for_rect : t -> Bdbms_util.Rect.t -> string list
(** Annotation ids attached to anything intersecting the rectangle. *)

val record_count : t -> int
(** Stored records: per-cell records for {!Cell}, rectangle records for
    {!Compact} — the paper's storage-overhead measure. *)

val logical_bytes : t -> int
(** Sum of record payload sizes. *)

val storage_pages : t -> int
(** Heap pages holding the records. *)

val index_pages : t -> int
(** R-tree pages (0 when not indexed). *)

val heap_pages : t -> Bdbms_storage.Page.id list
(** The store's heap pages in allocation order (for the durable catalog). *)

val restore :
  ?indexed:bool ->
  scheme ->
  Bdbms_storage.Pager.t ->
  heap_pages:Bdbms_storage.Page.id list ->
  t
(** Reattach a store to its heap pages after a restart (from a catalog
    record written by {!heap_pages}).  Counters are recounted from the
    heap; an R-tree, being derived data, is rebuilt by re-insertion. *)
