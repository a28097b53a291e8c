(** Outdated-data bitmaps (Section 5, Figure 10).

    Each tracked table carries a bitmap with one bit per cell: 1 means the
    cell's value may be invalid and needs re-verification.  The bitmap
    grows with the table, and its RLE-compressed size is reported next to
    the raw size (the paper proposes Run-Length-Encoding to reduce the
    bitmaps' storage overhead).

    That RLE form is also the stored one: it lives in pages of its own
    (a {!Bdbms_storage.Page_array} of whole pages) and {!flush} rewrites
    it after marks change.  A restart reattaches the bitmap from a
    fixed-size {!head}; the decoded bitmap is loaded on first use, and
    {!outdated_count} answers from the head alone. *)

type t

val create : Bdbms_relation.Table.t -> t
(** A fresh all-valid bitmap sized to the table's current shape.  No
    page is allocated until a mark is stored. *)

(** The fixed-size durable head of a stored bitmap. *)
type head = {
  rows : int;
  cols : int;
  set : int;  (** {!outdated_count} *)
  root : Bdbms_storage.Page.id;  (** of the pages holding the RLE bytes *)
  pages : int;
  bytes : int;  (** length of the RLE form *)
}

val head : t -> head option
(** [None] while no mark was ever stored (the bitmap is all valid). *)

val attach : Bdbms_storage.Pager.t -> name:string -> head -> t
(** Reattach a stored bitmap, reading no page. *)

val flush : t -> unit
(** Rewrite the stored RLE form if a mark changed since the last flush
    (one [dep_bitmap_flushes] count). *)

val table_name : t -> string

val mark : t -> row:int -> col:int -> unit
(** Flag a cell outdated (grows the bitmap if the table grew). *)

val clear : t -> row:int -> col:int -> unit
(** Re-validate a cell — Section 5 notes an outdated value may be
    re-validated without being modified. *)

val is_outdated : t -> row:int -> col:int -> bool
val outdated_cells : t -> (int * int) list
val outdated_count : t -> int

val raw_size_bytes : t -> int
val compressed_size_bytes : t -> int
(** RLE-compressed footprint (what the tracker would persist). *)

val pp : Format.formatter -> t -> unit
