(** Heap files of variable-length records over slotted pages.

    The base storage for user tables and annotation tables.  Records are
    opaque byte strings (the relation layer provides the tuple codec).
    Each page holds a slot directory growing up from the header and record
    payloads growing down from the end; record ids are (page, slot) pairs
    that remain stable across in-place updates. *)

type t

type rid = { page : Page.id; slot : int }
(** Stable record identifier. *)

val create : Pager.t -> t
(** A new empty heap file (allocates its first page). *)

val pager : t -> Pager.t

val max_record_size : t -> int
(** Largest insertable record for this file's page size. *)

val insert : t -> string -> rid
(** Append a record.  @raise Invalid_argument if larger than
    {!max_record_size}. *)

val get : t -> rid -> string option
(** [None] if the record was deleted. *)

val with_page_spans :
  t -> Page.id -> (Bytes.t -> (int -> (int * int) option) -> 'a) -> 'a
(** [with_page_spans t page f] pins [page] once and calls [f] with the
    pinned page's raw buffer and a slot-indexed span reader returning
    [Some (offset, length)] for live slots.  The batch decoder parses
    records straight out of the buffer, skipping the per-record string
    copy {!get} pays.  Neither the buffer nor the reader may escape [f],
    and the buffer must not be mutated. *)

val delete : t -> rid -> bool
(** [true] if a live record was deleted. *)

val update : t -> rid -> string -> rid
(** Replace a record's payload.  Returns the (possibly new) rid: the update
    happens in place when the new payload fits in the page's free space,
    otherwise the record moves and the old rid is tombstoned.
    @raise Not_found if the rid is dead. *)

val iter : t -> (rid -> string -> unit) -> unit
(** All live records in page/slot order.
    @raise Invalid_argument on a file reattached by {!attach}. *)

val fold : t -> init:'a -> f:('a -> rid -> string -> 'a) -> 'a

val record_count : t -> int
(** Number of live records. *)

val page_count : t -> int
(** Pages owned by this file. *)

val last_page : t -> Page.id
(** The page inserts go to (the newest page). *)

val pages : t -> Page.id list
(** The file's pages in allocation order — what the durable catalog
    serializes so {!restore} can reattach the file after a restart.
    @raise Invalid_argument on a file reattached by {!attach}. *)

val restore : Pager.t -> pages:Page.id list -> t
(** Reattach a heap file to the pages it owned before a restart (from a
    catalog record written by {!pages}).  The live-record count is
    recounted from the slot directories.
    @raise Invalid_argument on an empty page list. *)

val attach : Pager.t -> last_page:Page.id -> page_count:int -> live:int -> t
(** Reattach a heap file from a fixed-size head ({!last_page},
    {!page_count}, {!record_count}) without reading any page.  The owner
    reaches records by rid (a table through its row map), so the file
    keeps no page list: {!iter} and {!pages} raise on it. *)

val rid_equal : rid -> rid -> bool
