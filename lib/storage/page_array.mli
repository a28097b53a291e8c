(** A growable array of fixed-size entries kept in pages.

    A radix tree of page-id pages over leaf pages: entry [i] lives in one
    leaf, reached through at most [depth] interior pages.  Entries are
    read and written in place under a page pin, so the WAL logs the
    array like any other page — rollback, crash recovery and snapshot
    overlays cover it with no code of their own.  A fresh entry is all
    zero bytes; callers give that pattern a meaning (the table's row map
    reads it as a tombstone).

    The array is reattached after a restart from its root page and its
    length, reading no page: the depth follows from the length. *)

type t

val create : Pager.t -> entry_size:int -> t
(** An empty array (allocates its root leaf).
    @raise Invalid_argument if an entry, or two child ids, do not fit a
    page. *)

val attach : Pager.t -> entry_size:int -> root:Page.id -> length:int -> t
(** Reattach an array from the {!root} and {!length} it had. *)

val root : t -> Page.id
(** Changes when the array outgrows its depth. *)

val length : t -> int

val get : t -> int -> (Page.t -> int -> 'a) -> 'a
(** [get t i f] pins entry [i]'s leaf and calls [f page offset]; [f]
    must not mutate the page or let it escape.
    @raise Invalid_argument if [i] is out of range. *)

val set : t -> int -> (Page.t -> int -> unit) -> unit
(** Like {!get}, with the leaf pinned for writing. *)

val run : t -> int -> (Page.t -> int -> int -> 'a) -> 'a
(** [run t i f] pins entry [i]'s leaf once and calls [f page offset n]:
    entries [i .. i + n - 1] sit at [offset], [offset + entry_size], ...
    — the rest of the leaf, capped at {!length}. *)

val push : t -> (Page.t -> int -> unit) -> int
(** Append an entry (the callback fills its all-zero bytes); returns its
    index.  Allocates a leaf every [page_size / entry_size] entries and a new
    root when the array outgrows its depth. *)
