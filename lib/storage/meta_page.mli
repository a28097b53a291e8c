(** The catalog root anchored at page 0.

    A dual-slot shadow root (the LMDB-style double meta page): page 0
    holds two fixed-position root slots, each naming a linked chain of
    blob pages plus the blob's length and CRC.  A write lays down the
    chain first, then commits by writing the {e other} slot with a
    higher generation — so a crash anywhere during the swap leaves the
    previous catalog intact, and a reader always takes the valid slot
    with the highest generation.  All page traffic goes through
    {!Disk.read}/{!Disk.write}, so root and chain updates are WAL-logged
    and commit or roll back with the surrounding transaction. *)

val ensure_root : Disk.t -> unit
(** Reserve page 0 on a fresh disk (must be the very first allocation).
    A no-op once any page exists. *)

val read_root : Disk.t -> Bytes.t option
(** The current catalog blob, or [None] if none was ever written.
    @raise Backend.Corrupt if page 0 or the blob fails verification. *)

val write_root : Disk.t -> Bytes.t -> unit
(** Write a new catalog blob and swap the root to it.  Reuses the chain
    pages owned by the stale slot before allocating new ones, and dirties
    only those whose bytes differ from the new blob's.  Hits the
    {!Fault.Catalog_write} point on entry and {!Fault.Root_swap} between
    laying down the chain and committing the root slot.

    When the live root already holds exactly [blob] (same length, then
    the same bytes, compared in place one chain page at a time) this
    returns without dirtying a page or reaching either fault point. *)

val generation : Disk.t -> int
(** Generation of the current root slot (0 if none). *)

val min_page_size : int
