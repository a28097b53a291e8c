(** Bounded frame table with pin/unpin reference counts and steal
    eviction — the layer that makes memory use O(pool), not O(database).

    All access methods reach their pages through a pin-scoped callback:
    {!with_page} / {!with_page_mut} pin the frame (excluding it from
    eviction), run the callback on the {e resident} page — no copies —
    and unpin on the way out.  A miss faults the page in from the
    source; when the table is full an {e unpinned} frame is evicted (LRU
    or Clock second-chance), and a dirty victim is first handed to the
    source's write-back, which is where {!Disk} enforces the
    WAL-before-data rule.  See DESIGN.md §8. *)

type policy = Lru | Clock

exception Pool_exhausted of { capacity : int; pinned : int }
(** Raised when a page must be faulted in but every frame is pinned:
    the pool is too small for the access pattern's pin footprint. *)

type accounting = Count_hit | Count_read | Count_none
(** How a pin-scoped access is counted: normal accesses count pool hits;
    [Disk.read]'s compatibility path counts every access as a read (its
    historical meaning); [Disk.write]'s counts nothing here (its
    write-back records the write).  Physical page-ins always count as a
    read plus a page_in. *)

type source = {
  src_page_size : int;
  src_stats : Bdbms_obs.Stats.t;
  src_page_count : unit -> int;  (** allocated pages, for bounds checks *)
  src_load : Page.id -> Page.t;  (** fault a page in (physical read) *)
  src_write_back : Page.id -> Page.t -> evicting:bool -> unit;
      (** persist a dirty frame; [evicting] engages WAL-before-data *)
  src_alloc : unit -> Page.id;  (** allocate a fresh zeroed page *)
}
(** The stable store beneath the pager, as closures so {!Disk} can build
    the pager over its own internals without a module cycle. *)

type t

val create : ?policy:policy -> ?guard:bool -> capacity:int -> source -> t
(** [guard] makes {!with_page} verify (by checksum) that its callback did
    not mutate the page — the debug build of the read-only contract.
    @raise Invalid_argument if [capacity < 1]. *)

val set_on_first_dirty : t -> (Page.id -> Page.t -> unit) option -> unit
(** Install (or clear) an observer of clean→dirty frame transitions:
    called with the frame's current — i.e. last written-back or loaded —
    image just before the first mutation of a write-back cycle.  The
    snapshot-isolation layer captures committed pre-images here.  The
    callback receives the {e resident} page; it must copy what it wants
    to keep and must not mutate the page or raise. *)

val set_cancel : t -> Bdbms_util.Cancel.t option -> unit
(** Attach a cooperative cancellation token: every pin checks it, so a
    cancelled statement stops before faulting in another page.  Pins
    already held are unaffected (unpin is exception-safe). *)

val with_page : ?accounting:accounting -> t -> Page.id -> (Page.t -> 'a) -> 'a
(** Pin the frame and run the callback on the resident page.  The page
    must not be mutated (mutations are not marked dirty and are lost at
    eviction; with [guard] they fail fast) — use {!with_page_mut}.
    @raise Invalid_argument on an unallocated id.
    @raise Pool_exhausted if faulting in would evict but all frames are
    pinned. *)

val with_page_mut :
  ?accounting:accounting -> t -> Page.id -> (Page.t -> 'a) -> 'a
(** Like {!with_page} but marks the frame dirty (before the callback
    runs) so it is written back on eviction, {!flush_dirty}, or
    checkpoint. *)

val alloc_page : t -> Page.id
(** Allocate a fresh page in the source and install its (clean, zeroed)
    frame. *)

val flush_one : t -> Page.id -> unit
(** Write back this frame if resident and dirty; it stays resident. *)

val flush_dirty : t -> unit
(** Write back every dirty frame, in page-id order, without evicting. *)

val has_dirty : t -> bool

val peek : t -> Page.id -> Page.t option
(** The resident frame's page, if any — no pin, no fault-in, no stats.
    For {!Disk}'s checkpoint to harvest latest images. *)

val capacity : t -> int
val page_size : t -> int
val stats : t -> Bdbms_obs.Stats.t

val resident : t -> int
(** Frames currently in the table (≤ [capacity] always). *)

val pinned : t -> int
(** Frames currently pinned — zero between top-level operations; the
    pin-leak tests assert exactly this. *)
