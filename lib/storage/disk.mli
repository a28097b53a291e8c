(** The page store: a demand-paged working set (bounded by [pool_pages])
    with an optional durability layer underneath.

    {!create} stands in for the physical disk of the authors' PostgreSQL
    testbed: fixed-size pages where every read, write, and allocation is
    counted in a {!Bdbms_obs.Stats.t}.  All index and heap-file claims in the
    benchmarks are measured as page accesses against this store (see
    DESIGN.md §2 for why this substitution is faithful).  Residency is
    delegated to a {!Pager.t} ({!pager}); the in-memory mode defaults to
    an unbounded pool (degenerate everything-resident behaviour), while a
    bounded pool demand-faults pages against the simulated store.

    {!open_file} adds durability with a steal/no-force discipline:
    {!alloc} logs immediately; a dirty frame's full-page redo record is
    appended when it is written back (at {!commit}/{!checkpoint}, on the
    historical {!write}, or at eviction), and WAL-before-data is enforced
    — an evicted dirty frame's record is flushed before the frame is
    forgotten, and its file slot is overwritten early (stolen) only when
    a committed record in the current log rewrites the page at replay.
    {!checkpoint} stores dirty pages to the database file at [path] and
    resets the log.  On open, stored slots are CRC-verified and the
    committed log prefix is replayed onto them, streaming — recovery is
    O(1) in memory like the rest of the pager.  See DESIGN.md §8. *)

type t

val create :
  ?page_size:int ->
  ?pool_pages:int ->
  ?policy:Pager.policy ->
  ?guard:bool ->
  ?obs:Bdbms_obs.Obs.t ->
  unit ->
  t
(** An ephemeral in-memory disk: nothing survives the process.
    [pool_pages] bounds the resident frame table (default: unbounded);
    [policy] picks the eviction policy (default LRU); [guard] enables the
    pager's read-only pin checksum assertion (default: the
    [BDBMS_PAGER_GUARD] environment variable). *)

val overlay :
  page_size:int ->
  ?pool_pages:int ->
  ?policy:Pager.policy ->
  ?guard:bool ->
  ?obs:Bdbms_obs.Obs.t ->
  base_count:int ->
  base_read:(Page.id -> Page.t) ->
  unit ->
  t
(** A copy-on-write overlay over some base store: reads of pages below
    [base_count] that have not been locally overwritten are served by
    [base_read] (the snapshot layer's committed-version lookup — called
    on pager miss, so it must return a page the overlay may own);
    writes and fresh allocations live only in this overlay's private
    in-memory store and die with it.  Ephemeral by construction —
    {!commit} and {!checkpoint} are no-ops and nothing ever reaches the
    base.  This is what gives each transaction's snapshot {!t} in the
    multi-session server. *)

val is_overlay : t -> bool

val set_on_first_dirty : t -> (Page.id -> Page.t -> unit) option -> unit
(** Install (or clear) the pager's clean→dirty observer
    ({!Pager.set_on_first_dirty} on {!pager}): called with a frame's
    last-committed image just before its first mutation of a write-back
    cycle.  The snapshot-isolation layer captures pre-images here. *)

val open_file :
  ?page_size:int ->
  ?fault:Fault.t ->
  ?wal_autocheckpoint:int ->
  ?wal_group_bytes:int ->
  ?pool_pages:int ->
  ?policy:Pager.policy ->
  ?guard:bool ->
  ?obs:Bdbms_obs.Obs.t ->
  string ->
  t
(** Open (or create) a durable disk backed by the database file at the
    given path, running streaming crash recovery from [path].wal first.
    [wal_autocheckpoint] (default 4 MiB) checkpoints automatically when
    the log outgrows it; [wal_group_bytes] is the WAL group-flush batch
    size; [pool_pages] bounds the resident frame table (default 256).
    @raise Fault.Crash if [fault] fires during recovery.
    @raise Backend.Corrupt if a stored page fails CRC verification and no
    replayed log record repairs it. *)

val page_size : t -> int

val stats : t -> Bdbms_obs.Stats.t
(** The [obs] handle's counter group when one was given at creation,
    else a private group. *)

val page_count : t -> int

val pager : t -> Pager.t
(** The frame table all access methods share. *)

val pool_pages : t -> int
(** The pager's capacity in frames. *)

val resident : t -> int
(** Frames currently resident (≤ {!pool_pages} always). *)

val alloc : t -> Page.id
(** Allocate a fresh zeroed page and return its id (counted as an alloc and
    a write). *)

val with_page : t -> Page.id -> (Page.t -> 'a) -> 'a
(** Pin-scoped read-only access to the resident page
    ({!Pager.with_page} on {!pager}). *)

val with_page_mut : t -> Page.id -> (Page.t -> 'a) -> 'a
(** Pin-scoped mutating access; the frame is marked dirty and written
    back (with its redo record) at the next commit, checkpoint, or
    eviction. *)

val read : t -> Page.id -> Page.t
(** A copy of the page's current contents (counted as a read).
    @raise Invalid_argument on an unallocated id. *)

val write : t -> Page.id -> Page.t -> unit
(** Store the page contents (counted as a write); on a durable disk the
    redo record is appended to the log before control returns. *)

val used_bytes : t -> int
(** [page_count * page_size]: allocated storage footprint (the resident
    footprint is [resident * page_size]). *)

(** {1 Durability} — all no-ops on an ephemeral disk. *)

val commit : t -> unit
(** Write back every dirty frame and group-flush the log with a commit
    marker.  Recovery replays exactly up to the last such marker. *)

val checkpoint : t -> unit
(** Commit, store all since-checkpoint dirty pages to the database file
    (root page 0 strictly last), fsync, and reset the log. *)

val close : t -> unit
(** Checkpoint (unless crashed) and release the file descriptors. *)

val abandon : t -> unit
(** Release the file descriptors without flushing anything — simulates a
    process death for tests and benchmarks. *)

val is_durable : t -> bool
val path : t -> string option
val fault : t -> Fault.t
val crashed : t -> bool

val set_cancel : t -> Bdbms_util.Cancel.t option -> unit
(** Attach the execution context's cancellation token to both
    checkpoint sites below the executor: the pager (checked at every
    pin) and the backend's retry loops (polled between backoff
    sleeps). *)

val probe_io : t -> bool
(** Single-attempt I/O health check (one fsync, no retry): [true] iff
    the stable store is accepting writes.  Used to leave read-only
    degraded mode.  Always [true] for mem/overlay disks. *)

val wal_size : t -> int
(** Bytes in the log file plus the unflushed buffer (0 when ephemeral). *)

val has_uncommitted : t -> bool
(** Whether changes (appended records or dirty frames) exist since the
    last commit marker (always [false] when ephemeral). *)

val recovery_info : t -> Recovery.outcome option
(** The outcome of the replay performed by {!open_file}. *)
