(** Pluggable stable-store backend beneath {!Disk}.

    The disk keeps the full working set of pages in memory in both modes;
    the backend is what survives a crash: {!mem} persists nothing (the
    original simulated disk), {!file} persists pages to a database file
    (a header page followed by data pages).  All file writes are guarded
    by a {!Fault.t} so tests can crash the store at any point. *)

exception Corrupt of { page : int; detail : string }
(** A stored page (or catalog structure) whose checksum does not match
    its contents.  Raised on read instead of returning the bytes as
    data; {!Disk.open_file} filters out pages that a replayed WAL record
    fully repairs before raising. *)

exception Locked of { path : string }
(** The database file is already open — by another process (detected via
    an fcntl advisory lock on the whole file, released automatically when
    that process exits or closes the file) or by another handle in this
    process (detected via a process-local registry, since fcntl locks do
    not conflict within one process).  Raised by {!file} instead of
    letting two writers corrupt each other's WAL. *)

exception Io_degraded of { op : string; detail : string }
(** A stable-storage operation kept failing transiently until its retry
    budget ran out.  The engine responds by entering read-only degraded
    mode: reads keep serving, writes fail fast with a retryable error,
    and a {!probe} re-arms write mode once I/O recovers. *)

type t

val mem : page_size:int -> t

val file :
  fault:Fault.t ->
  ?obs:Bdbms_obs.Obs.t ->
  page_size:int ->
  path:string ->
  unit ->
  t * int
(** Open (or create) the database file at [path], taking an advisory
    whole-file write lock; also returns the number of pages currently in
    the stable store.  [obs] feeds the retry counters/histogram.
    @raise Locked if the file is already open (this process or another).
    @raise Invalid_argument if the file is not a bdbms database or its
    page size disagrees with [page_size]. *)

val page_size : t -> int
val path : t -> string option

type verdict = Crc_ok | Crc_zero | Crc_bad
(** Result of the CRC-trailer check on {!load_into}: verified,
    legitimately empty (all-zero slot, trailer included: allocated but
    never stored), or corrupt. *)

val load_into : t -> Page.id -> Page.t -> verdict
(** Fill the page (a frame the caller owns, of the backend's page size)
    from the stable store (file backend only) with one positional read
    of its slot, and check the CRC trailer.  A slot past end of file
    reads as zeros.  Allocates nothing.  Classification, not an
    exception: the caller decides whether a bad page is repairable (by
    WAL replay) before raising {!Corrupt}. *)

val store : t -> Page.id -> Page.t -> unit
(** Write a page image plus its CRC trailer to the stable store;
    fault-guarded, may tear (which the trailer then detects).  Transient
    failures are retried with backoff; @raise Io_degraded when the
    budget is exhausted. *)

val set_count : t -> int -> unit
(** Set the stable page count (grow with zeros / shrink by truncation).
    Retried; @raise Io_degraded on budget exhaustion. *)

val sync : t -> unit
(** Flush the stable store (fsync); fault-guarded.  Retried;
    @raise Io_degraded on budget exhaustion. *)

val probe : t -> bool
(** Single-attempt health check (one fsync, no retry): [true] iff the
    stable store is accepting I/O again.  Polled by the engine to leave
    degraded mode.  Always [true] for {!mem}. *)

val close : t -> unit

val io_retryable : exn -> bool
(** True for transient faults worth retrying: injected {!Fault.Io} and
    the usual come-and-go Unix errors (EIO, ENOSPC, EINTR, EAGAIN). *)

val with_io_retry :
  Fault.t -> ?obs:Bdbms_obs.Obs.t -> op:string -> (unit -> 'a) -> 'a
(** Retry an idempotent stable-storage operation under the shared
    backoff policy (shared with {!Wal} for batch flushes); polls the
    fault handle's cancellation token around each sleep.
    @raise Io_degraded once the retry budget is exhausted. *)

val guarded_pwrite : Fault.t -> Unix.file_descr -> off:int -> Bytes.t -> unit
(** A fault-guarded positional write: a crash may land only a prefix of
    the buffer before raising.  Shared with {!Wal}. *)

val read_at : Unix.file_descr -> off:int -> Bytes.t -> pos:int -> len:int -> int
(** One positional read (pread(2), no seek; EINTR and short reads
    retried) of up to [len] bytes at file offset [off] into the buffer
    from [pos]; returns the number of bytes read, fewer only at end of
    file.  The runtime lock is released around the syscall.  Shared with
    {!Wal}. *)
