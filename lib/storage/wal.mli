(** Write-ahead log: redo records with CRC-checked framing and group-flush
    batching.

    Records are framed as [| len | crc32 | payload |] and buffered in
    memory; {!flush} writes the whole batch in one guarded write plus an
    fsync (group commit).  Recovery applies records only up to the last
    durable commit marker, so flushing a partial batch early (buffer
    full) is always safe. *)

type record =
  | Page_write of { page_id : int; data : string }  (** redo page image *)
  | Alloc of { page_id : int }
  | Commit  (** seals every record before it *)

type t

val open_reset :
  fault:Fault.t ->
  stats:Bdbms_obs.Stats.t ->
  ?obs:Bdbms_obs.Obs.t ->
  ?group_bytes:int ->
  string ->
  t
(** Open the log at the given path for appending, truncated to an empty
    (header-only) state — the caller must have replayed and checkpointed
    any previous contents first.  [group_bytes] (default 64 KiB) is the
    buffered-batch size that triggers an automatic group flush.  When
    [obs] is given, every group flush feeds its WAL-flush histogram and
    (if tracing is on) records a ["wal.flush"] span. *)

val append : t -> record -> unit
(** Buffer a record (counted as a wal_append); group-flushes when the
    buffer outgrows [group_bytes]. *)

val append_located : t -> record -> int
(** {!append}, returning the file offset the record's frame will occupy
    once flushed — the handle for {!read_page_image}. *)

val flush : t -> unit
(** Write the buffered batch and fsync (one wal_flush). *)

val flushed_bytes : t -> int
(** Bytes durably in the log file (excludes the unflushed buffer): an
    offset below this can be read back with {!read_page_image}. *)

val read_page_image : t -> off:int -> page_id:int -> page_size:int -> Page.t
(** Read back the page image of a [Page_write] record appended at [off]
    (per {!append_located}) and since flushed.  Used by the pager to
    fault in a stolen page whose latest image lives only in the log.
    @raise Backend.Corrupt if the frame fails CRC verification or does
    not hold this page's image. *)

val commit : t -> unit
(** Append a {!Commit} marker and {!flush}. *)

val reset : t -> unit
(** Empty the log after a checkpoint made the data pages durable. *)

val size : t -> int
(** Bytes in the log file plus the unflushed buffer. *)

val close : t -> unit

type scan_result = {
  records : record list;  (** valid records, in log order *)
  torn : bool;  (** the scan stopped at a torn/corrupt frame *)
  bytes : int;  (** file size scanned *)
}

val scan : max_record:int -> string -> scan_result
(** Read every well-formed record from the log file, stopping (without
    failing) at the first torn or corrupt frame.  [max_record] bounds a
    plausible payload length (page size + slack). *)
