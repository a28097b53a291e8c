(** The counter registry: every counter and gauge the engine keeps.

    The paper's quantitative claims (Section 7.2: storage reduction, I/O
    reduction for insertion, search I/O parity) are statements about page
    accesses and bytes, not wall-clock time on specific hardware.  Every
    storage-touching component threads one of these counter groups so the
    benchmarks can report exact page-level I/O counts.

    {!slots} is the one list of names, kinds and help texts.  [pp], the
    [sys.metrics] view and the Prometheus text ({!Metrics.render}) all
    render from it, and [snapshot]/[diff]/[reset] derive from one
    field-list codec, so adding a counter cannot leave any of them
    behind.

    {2 Scopes}

    An {!Obs.t} owns one group per database handle: the durable or
    in-memory disk counts into it and it survives the rollbacks that
    recreate the context, so every counter is monotonic for the life of
    the handle.  A transaction's snapshot overlay counts into a private
    group of its own instead — its page "writes" are memory, and folding
    them into the handle's [writes] would mislabel them.  That private
    group is the per-context scope a per-statement reading takes its
    deltas from. *)

type t

type kind = Counter | Gauge
(** A counter only grows; a gauge is a level ([peak_pinned],
    [sessions_in_flight], [degraded]). *)

val kind_name : kind -> string
(** ["counter"] or ["gauge"], as [sys.metrics] and Prometheus spell it. *)

type slot = { name : string; kind : kind; help : string }

val slots : slot array
(** Every slot, in slot order. *)

val create : unit -> t

(** {2 Storage} *)

val record_read : t -> unit
val record_write : t -> unit
val record_alloc : t -> unit

val record_hit : t -> unit
(** A logical page access satisfied by the buffer pool without disk I/O. *)

val record_wal_append : t -> unit
val record_wal_flush : t -> unit
val record_checkpoint : t -> unit
val record_recovered : t -> int -> unit

(** {2 Query engine}

    Plan behaviour (which join algorithm ran, how much a pushed-down
    predicate pruned, whether annotation envelopes were ever built) is
    observable from [--stats] and assertable in tests. *)

val record_hash_build : t -> unit
val record_hash_probe : t -> unit
val record_pushdown_prune : t -> unit
val record_index_probe : t -> unit

val record_tuple_decode : t -> unit
(** A heap payload decoded into a tuple ({!val:Bdbms_relation.Table.get}
    misses of the decoded-tuple cache). *)

val record_ann_envelope : t -> unit
(** A row materialized with its per-cell annotation array — zero for
    queries that never touch annotations (lazy attachment). *)

val record_batch_decoded : t -> unit
(** A column batch decoded from heap pages (one pin scope covering up to
    [batch_rows] tuples) or from a [sys.*] view's snapshot rows. *)

val record_batch_fallback : t -> unit
(** An annotated/ASQL-extended SELECT on the batch engine: its result
    rows get annotation envelopes attached by row id.  (The name
    predates the single pipeline, when such queries left the batch
    engine.) *)

val record_stats_analyzed : t -> unit
val record_stats_stale : t -> unit
val record_plan_reordered : t -> unit

(** {2 Dependency manager} *)

val record_dep_derivation : t -> unit
val record_dep_bitmap_flush : t -> unit

(** {2 Recovery and pager} *)

val record_catalog_replayed : t -> int -> unit
val record_page_crc_verified : t -> unit
val record_crc_failure : t -> unit
val record_root_swap : t -> unit

val record_catalog_encode : t -> unit
(** One whole catalog blob encoded (by a commit, checkpoint or close
    whose metadata may have changed, or by a caller asking for it). *)

val record_page_in : t -> unit
(** A page faulted into the frame table from stable storage (a pool miss
    that performed physical I/O). *)

val record_eviction : t -> unit
val record_writeback : t -> unit

val record_wal_forced_flush : t -> unit
(** A WAL flush forced by the WAL-before-data rule: a dirty frame was
    evicted while the log record covering its last update was still
    buffered. *)

val record_pinned : t -> int -> unit
(** [n] frames currently pinned; retains the high-water mark. *)

(** {2 Server and resilience} *)

val record_session_opened : t -> unit
val record_commit_conflict : t -> unit
val record_frame_rx : t -> unit
val record_frame_tx : t -> unit

val record_group_commit : t -> unit
(** A committer batch made durable with a single WAL flush (one or more
    transactions amortized per fsync). *)

val record_io_retry : t -> unit
val record_io_gave_up : t -> unit
val record_stmt_timed_out : t -> unit
val record_degraded_entry : t -> unit

val set_sessions_in_flight : t -> int -> unit
val set_degraded : t -> bool -> unit

(** {2 Readings} *)

type snapshot = {
  reads : int;
  writes : int;
  allocs : int;
  hits : int;
  wal_appends : int;
  wal_flushes : int;
  checkpoints : int;
  recovered_records : int;
  hash_builds : int;
  hash_probes : int;
  pushdown_pruned : int;
  index_probes : int;
  tuples_decoded : int;
  ann_envelopes : int;
  catalog_replayed : int;
  pages_crc_verified : int;
  crc_failures : int;
  root_swaps : int;
  catalog_encodes : int;
  page_ins : int;
  evictions : int;
  writebacks : int;
  wal_forced_flushes : int;
  peak_pinned : int;
  sessions_opened : int;
  commit_conflicts : int;
  frames_rx : int;
  frames_tx : int;
  group_commits : int;
  batches_decoded : int;
  batch_fallbacks : int;
  stats_analyzed : int;
  stats_stale : int;
  plans_reordered : int;
  dep_derivations : int;
  dep_bitmap_flushes : int;
  io_retries : int;
  io_gave_up : int;
  stmts_timed_out : int;
  degraded_entries : int;
  sessions_in_flight : int;
  degraded : int;
}
(** One field per slot; see {!slots} for what each one counts. *)

val snapshot : t -> snapshot

val reset : t -> unit
(** Zero a free-standing group (benchmarks over a bare disk); a
    handle's group is never reset. *)

val diff : after:snapshot -> before:snapshot -> snapshot
(** Component-wise subtraction, for measuring one operation. *)

val total_io : snapshot -> int
(** [reads + writes]. *)

val pp : Format.formatter -> snapshot -> unit
(** [name=value] for every slot, space-separated, in slot order. *)

val to_list : snapshot -> (slot * int) list
(** Every slot with its value, in slot order. *)

val to_alist : snapshot -> (string * int) list
(** [to_list] keyed by slot name. *)

(** {2 Raw accumulation}

    EXPLAIN ANALYZE attributes counter deltas to individual plan
    operators by reading around every pull.  These work on caller-owned
    scratch arrays so the hot loop never allocates. *)

val scratch : unit -> int array
(** A zeroed array sized for {!blit}/{!accum_diff}. *)

val blit : t -> into:int array -> unit
(** Copy the live counters into [into]. *)

val accum_diff : t -> before:int array -> into:int array -> unit
(** [into.(i) <- into.(i) + (live.(i) - before.(i))] for every slot. *)

val of_accum : int array -> snapshot
(** View an accumulator as a snapshot (for rendering deltas). *)
