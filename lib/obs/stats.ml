(* The counter registry: every counter and gauge the engine keeps.

   Live values sit in a plain int array, so a bump is one array store.
   [slots] is the single list of names, kinds and help texts; every
   output ([pp], [sys.metrics], the Prometheus text) walks it, and
   [snapshot]/[diff]/[reset] go through the [to_array]/[of_array] codec
   below — adding a counter means adding a slot, an index, and one line
   in each codec function (the record construction in [of_array] fails
   to compile if a field is forgotten), so nothing can drift. *)

type kind = Counter | Gauge
type slot = { name : string; kind : kind; help : string }

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

let kind_name = function Counter -> "counter" | Gauge -> "gauge"
let counter name help = { name; kind = Counter; help }
let gauge name help = { name; kind = Gauge; help }

(* slot i of the live array is [slots.(i)] *)
let slots =
  [|
    counter "reads" "Physical page reads";
    counter "writes" "Physical page writes";
    counter "allocs" "Pages allocated";
    counter "hits" "Buffer-pool hits";
    counter "wal_appends" "Redo records appended to the log";
    counter "wal_flushes" "Group flushes of the log";
    counter "checkpoints" "Completed checkpoints";
    counter "recovered" "Committed log records replayed at open";
    counter "hash_builds" "Hash-join build-side tuples hashed";
    counter "hash_probes" "Hash-join probe-side tuples probed";
    counter "pushdown_pruned" "Tuples dropped by pushed-down predicates";
    counter "index_probes" "Index probes used as access paths";
    counter "tuples_decoded" "Heap payloads decoded into tuples";
    counter "ann_envelopes" "Rows materialized with annotation arrays";
    counter "catalog_replayed" "Catalog records decoded at bootstrap";
    counter "pages_crc_verified" "Stored pages CRC-checked on read";
    counter "crc_failures" "Stored pages failing CRC verification";
    counter "root_swaps" "Catalog root slot swaps committed";
    counter "catalog_encodes" "Catalog blobs encoded to persist or compare the root";
    counter "page_ins" "Pages faulted into the frame table";
    counter "evictions" "Frames evicted to make room";
    counter "writebacks" "Dirty frames written back at eviction (steals)";
    counter "wal_forced_flushes" "WAL flushes forced by evictions";
    gauge "peak_pinned" "High-water mark of simultaneously pinned frames";
    counter "sessions_opened" "Sessions authenticated and admitted";
    counter "commit_conflicts" "Transactions rejected by conflict detection";
    counter "frames_rx" "Protocol frames received from clients";
    counter "frames_tx" "Protocol frames sent to clients";
    counter "group_commits" "Committer batches flushed with one fsync";
    counter "batches_decoded" "Column batches decoded from heap pages or sys views";
    counter "batch_fallbacks" "Annotated SELECTs on the batch engine (envelopes attached by row id)";
    counter "stats_analyzed" "Tables (re)analyzed for optimizer statistics";
    counter "stats_stale" "Table statistics declared stale";
    counter "plans_reordered" "Query plans whose join order differs from FROM order";
    counter "dep_derivations" "Dependent cells re-derived by running their procedure chain";
    counter "dep_bitmap_flushes" "Outdated-mark bitmaps stored after their marks changed";
    counter "io_retries" "Transient I/O errors absorbed by retry";
    counter "io_gave_up" "I/O operations that exhausted their retry budget";
    counter "stmts_timed_out" "Statements aborted by their deadline";
    counter "degraded_entries" "Times the engine entered degraded mode";
    gauge "sessions_in_flight" "Sessions currently open";
    gauge "degraded" "1 while the engine is in read-only degraded mode";
  |]

let n_counters = Array.length slots

(* slot indices *)
let i_reads = 0
let i_writes = 1
let i_allocs = 2
let i_hits = 3
let i_wal_appends = 4
let i_wal_flushes = 5
let i_checkpoints = 6
let i_recovered = 7
let i_hash_builds = 8
let i_hash_probes = 9
let i_pushdown_pruned = 10
let i_index_probes = 11
let i_tuples_decoded = 12
let i_ann_envelopes = 13
let i_catalog_replayed = 14
let i_pages_crc_verified = 15
let i_crc_failures = 16
let i_root_swaps = 17
let i_catalog_encodes = 18
let i_page_ins = 19
let i_evictions = 20
let i_writebacks = 21
let i_wal_forced_flushes = 22
let i_peak_pinned = 23
let i_sessions_opened = 24
let i_commit_conflicts = 25
let i_frames_rx = 26
let i_frames_tx = 27
let i_group_commits = 28
let i_batches_decoded = 29
let i_batch_fallbacks = 30
let i_stats_analyzed = 31
let i_stats_stale = 32
let i_plans_reordered = 33
let i_dep_derivations = 34
let i_dep_bitmap_flushes = 35
let i_io_retries = 36
let i_io_gave_up = 37
let i_stmts_timed_out = 38
let i_degraded_entries = 39
let i_sessions_in_flight = 40
let i_degraded = 41

let to_array s =
  [|
    s.reads; s.writes; s.allocs; s.hits; s.wal_appends; s.wal_flushes;
    s.checkpoints; s.recovered_records; s.hash_builds; s.hash_probes;
    s.pushdown_pruned; s.index_probes; s.tuples_decoded; s.ann_envelopes;
    s.catalog_replayed; s.pages_crc_verified; s.crc_failures; s.root_swaps;
    s.catalog_encodes; s.page_ins; s.evictions; s.writebacks; s.wal_forced_flushes;
    s.peak_pinned; s.sessions_opened; s.commit_conflicts; s.frames_rx;
    s.frames_tx; s.group_commits; s.batches_decoded; s.batch_fallbacks;
    s.stats_analyzed; s.stats_stale; s.plans_reordered; s.dep_derivations;
    s.dep_bitmap_flushes; s.io_retries;
    s.io_gave_up; s.stmts_timed_out; s.degraded_entries; s.sessions_in_flight;
    s.degraded;
  |]

let of_array a =
  {
    reads = a.(i_reads);
    writes = a.(i_writes);
    allocs = a.(i_allocs);
    hits = a.(i_hits);
    wal_appends = a.(i_wal_appends);
    wal_flushes = a.(i_wal_flushes);
    checkpoints = a.(i_checkpoints);
    recovered_records = a.(i_recovered);
    hash_builds = a.(i_hash_builds);
    hash_probes = a.(i_hash_probes);
    pushdown_pruned = a.(i_pushdown_pruned);
    index_probes = a.(i_index_probes);
    tuples_decoded = a.(i_tuples_decoded);
    ann_envelopes = a.(i_ann_envelopes);
    catalog_replayed = a.(i_catalog_replayed);
    pages_crc_verified = a.(i_pages_crc_verified);
    crc_failures = a.(i_crc_failures);
    root_swaps = a.(i_root_swaps);
    catalog_encodes = a.(i_catalog_encodes);
    page_ins = a.(i_page_ins);
    evictions = a.(i_evictions);
    writebacks = a.(i_writebacks);
    wal_forced_flushes = a.(i_wal_forced_flushes);
    peak_pinned = a.(i_peak_pinned);
    sessions_opened = a.(i_sessions_opened);
    commit_conflicts = a.(i_commit_conflicts);
    frames_rx = a.(i_frames_rx);
    frames_tx = a.(i_frames_tx);
    group_commits = a.(i_group_commits);
    batches_decoded = a.(i_batches_decoded);
    batch_fallbacks = a.(i_batch_fallbacks);
    stats_analyzed = a.(i_stats_analyzed);
    stats_stale = a.(i_stats_stale);
    plans_reordered = a.(i_plans_reordered);
    dep_derivations = a.(i_dep_derivations);
    dep_bitmap_flushes = a.(i_dep_bitmap_flushes);
    io_retries = a.(i_io_retries);
    io_gave_up = a.(i_io_gave_up);
    stmts_timed_out = a.(i_stmts_timed_out);
    degraded_entries = a.(i_degraded_entries);
    sessions_in_flight = a.(i_sessions_in_flight);
    degraded = a.(i_degraded);
  }

type t = int array

let create () : t = Array.make n_counters 0

let bump (t : t) i = t.(i) <- t.(i) + 1

let record_read t = bump t i_reads
let record_write t = bump t i_writes
let record_alloc t = bump t i_allocs
let record_hit t = bump t i_hits
let record_wal_append t = bump t i_wal_appends
let record_wal_flush t = bump t i_wal_flushes
let record_checkpoint t = bump t i_checkpoints
let record_recovered t n = t.(i_recovered) <- t.(i_recovered) + n
let record_hash_build t = bump t i_hash_builds
let record_hash_probe t = bump t i_hash_probes
let record_pushdown_prune t = bump t i_pushdown_pruned
let record_index_probe t = bump t i_index_probes
let record_tuple_decode t = bump t i_tuples_decoded
let record_ann_envelope t = bump t i_ann_envelopes
let record_catalog_replayed t n = t.(i_catalog_replayed) <- t.(i_catalog_replayed) + n
let record_page_crc_verified t = bump t i_pages_crc_verified
let record_crc_failure t = bump t i_crc_failures
let record_root_swap t = bump t i_root_swaps
let record_catalog_encode t = bump t i_catalog_encodes
let record_page_in t = bump t i_page_ins
let record_eviction t = bump t i_evictions
let record_writeback t = bump t i_writebacks
let record_wal_forced_flush t = bump t i_wal_forced_flushes
let record_session_opened t = bump t i_sessions_opened
let record_commit_conflict t = bump t i_commit_conflicts
let record_frame_rx t = bump t i_frames_rx
let record_frame_tx t = bump t i_frames_tx
let record_group_commit t = bump t i_group_commits
let record_batch_decoded t = bump t i_batches_decoded
let record_batch_fallback t = bump t i_batch_fallbacks
let record_stats_analyzed t = bump t i_stats_analyzed
let record_stats_stale t = bump t i_stats_stale
let record_plan_reordered t = bump t i_plans_reordered
let record_dep_derivation t = bump t i_dep_derivations
let record_dep_bitmap_flush t = bump t i_dep_bitmap_flushes
let record_io_retry t = bump t i_io_retries
let record_io_gave_up t = bump t i_io_gave_up
let record_stmt_timed_out t = bump t i_stmts_timed_out
let record_degraded_entry t = bump t i_degraded_entries

let record_pinned t n =
  if n > t.(i_peak_pinned) then t.(i_peak_pinned) <- n

let set_sessions_in_flight (t : t) n = t.(i_sessions_in_flight) <- n
let set_degraded (t : t) on = t.(i_degraded) <- Bool.to_int on

let snapshot (t : t) = of_array t
let reset (t : t) = Array.fill t 0 n_counters 0
let diff ~after ~before = of_array (Array.map2 ( - ) (to_array after) (to_array before))

let to_list s = Array.to_list (Array.mapi (fun i v -> (slots.(i), v)) (to_array s))
let to_alist s = List.map (fun (slot, v) -> (slot.name, v)) (to_list s)

(* Raw-array access for hot-loop delta accumulation (EXPLAIN ANALYZE
   takes a reading around every operator pull; snapshot records would
   allocate per pull, these are blits into caller-owned scratch). *)
let scratch () = Array.make n_counters 0
let blit (t : t) ~into = Array.blit t 0 into 0 n_counters

let accum_diff (t : t) ~before ~into =
  for i = 0 to n_counters - 1 do
    into.(i) <- into.(i) + (t.(i) - before.(i))
  done

let of_accum = of_array

let total_io s = s.reads + s.writes

let pp fmt s =
  List.iteri
    (fun i (slot, v) ->
      if i > 0 then Format.pp_print_char fmt ' ';
      Format.fprintf fmt "%s=%d" slot.name v)
    (to_list s)
