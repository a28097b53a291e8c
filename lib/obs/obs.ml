(* The engine's observability handle: one tracer, one counter group
   (the handle's {!Stats} scope), and one metrics registry with the
   engine's standard latency histograms pre-registered.

   A single [Obs.t] is created per database handle ([Db.create]) and
   threaded down through the context into the disk manager and WAL, so
   counters and spans accumulate across transaction rollbacks (which
   recreate the context but reuse the handle).

   [timed] is the one pattern every instrumented site uses: always feed
   the histogram (an observation is a few int ops), and only open a trace
   span when tracing is on — keeping the disabled path near-free, which
   the E14 bench enforces. *)

module Timer = Bdbms_util.Timer

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  stats : Stats.t;
  qlog : Qlog.t;
  stmt_hist : Metrics.histogram;
  wal_flush_hist : Metrics.histogram;
  evict_writeback_hist : Metrics.histogram;
  root_swap_hist : Metrics.histogram;
  checkpoint_hist : Metrics.histogram;
  recovery_hist : Metrics.histogram;
  req_hist : Metrics.histogram;
  conflict_retry_hist : Metrics.histogram;
  retry_backoff_hist : Metrics.histogram;
}

let create ?capacity () =
  let metrics = Metrics.create () in
  let histogram name help = Metrics.histogram metrics ~help name in
  (* bind in sequence so the registry (and \metrics output) lists the
     histograms in this order *)
  let stmt_hist = histogram "bdbms_stmt_ns" "Statement execution latency (ns)" in
  let wal_flush_hist =
    histogram "bdbms_wal_flush_ns" "WAL group flush latency (ns)"
  in
  let evict_writeback_hist =
    histogram "bdbms_evict_writeback_ns" "Pager eviction write-back latency (ns)"
  in
  let root_swap_hist =
    histogram "bdbms_root_swap_ns"
      "Catalog persist at commit: encode, compare, swap if changed (ns)"
  in
  let checkpoint_hist =
    histogram "bdbms_checkpoint_ns" "Checkpoint latency (ns)"
  in
  let recovery_hist =
    histogram "bdbms_recovery_ns" "Recovery bootstrap latency (ns)"
  in
  let req_hist =
    histogram "bdbms_request_ns" "Server request handling latency (ns)"
  in
  let conflict_retry_hist =
    histogram "bdbms_commit_conflict_retries"
      "Conflict aborts a transaction absorbed before committing"
  in
  let retry_backoff_hist =
    histogram "bdbms_io_retry_backoff_ns" "Sleep before an I/O retry (ns)"
  in
  {
    trace = Trace.create ?capacity ();
    metrics;
    stats = Stats.create ();
    qlog = Qlog.create ();
    stmt_hist;
    wal_flush_hist;
    evict_writeback_hist;
    root_swap_hist;
    checkpoint_hist;
    recovery_hist;
    req_hist;
    conflict_retry_hist;
    retry_backoff_hist;
  }

let span t name f = Trace.with_span t.trace name f

(* Histogram always observes; span only when tracing is enabled. *)
let timed t hist name f =
  let start = Timer.now_ns () in
  let finish () = Metrics.observe hist (Timer.now_ns () - start) in
  if Trace.enabled t.trace then
    Trace.with_span t.trace name (fun () -> Fun.protect ~finally:finish f)
  else Fun.protect ~finally:finish f
