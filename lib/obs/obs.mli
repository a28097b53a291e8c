(** The engine's observability handle: a {!Trace.t} ring of spans, the
    handle's {!Stats.t} counter group, and a {!Metrics.t} registry with
    the engine's standard latency histograms pre-registered.

    One handle is created per database ([Db.create]) and threaded through
    the context into the disk manager and WAL, so it survives rollbacks
    (which recreate the context).  Tracing starts disabled; histograms
    are always-on (an observation is a few integer operations). *)

type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  stats : Stats.t;
      (** the handle's counter scope: every counter and gauge, monotonic
          across rollbacks *)
  qlog : Qlog.t;
      (** structured query log: slow-statement ring + sampling JSONL sink *)
  stmt_hist : Metrics.histogram;      (** statement execution *)
  wal_flush_hist : Metrics.histogram; (** WAL group flush *)
  evict_writeback_hist : Metrics.histogram;
      (** pager eviction write-back *)
  root_swap_hist : Metrics.histogram; (** catalog root swap *)
  checkpoint_hist : Metrics.histogram;
  recovery_hist : Metrics.histogram;  (** recovery bootstrap *)
  req_hist : Metrics.histogram;
      (** server request handling (frame in → frame out) *)
  conflict_retry_hist : Metrics.histogram;
      (** conflict aborts absorbed before a transaction committed *)
  retry_backoff_hist : Metrics.histogram;
      (** sleep durations before I/O retries *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] is the trace ring size (default 512 spans). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Trace-only span (no histogram); no-op when tracing is disabled. *)

val timed : t -> Metrics.histogram -> string -> (unit -> 'a) -> 'a
(** [timed t hist name f]: always records [f]'s latency into [hist], and
    additionally wraps it in a trace span [name] when tracing is enabled.
    Records even if [f] raises. *)
