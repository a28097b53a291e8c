(** Metrics registry: named log-scale latency histograms, plus the
    Prometheus-style text exposition of those and the {!Stats} counters.

    Histograms are always-on: an observation is a few integer operations
    with no allocation, so the engine registers its latency histograms
    unconditionally and [Db.metrics] / the CLI's [\metrics] read them on
    demand.

    Histograms are log-linear (exact below 32, then 16 sub-buckets per
    power-of-two octave), bounding quantile error to ~6% without storing
    samples.  Values are conventionally nanoseconds ({!Bdbms_util.Timer}
    readings), but any non-negative int works. *)

type t
(** A registry.  Names must be unique within a registry. *)

type histogram

val create : unit -> t

val histogram : t -> ?help:string -> string -> histogram
(** @raise Invalid_argument if the name is already registered. *)

val observe : histogram -> int -> unit
(** Record one value (negative values clamp to 0). *)

val count : histogram -> int
val sum : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h 0.95] is the p95 estimate: the floor of the bucket where
    the cumulative count reaches the rank, clamped to observed min/max.
    0 when the histogram is empty. *)

val reset_histogram : histogram -> unit

val render : counters:Stats.snapshot -> t -> string
(** Prometheus-style text: first every slot of [counters] as one sample
    — [bdbms_<name>_total] for a counter, [bdbms_<name>] for a gauge —
    then the histograms as summaries ([name{quantile="0.5"}],
    [name_count], [name_sum]) in registration order. *)

val summary_line : histogram -> string
(** One aligned human-readable line: count, p50/p95/p99, max. *)

val histograms : t -> histogram list
(** In registration order. *)

(** {1 Introspection} *)

type view = {
  name : string;
  count : int;
  sum : int;
  min : int;  (** 0 when empty *)
  max : int;
  p50 : int;
  p95 : int;
  p99 : int;
}

val views : t -> view list
(** Read-only snapshot of every histogram in registration order — what
    the [sys.histograms] virtual table scans. *)

(** {1 Text-format escaping} *)

val escape_help : string -> string
(** Escape backslash and newline for a [# HELP] line. *)

val escape_label_value : string -> string
(** Escape backslash, double quote, and newline for a label value. *)

(**/**)

val bucket_of : int -> int
(** Exposed for the percentile-math tests. *)

val bucket_floor : int -> int
