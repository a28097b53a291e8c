(** Monotonic wall-clock time in nanoseconds.

    Distinct from the logical {!Clock} (a counter the annotation and
    provenance managers use for happened-before ordering): this is real
    elapsed time for the observability layer — span durations, latency
    histograms, EXPLAIN ANALYZE timings.  Readings are clamped to be
    non-decreasing within the process. *)

type ns = int

val now_ns : unit -> ns
(** Current reading.  Only differences between readings are meaningful. *)

val since_ns : ns -> ns
(** [since_ns start] = [now_ns () - start]. *)

val timed : (unit -> 'a) -> 'a * ns
(** Run a thunk, returning its result and elapsed nanoseconds. *)

val ns_to_ms : ns -> float

val pp_ns : Format.formatter -> ns -> unit
(** Human-scaled rendering: ["730ns"], ["12.4us"], ["3.08ms"], ["1.20s"]. *)
