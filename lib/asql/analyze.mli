(** The plan tree: one {!node} per operator with the planner's estimates
    (built by {!Cost}), and the actuals (rows, loop counts, wall time,
    {!Bdbms_obs.Stats} counter deltas) collected while a query really
    executes.

    [EXPLAIN] renders the estimates alone.  For [EXPLAIN ANALYZE] the
    executor installs a recorder in [Context.analyze] for the duration
    of the statement and meters the same nodes.  Accounting is inclusive
    (a node includes its children), matching Postgres's EXPLAIN ANALYZE
    semantics. *)

type node = {
  label : string;
  est_rows : float;  (** planner estimate; [nan] = none available *)
  est_pages : float;  (** estimated page accesses; [nan] = none available *)
  est_src : string option;
      (** where the estimate came from ([Plan.est_src_name]); rendered as
          [est src=...] next to the estimate *)
  table : string option;
      (** base table a scan node reads — the adaptive-feedback walk uses
          it to attribute estimate drift to a table's statistics *)
  mutable actual_rows : int;
  mutable loops : int;
  mutable batches : int;  (** column batches produced (vectorized path) *)
  mutable time_ns : int;  (** inclusive wall time *)
  scratch : int array;
  acc : int array;  (** accumulated {!Bdbms_obs.Stats} deltas *)
  children : node list;
}

type t

val create : Bdbms_obs.Stats.t -> t
(** A recorder reading deltas off the given live counters. *)

val node :
  ?est_rows:float ->
  ?est_pages:float ->
  ?est_src:string ->
  ?table:string ->
  ?children:node list ->
  string ->
  node
val set_root : t -> node -> unit
val root : t -> node option

val meter_batch_pull :
  t -> node -> rows:('b -> int) -> (unit -> 'b option) -> unit -> 'b option
(** Wrap an operator's batch pull function: every call is timed and its
    counter delta attributed to the node; each produced batch counts
    [rows b] actual rows and one batch, rendered as [batches=n] next to
    the loop count.  Wrapping increments [loops]. *)

val timed_block : t -> node -> (unit -> 'a) -> 'a
(** Materialized-path metering: time one whole evaluation (recorded even
    if it raises); report produced rows separately via {!record_rows}. *)

val record_rows : node -> int -> unit

val render : ?actuals:Bdbms_util.Timer.ns * int -> node -> string
(** The plan tree, one line per node: label, estimated rows and pages,
    estimate source.  With [actuals] (total wall time, rows returned) —
    EXPLAIN ANALYZE — a header line comes first and every node also
    shows its actual rows, loops, batches, time and non-zero counter
    deltas. *)
