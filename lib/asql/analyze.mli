(** EXPLAIN ANALYZE recorder: per-operator actuals (rows, loop counts,
    wall time, {!Bdbms_obs.Stats} counter deltas) collected while a
    query really executes, rendered side by side with the planner's
    estimates.

    The executor installs a recorder in [Context.analyze] for the
    duration of an [EXPLAIN ANALYZE] statement and builds one {!node} per
    plan operator, mirroring the estimate tree [Cost] prints.
    Accounting is inclusive (a node includes its children), matching
    Postgres's EXPLAIN ANALYZE semantics. *)

type node = {
  label : string;
  est_rows : float;  (** planner estimate; [nan] = none available *)
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
  mutable children : node list;
}

type t

val create : Bdbms_obs.Stats.t -> t
(** A recorder reading deltas off the given live counters. *)

val node :
  ?est_rows:float ->
  ?est_src:string ->
  ?table:string ->
  ?children:node list ->
  string ->
  node
val set_root : t -> node -> unit
val root : t -> node option
val add_child : node -> node -> unit
(** [add_child parent child] appends. *)

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

val render : ?total_ns:int -> ?returned:int -> node -> string
(** The annotated plan tree ([Cost.explain] layout, estimates and actuals
    side by side, non-zero counter deltas per node). *)
