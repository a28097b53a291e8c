(** Hierarchical trace spans over a fixed-size ring buffer.

    Spans nest by dynamic extent: a span opened inside [with_span] becomes
    a child of the enclosing span.  Completed spans land in a preallocated
    ring (oldest overwritten first), so tracing is bounded-memory and can
    stay compiled into every engine path.  The disabled path — the default
    — is a single field load and branch.

    Spans are recorded at completion; a parent therefore always appears
    after its children.  The tree renderer reconstructs nesting from
    parent links and treats spans whose parent has been overwritten by
    wraparound (or is still open) as roots. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 512 spans.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling also clears the open-span stack. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] times [f] as a span named [name], a child of the
    dynamically enclosing span.  The span is recorded even if [f] raises.
    When tracing is disabled this is just [f ()]. *)

val mark : t -> int
(** Current completion sequence number; pass to [?since] to read only
    spans recorded after this point (the slow-query log's window). *)

val trace_id : t -> int

val with_trace_id : t -> int -> (unit -> 'a) -> 'a
(** Run a thunk under an ambient trace id, restoring the previous one
    (even on exceptions). *)

val clear : t -> unit

type view = {
  name : string;
  start_ns : Bdbms_util.Timer.ns;
  dur_ns : Bdbms_util.Timer.ns;
  id : int;
  parent : int;  (** parent span id; 0 = root *)
  depth : int;
  seq : int;
  trace_id : int;  (** ambient trace id at completion; 0 = none *)
}

val spans : ?since:int -> t -> view list
(** Completed spans still in the ring, oldest first. *)

val render_tree : ?since:int -> t -> string
(** Indented tree with per-span durations. *)

val render_json : ?since:int -> t -> string
(** Flat JSON array of span objects with parent links. *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (shared by
    the query log's JSONL rendering). *)
