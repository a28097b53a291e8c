(** Instance-level dependency graph (Section 5's "Storing dependencies").

    Schema-level rules say {e which columns} derive from which; the
    instance graph says {e which cells}: e.g. protein row 7's PSequence is
    derived from gene row 3's GSequence under Rule 1.  Instances are
    registered when derived rows are linked (typically along a foreign
    key) and drive the tracker's cascades. *)

type cell = { table : string; row : int; col : int }

val cell : table:string -> row:int -> col:int -> cell
val cell_equal : cell -> cell -> bool
val pp_cell : Format.formatter -> cell -> unit

type instance = {
  rule_id : string;
  sources : cell list;  (** in the rule's source order *)
  target : cell;
}

type t

val create : Bdbms_storage.Pager.t -> t
(** An empty graph.  Instances live in pages, per rule: a forward
    {!Bdbms_storage.Page_array} from target row to source rows and a
    reverse {!Bdbms_index.Btree} from (source, row) to target rows, both
    allocated by the rule's first instance.  A rule fixes the table and
    column of every cell, so an instance costs its rows alone. *)

val add_instance : t -> instance -> unit
(** One instance per rule and target cell: linking a target again
    replaces its sources.
    @raise Invalid_argument if the cells' tables or columns differ from
    the rule's earlier instances. *)

val instances_from : t -> cell -> instance list
(** Instances having the cell among their sources. *)

val instance_for_target : t -> cell -> instance option

val dependents : t -> cell -> cell list
(** Direct dependent cells. *)

val transitive_dependents : t -> cell -> cell list
(** Everything downstream (cycle-safe), in BFS order. *)

val iter_instances : t -> (instance -> unit) -> unit
(** Every registered instance, once each, by rule id then target row. *)

val instance_count : t -> int

(** {1 Durable heads} *)

(** One rule's fixed-size head: its cells' shape and the roots and
    sizes of its two structures, whatever its instance count. *)
type head = {
  rule_name : string;
  source_cols : (string * int) list;  (** (table, column) of each source *)
  target_col : string * int;
  fwd_root : Bdbms_storage.Page.id;
  fwd_length : int;
  rev : Bdbms_index.Btree.head;
  instances : int;
}

val heads : t -> head list
(** One per rule with instances, by rule id. *)

val attach : t -> head -> unit
(** Reattach a rule's instances from its head, reading no page. *)
