(** The dependency manager (Sections 2 and 5): reacts to updates by
    re-deriving what the database can re-derive and marking outdated what
    it cannot.

    Given the paper's Figure 9 rules, modifying a gene sequence makes the
    tracker re-execute prediction tool P to refresh the dependent protein
    sequence (executable rule), then mark the protein's function outdated
    (non-executable rule) — and anything downstream of an outdated cell is
    itself outdated, since recomputing from a stale source cannot help. *)

type report = {
  recomputed : Dep_graph.cell list;  (** re-derived automatically *)
  marked : Dep_graph.cell list;      (** flagged outdated *)
  errors : (Dep_graph.cell * string) list;
      (** cells whose re-derivation failed (kept marked) *)
}

type t

val create : Bdbms_relation.Catalog.t -> t

val rule_set : t -> Rule_set.t
val registry : t -> Procedure.Registry.t
val graph : t -> Dep_graph.t

val add_rule : t -> Rule.t -> (unit, string) result
(** Registers the rule (and its procedures, if new). *)

val link :
  t ->
  rule_id:string ->
  sources:(int * int) list ->
  target:int * int ->
  (unit, string) result
(** Instantiate a rule at the cell level: [sources] and [target] are
    (row, col) pairs in the rule's tables, in the rule's source order.
    Every instance of a rule must use the same columns. *)

val link_rows :
  t -> rule_id:string -> source_rows:int list -> target_row:int -> (unit, string) result
(** Convenience: resolves the rule's source/target columns by name, so only
    row numbers are needed (one row per rule source, in order). *)

type write = Dep_graph.cell -> Bdbms_relation.Value.t -> (unit, string) result
(** Stores a re-derived value in its cell and keeps the table's side
    structures current (the engine's is [Bdbms_asql.Write.derive]); the
    tracker decides which cells to re-derive, and marks one whose write fails. *)

val propagate : t -> write:write -> Dep_graph.cell list -> report
(** React to the cells one statement changed, which keep their values
    and lose their marks.  Every cell downstream is visited once, in rule
    rank order, after all of its changed sources: an executable target
    whose chain succeeds is written through [write] and its mark cleared;
    any other target is marked with everything downstream of it, which is
    not derived.  Each bitmap changed is stored once, at the end. *)

val on_cell_update : t -> write:write -> table:string -> row:int -> col:int -> report
(** {!propagate} of one cell. *)

val on_procedure_change : t -> write:write -> string -> report
(** React to a procedure upgrade or replacement (e.g. a new BLAST version):
    the same cascade as {!propagate}, started from the targets of every
    instance derived through the procedure, which re-derive or are marked. *)

val revalidate : t -> table:string -> row:int -> col:int -> unit
(** Clear a cell's outdated mark after out-of-band verification, storing
    that table's bitmap. *)

val is_outdated : t -> table:string -> row:int -> col:int -> bool

val has_outdated : t -> table:string -> bool
(** Whether any cell of [table] is currently marked outdated — cheap, used
    by the executor to decide if a plain scan must still surface outdated
    warnings. *)

val outdated_cells : t -> table:string -> (int * int) list

val outdated_heads : t -> (string * Outdated.head) list
(** The durable head of every stored bitmap, by lowercase table name.
    Marks are stored by the call that changed them ({!propagate} and
    its two forms, {!revalidate}). *)

val attach_outdated : t -> table:string -> Outdated.head -> unit
(** Reattach a table's stored bitmap at bootstrap, reading no page. *)

val bitmap_stats : t -> table:string -> (int * int) option
(** (raw bytes, RLE-compressed bytes) of the table's bitmap. *)
