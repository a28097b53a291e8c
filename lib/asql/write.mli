(** The one write path for table rows and cells.  The executor's
    INSERT/UPDATE/DELETE, the ON (DELETE ...) log of deleted rows, the
    dependency tracker's re-derivations ({!derive}) and DISAPPROVE's
    inverse statements ({!undo}) all write here.  Each write maintains
    every built index tree over the table and the table's statistics, logs
    the change for approval when [user] is [Some writer].  A statement's
    updated and deleted cells then run one tracker cascade ({!cascade}). *)

val index_add : Bdbms_index.Btree.t -> Bdbms_relation.Value.t -> row:int -> unit
(** Enter a cell into an index tree under [Value.hash_key], the key [=]
    agrees with; a NULL cell gets no entry. *)

val insert :
  Context.t -> user:string option -> Bdbms_relation.Table.t -> Bdbms_relation.Tuple.t ->
  (int, string) result
(** The new row's number. *)

val update_cell :
  Context.t -> user:string option -> Bdbms_relation.Table.t -> row:int -> col:int ->
  Bdbms_relation.Value.t -> (Bdbms_relation.Value.t, string) result
(** The cell's old value. *)

val delete :
  Context.t -> user:string option -> Bdbms_relation.Table.t -> row:int ->
  Bdbms_relation.Tuple.t -> unit
(** Delete the live row [row], whose tuple is given.  A dead row is left
    alone. *)

val cascade : Context.t -> Bdbms_relation.Table.t -> (int * int) list -> unit
(** A statement's one dependency cascade over the [(row, col)] cells it
    changed ({!Bdbms_dependency.Tracker.propagate}), deriving through
    {!derive}. *)

val row_cells : Bdbms_relation.Table.t -> int list -> (int * int) list
(** Every [(row, col)] cell of the rows. *)

val derive :
  Context.t -> Bdbms_dependency.Dep_graph.cell -> Bdbms_relation.Value.t ->
  (unit, string) result
(** The tracker's cell writer: no approval log and no further cascade
    (the tracker walks the cascade itself). *)

val undo : Context.t -> Bdbms_auth.Approval.operation -> (unit, string) result
(** Run a logged change's inverse statement unlogged: delete an inserted
    row, restore an updated cell, or bring a deleted row back at its row
    number; its cells then {!cascade}.  [Error] when the row has since
    changed state. *)
