(** The one write path for table rows and cells.  The executor's
    INSERT/UPDATE/DELETE, the ON (DELETE ...) log of deleted rows, the
    dependency tracker's re-derivations ({!derive}) and DISAPPROVE's
    inverse statements ({!undo}) all write here.  Each write maintains
    every built index tree over the table and the table's statistics, logs
    the change for approval when [user] is [Some writer], and an update or
    a delete runs the tracker cascade. *)

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
(** The cell's old value; the tracker re-derives or marks its dependents. *)

val delete :
  Context.t -> user:string option -> Bdbms_relation.Table.t -> row:int ->
  Bdbms_relation.Tuple.t -> unit
(** Delete the live row [row], whose tuple is given, and mark its
    dependents outdated.  A dead row is left alone. *)

val derive :
  Context.t -> Bdbms_dependency.Dep_graph.cell -> Bdbms_relation.Value.t ->
  (unit, string) result
(** The tracker's cell writer: no approval log and no further cascade
    (the tracker walks the cascade itself). *)

val undo : Context.t -> Bdbms_auth.Approval.operation -> (unit, string) result
(** Run a logged change's inverse statement unlogged: delete an inserted
    row, restore an updated cell, or bring a deleted row back at its row
    number and re-derive its dependents.  [Error] when the row has since
    changed state. *)
