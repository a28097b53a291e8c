module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Table = Bdbms_relation.Table
module Catalog = Bdbms_relation.Catalog
module Btree = Bdbms_index.Btree
module Tracker = Bdbms_dependency.Tracker
module Approval = Bdbms_auth.Approval
module Stats_reg = Bdbms_stats.Registry

(* [f tree col] for every built index tree over [tbl]; an unbuilt tree
   is built from a table scan on its first probe, so it needs nothing.
   A loop rather than [List.iter]: a row's write allocates no closure here. *)
let rec each_tree tbl f = function
  | [] -> ()
  | (idx : Context.index_def) :: idxs ->
      (match idx.Context.tree with
      | Some tree -> f tree (Schema.index_of_exn (Table.schema tbl) idx.Context.idx_column)
      | None -> ());
      each_tree tbl f idxs

let iter_trees ctx tbl f = each_tree tbl f (Context.indexes_on ctx ~table:(Table.name tbl))

(* An index keys a cell by the key [=] agrees with, [Value.hash_key]:
   ints and floats share one numeric key and -0.0 is 0.0.  NULL has no
   key and gets no entry, since [=] never matches it. *)
let index_add tree value ~row =
  match Value.hash_key value with
  | Some key -> Btree.insert tree ~key ~value:row
  | None -> ()

let index_remove tree value ~row =
  match Value.hash_key value with
  | Some key -> ignore (Btree.delete tree ~key ~value:row)
  | None -> ()

let added (ctx : Context.t) tbl ~row tuple =
  iter_trees ctx tbl (fun tree col ->
      index_add tree (Tuple.get tuple col) ~row);
  Stats_reg.note_insert ctx.Context.tstats (Table.name tbl) tuple

let insert (ctx : Context.t) ~user tbl tuple =
  match Table.insert tbl tuple with
  | Error _ as e -> e
  | Ok row as r ->
      added ctx tbl ~row tuple;
      (match user with
      | Some user -> ignore (Approval.log_insert ctx.approval ~table:(Table.name tbl) ~row ~user)
      | None -> ());
      r

(* The cell write with its index entries and stats delta, nothing more:
   what a re-derived cell gets. *)
let set_cell (ctx : Context.t) tbl ~row ~col value =
  match Table.update_cell tbl ~row ~col value with
  | Error _ as e -> e
  | Ok old_value as r ->
      iter_trees ctx tbl (fun tree c ->
          if c = col then begin
            index_remove tree old_value ~row;
            index_add tree value ~row
          end);
      Stats_reg.note_update ctx.Context.tstats (Table.name tbl) ~col value;
      r

let derive (ctx : Context.t) (c : Bdbms_dependency.Dep_graph.cell) value =
  Result.map ignore
    (set_cell ctx (Catalog.find_exn ctx.catalog c.table) ~row:c.row ~col:c.col value)

let cascade (ctx : Context.t) tbl ~row ~col =
  ignore
    (Tracker.on_cell_update ctx.tracker ~write:(derive ctx) ~table:(Table.name tbl) ~row ~col)

let cascade_row ctx tbl ~row =
  for col = 0 to Schema.arity (Table.schema tbl) - 1 do
    cascade ctx tbl ~row ~col
  done

let update_cell (ctx : Context.t) ~user tbl ~row ~col value =
  match set_cell ctx tbl ~row ~col value with
  | Error _ as e -> e
  | Ok old_value as r ->
      (match user with
      | Some user ->
          ignore
            (Approval.log_update ctx.approval ~table:(Table.name tbl) ~row ~col
               ~column_name:(Schema.column_at (Table.schema tbl) col).Schema.name ~old_value
               ~user)
      | None -> ());
      cascade ctx tbl ~row ~col;
      r

let delete (ctx : Context.t) ~user tbl ~row tuple =
  if Table.delete tbl row then begin
    iter_trees ctx tbl (fun tree col ->
        index_remove tree (Tuple.get tuple col) ~row);
    Stats_reg.note_delete ctx.Context.tstats (Table.name tbl) tuple;
    (match user with
    | Some user ->
        ignore
          (Approval.log_delete ctx.approval ~table:(Table.name tbl) ~row ~old_tuple:tuple ~user)
    | None -> ());
    (* dependents of a deleted row cannot be recomputed: they get marked *)
    cascade_row ctx tbl ~row
  end

let undo (ctx : Context.t) (op : Approval.operation) =
  match op with
  | Approval.Op_insert { table; row } -> (
      let tbl = Catalog.find_exn ctx.catalog table in
      match Table.get tbl row with
      | Some tuple -> Ok (delete ctx ~user:None tbl ~row tuple)
      | None -> Error (Printf.sprintf "cannot undo insert: row %d of %s is gone" row table))
  | Approval.Op_update { table; row; col; old_value } -> (
      match update_cell ctx ~user:None (Catalog.find_exn ctx.catalog table) ~row ~col old_value with
      | Ok _ -> Ok ()
      | Error e -> Error ("cannot undo update: " ^ e))
  | Approval.Op_delete { table; row; old_tuple } -> (
      let tbl = Catalog.find_exn ctx.catalog table in
      match Table.resurrect tbl row old_tuple with
      | Ok () ->
          added ctx tbl ~row old_tuple;
          (* the dependents the delete marked derive from the row again *)
          Ok (cascade_row ctx tbl ~row)
      | Error e -> Error ("cannot undo delete: " ^ e))
