module Pager = Bdbms_storage.Pager

type t = { bp : Pager.t; tables : (string, Table.t) Hashtbl.t; mutable version : int }

let create bp = { bp; tables = Hashtbl.create 16; version = 0 }
let version t = t.version
let bump t = t.version <- t.version + 1

let pager t = t.bp

let norm = String.lowercase_ascii

let create_table t ~name schema =
  let key = norm name in
  if Hashtbl.mem t.tables key then Error (Printf.sprintf "table %s already exists" name)
  else begin
    let table = Table.create t.bp ~name schema in
    Hashtbl.replace t.tables key table;
    bump t;
    Ok table
  end

let drop_table t name =
  let key = norm name in
  if Hashtbl.mem t.tables key then begin
    Hashtbl.remove t.tables key;
    bump t;
    true
  end
  else false

(* Re-register a table rebuilt from the durable catalog at bootstrap. *)
let restore_table t table =
  Hashtbl.replace t.tables (norm (Table.name table)) table;
  bump t

let find t name = Hashtbl.find_opt t.tables (norm name)
let find_exn t name = Hashtbl.find t.tables (norm name)
let exists t name = Hashtbl.mem t.tables (norm name)

let table_names t =
  Hashtbl.fold (fun _ table acc -> Table.name table :: acc) t.tables []
  |> List.sort String.compare
