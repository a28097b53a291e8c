module Manager = Bdbms_annotation.Manager
module Ann = Bdbms_annotation.Ann
module Region = Bdbms_annotation.Region
module Ann_store = Bdbms_annotation.Ann_store
module Table = Bdbms_relation.Table

type t = { mgr : Manager.t; tools : (string, unit) Hashtbl.t; mutable version : int }

let reserved_table_name = "_provenance"

let create mgr = { mgr; tools = Hashtbl.create 4; version = 0 }

let register_tool t name =
  Hashtbl.replace t.tools name ();
  t.version <- t.version + 1

let version t = t.version

let tools t = Hashtbl.fold (fun k () acc -> k :: acc) t.tools [] |> List.sort String.compare

let is_authorized_actor t actor = actor = "system" || Hashtbl.mem t.tools actor

let ensure_table t table =
  if
    not
      (Manager.has_annotation_table t.mgr ~table_name:(Table.name table)
         ~name:reserved_table_name)
  then
    ignore
      (Manager.create_annotation_table t.mgr ~table ~name:reserved_table_name
         ~scheme:Ann_store.Compact ~category:Ann.Provenance ())

let record t ~table ~region ~record =
  if not (is_authorized_actor t record.Prov_record.actor) then
    Error
      (Printf.sprintf
         "actor %S is not authorized to write provenance (end-users may only read it)"
         record.Prov_record.actor)
  else begin
    ensure_table t table;
    let body = Prov_record.to_xml record in
    Manager.add t.mgr ~table ~ann_tables:[ reserved_table_name ] ~body
      ~category:Ann.Provenance ~author:record.Prov_record.actor ~region ()
  end

let decode_records anns =
  List.filter_map
    (fun ann ->
      match Prov_record.of_xml ann.Ann.body with Ok r -> Some r | Error _ -> None)
    anns

let records_for_cell t ~table_name ~row ~col =
  Manager.for_cell t.mgr ~table_name ~ann_tables:[ reserved_table_name ] ~row ~col ()
  |> decode_records
  |> List.sort (fun a b -> compare b.Prov_record.at a.Prov_record.at)

let source_at t ~table_name ~row ~col ~at =
  records_for_cell t ~table_name ~row ~col
  |> List.find_opt (fun r -> r.Prov_record.at <= at)

let history t ~table ~region =
  match
    Manager.for_region t.mgr ~table ~ann_tables:[ reserved_table_name ] ~region ()
  with
  | Error _ as e -> e
  | Ok anns ->
      Ok
        (decode_records anns
        |> List.sort (fun a b -> compare a.Prov_record.at b.Prov_record.at))
