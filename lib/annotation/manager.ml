module Pager = Bdbms_storage.Pager
module Clock = Bdbms_util.Clock
module Idgen = Bdbms_util.Idgen
module Xml_lite = Bdbms_util.Xml_lite
module Table = Bdbms_relation.Table

type ann_table = {
  at_name : string;
  store : Ann_store.t;
  default_category : Ann.category;
}

type t = {
  bp : Pager.t;
  clock : Clock.t;
  ids : Idgen.t;
  (* user-table name (lowercase) -> its annotation tables *)
  tables : (string, (string, ann_table) Hashtbl.t) Hashtbl.t;
  mutable registry : Ann_registry.t;
  mutable version : int;
      (* moves with the table definitions and the id counter; the
         registry and the stores' pages move with their page writes *)
}

let id_prefix = "ann"

let create bp clock =
  { bp; clock; ids = Idgen.create ~prefix:id_prefix (); tables = Hashtbl.create 16;
    registry = Ann_registry.create bp; version = 0 }

let version t = t.version
let bump t = t.version <- t.version + 1

(* An id's registry number: "ann<n>" -> n. *)
let number id =
  let p = String.length id_prefix in
  if String.length id > p && String.sub id 0 p = id_prefix then
    int_of_string_opt (String.sub id p (String.length id - p))
  else None

let clock t = t.clock

let norm = String.lowercase_ascii

let table_entry t table_name =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 4 in
      Hashtbl.replace t.tables (norm table_name) h;
      h

let create_annotation_table t ~table ~name ?(scheme = Ann_store.Compact)
    ?(category = Ann.Comment) ?(indexed = false) () =
  let h = table_entry t (Table.name table) in
  if Hashtbl.mem h (norm name) then
    Error
      (Printf.sprintf "annotation table %s already exists on %s" name (Table.name table))
  else begin
    Hashtbl.replace h (norm name)
      {
        at_name = name;
        store = Ann_store.create ~indexed scheme t.bp;
        default_category = category;
      };
    bump t;
    Ok ()
  end

let drop_annotation_table t ~table_name ~name =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | None -> false
  | Some h ->
      if Hashtbl.mem h (norm name) then begin
        Hashtbl.remove h (norm name);
        bump t;
        true
      end
      else false

let annotation_table_names t ~table_name =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | None -> []
  | Some h ->
      Hashtbl.fold (fun _ at acc -> at.at_name :: acc) h [] |> List.sort String.compare

let has_annotation_table t ~table_name ~name =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | None -> false
  | Some h -> Hashtbl.mem h (norm name)

let lookup_ann_tables t ~table_name names =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | None -> Error (Printf.sprintf "table %s has no annotation tables" table_name)
  | Some h ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match Hashtbl.find_opt h (norm n) with
            | Some at -> go (at :: acc) rest
            | None ->
                Error
                  (Printf.sprintf "no annotation table %s on %s" n table_name))
      in
      go [] names

let all_ann_tables t ~table_name =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | None -> []
  | Some h -> Hashtbl.fold (fun _ at acc -> at :: acc) h []

let add t ~table ~ann_tables ~body ?category ~author ~region () =
  if ann_tables = [] then Error "no annotation table specified"
  else
    match lookup_ann_tables t ~table_name:(Table.name table) ann_tables with
    | Error _ as e -> e
    | Ok ats -> (
        match
          Region.to_rects region ~schema:(Table.schema table)
            ~row_count:(Table.row_count table)
        with
        | Error _ as e -> e
        | Ok rects ->
            let category =
              match category with
              | Some c -> c
              | None -> (List.hd ats).default_category
            in
            let n = Idgen.next_int t.ids in
            bump t;
            let ann =
              Ann.make ~id:(id_prefix ^ string_of_int n) ~body ~category ~author
                ~created_at:(Clock.tick t.clock)
            in
            Ann_registry.add t.registry n ann;
            let body_str = Ann.body_string ann in
            List.iter
              (fun at -> Ann_store.add at.store ~ann_id:ann.Ann.id ~body:body_str rects)
              ats;
            Ok ann)

let add_text t ~table ~ann_tables ~text ?category ~author ~region () =
  let body = Xml_lite.element "Annotation" [ Xml_lite.text text ] in
  add t ~table ~ann_tables ~body ?category ~author ~region ()

let find t id =
  match number id with Some n -> Ann_registry.find t.registry n ~id | None -> None

let resolve t ?(include_archived = false) ids =
  List.filter_map
    (fun id ->
      match find t id with
      | Some ann when include_archived || not ann.Ann.archived -> Some ann
      | _ -> None)
    ids

let selected_tables t ~table_name = function
  | None -> all_ann_tables t ~table_name
  | Some names -> (
      match lookup_ann_tables t ~table_name names with Ok ats -> ats | Error _ -> [])

let for_cell t ~table_name ?ann_tables ?include_archived ~row ~col () =
  let ats = selected_tables t ~table_name ann_tables in
  let ids = List.concat_map (fun at -> Ann_store.ids_for_cell at.store ~row ~col) ats in
  resolve t ?include_archived (List.sort_uniq String.compare ids)

let region_ids t ~table ?ann_tables ~region () =
  let table_name = Table.name table in
  match
    Region.to_rects region ~schema:(Table.schema table) ~row_count:(Table.row_count table)
  with
  | Error _ as e -> e
  | Ok rects ->
      let ats = selected_tables t ~table_name ann_tables in
      let ids =
        List.concat_map
          (fun at ->
            List.concat_map (fun rect -> Ann_store.ids_for_rect at.store rect) rects)
          ats
      in
      Ok (List.sort_uniq String.compare ids)

let for_region t ~table ?ann_tables ?include_archived ~region () =
  match region_ids t ~table ?ann_tables ~region () with
  | Error _ as e -> e
  | Ok ids -> Ok (resolve t ?include_archived ids)

let set_archived t ~table ?ann_tables ?between ~region ~to_archived () =
  match region_ids t ~table ?ann_tables ~region () with
  | Error _ as e -> e
  | Ok ids ->
      let in_range ann =
        match between with
        | None -> true
        | Some (lo, hi) -> ann.Ann.created_at >= lo && ann.Ann.created_at <= hi
      in
      let changed = ref 0 in
      List.iter
        (fun id ->
          match (number id, find t id) with
          | Some n, Some ann when in_range ann && ann.Ann.archived <> to_archived ->
              Ann_registry.set_archived t.registry n
                (if to_archived then Some (Clock.tick t.clock) else None);
              incr changed
          | _ -> ())
        ids;
      Ok !changed

let archive t ~table ?ann_tables ?between ~region () =
  set_archived t ~table ?ann_tables ?between ~region ~to_archived:true ()

let restore t ~table ?ann_tables ?between ~region () =
  set_archived t ~table ?ann_tables ?between ~region ~to_archived:false ()

let store_of t ~table_name ~name =
  match Hashtbl.find_opt t.tables (norm table_name) with
  | None -> None
  | Some h -> Option.map (fun at -> at.store) (Hashtbl.find_opt h (norm name))

let registry_size t = Ann_registry.count t.registry

(* ---------------------------------------------- durable-catalog hooks *)

type ann_table_info = {
  ati_table : string; (* user-table name as registered (lowercase key) *)
  ati_name : string;
  ati_scheme : Ann_store.scheme;
  ati_indexed : bool;
  ati_category : Ann.category;
  ati_heap_pages : Bdbms_storage.Page.id list;
}

let dump_tables t =
  Hashtbl.fold
    (fun table_key h acc ->
      Hashtbl.fold
        (fun _ at acc ->
          {
            ati_table = table_key;
            ati_name = at.at_name;
            ati_scheme = Ann_store.scheme at.store;
            ati_indexed = Ann_store.indexed at.store;
            ati_category = at.default_category;
            ati_heap_pages = Ann_store.heap_pages at.store;
          }
          :: acc)
        h acc)
    t.tables []
  |> List.sort (fun a b ->
         compare (a.ati_table, a.ati_name) (b.ati_table, b.ati_name))

let registry_head t = Ann_registry.head t.registry
let attach_registry t h =
  t.registry <- Ann_registry.attach t.bp h;
  bump t

let id_counter t = Idgen.counter t.ids

let restore_annotation_table t info =
  let h = table_entry t info.ati_table in
  Hashtbl.replace h (norm info.ati_name)
    {
      at_name = info.ati_name;
      store =
        Ann_store.restore ~indexed:info.ati_indexed info.ati_scheme t.bp
          ~heap_pages:info.ati_heap_pages;
      default_category = info.ati_category;
    };
  bump t

let restore_id_counter t n =
  Idgen.restore t.ids n;
  bump t
