module Clock = Bdbms_util.Clock
module Crc32 = Bdbms_util.Crc32
module Xml_lite = Bdbms_util.Xml_lite
module Pager = Bdbms_storage.Pager
module Heap_file = Bdbms_storage.Heap_file
module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Value = Bdbms_relation.Value
module Tuple = Bdbms_relation.Tuple
module Manager = Bdbms_annotation.Manager
module Ann = Bdbms_annotation.Ann
module Ann_store = Bdbms_annotation.Ann_store
module Prov_store = Bdbms_provenance.Prov_store
module Tracker = Bdbms_dependency.Tracker
module Rule = Bdbms_dependency.Rule
module Rule_set = Bdbms_dependency.Rule_set
module Procedure = Bdbms_dependency.Procedure
module Dep_graph = Bdbms_dependency.Dep_graph
module Principal = Bdbms_auth.Principal
module Acl = Bdbms_auth.Acl
module Approval = Bdbms_auth.Approval

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

type index_info = { ix_name : string; ix_table : string; ix_column : string }

type components = {
  dc_clock : Clock.t;
  dc_catalog : Catalog.t;
  dc_ann : Manager.t;
  dc_prov : Prov_store.t;
  dc_tracker : Tracker.t;
  dc_principals : Principal.t;
  dc_acl : Acl.t;
  dc_approval : Approval.t;
}

let magic = "BCAT"
let version = 1

(* Record tags.  Append-only: retag nothing, add new tags at the end. *)
let tag_clock = 1
let tag_table = 2
let tag_ann_counter = 3
let tag_ann_table = 4
let tag_ann = 5
let tag_prov_tool = 6
let tag_user = 7
let tag_group = 8
let tag_membership = 9
let tag_grants = 10
let tag_rule = 11
let tag_instance = 12
let tag_outdated = 13
let tag_monitored = 14
let tag_approval_entry = 15
let tag_approval_next = 16
let tag_index = 17
let tag_table_stats = 18

(* ------------------------------------------------------------ writing *)

let add_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let add_u32 b n = Buffer.add_int32_le b (Int32.of_int n)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_bool b v = add_u8 b (if v then 1 else 0)

let add_opt b f = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      f v

let add_list b f l =
  add_u32 b (List.length l);
  List.iter f l

(* ------------------------------------------------------------ reading *)

type reader = { buf : string; mutable pos : int }

let need r n =
  if r.pos + n > String.length r.buf then
    malformed "catalog record truncated at byte %d" r.pos

let u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let str r =
  let len = u32 r in
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let bool r = u8 r <> 0

let opt r f = if u8 r = 0 then None else Some (f r)

let list r f =
  let n = u32 r in
  List.init n (fun _ -> f r)

(* ------------------------------------------------------- field codecs *)

let add_grantee b = function
  | Acl.User u ->
      add_u8 b 0;
      add_str b u
  | Acl.Group g ->
      add_u8 b 1;
      add_str b g

let grantee r =
  match u8 r with
  | 0 -> Acl.User (str r)
  | 1 -> Acl.Group (str r)
  | n -> malformed "unknown grantee kind %d" n

let privilege_tag = function
  | Acl.Select -> 0
  | Acl.Insert -> 1
  | Acl.Update -> 2
  | Acl.Delete -> 3

let privilege_of_tag = function
  | 0 -> Acl.Select
  | 1 -> Acl.Insert
  | 2 -> Acl.Update
  | 3 -> Acl.Delete
  | n -> malformed "unknown privilege %d" n

let add_operation b = function
  | Approval.Op_insert { table; row } ->
      add_u8 b 0;
      add_str b table;
      add_u32 b row
  | Approval.Op_update { table; row; col; old_value } ->
      add_u8 b 1;
      add_str b table;
      add_u32 b row;
      add_u32 b col;
      add_str b (Value.encode old_value)
  | Approval.Op_delete { table; row; old_tuple } ->
      add_u8 b 2;
      add_str b table;
      add_u32 b row;
      add_str b (Tuple.encode old_tuple)

let operation r =
  match u8 r with
  | 0 ->
      let table = str r in
      let row = u32 r in
      Approval.Op_insert { table; row }
  | 1 ->
      let table = str r in
      let row = u32 r in
      let col = u32 r in
      let old_value, _ = Value.decode (str r) ~pos:0 in
      Approval.Op_update { table; row; col; old_value }
  | 2 ->
      let table = str r in
      let row = u32 r in
      let old_tuple = Tuple.decode (str r) in
      Approval.Op_delete { table; row; old_tuple }
  | n -> malformed "unknown approval operation %d" n

let status_tag = function
  | Approval.Pending -> 0
  | Approval.Approved -> 1
  | Approval.Disapproved -> 2

let status_of_tag = function
  | 0 -> Approval.Pending
  | 1 -> Approval.Approved
  | 2 -> Approval.Disapproved
  | n -> malformed "unknown approval status %d" n

let add_cell b (c : Dep_graph.cell) =
  add_str b c.table;
  add_u32 b c.row;
  add_u32 b c.col

let cell r =
  let table = str r in
  let row = u32 r in
  let col = u32 r in
  Dep_graph.cell ~table ~row ~col

(* -------------------------------------------------------------- encode *)

let encode comps ~indexes ~stats =
  let out = Buffer.create 4096 in
  let count = ref 0 in
  let payload = Buffer.create 512 in
  let record tag fill =
    Buffer.clear payload;
    fill payload;
    let p = Buffer.contents payload in
    add_u8 out tag;
    add_u32 out (String.length p);
    Buffer.add_string out p;
    add_u32 out (Crc32.string p);
    incr count
  in
  record tag_clock (fun b -> add_u32 b (Clock.now comps.dc_clock));
  (* user tables: name, schema, heap pages, slot directory *)
  List.iter
    (fun name ->
      let tbl = Catalog.find_exn comps.dc_catalog name in
      record tag_table (fun b ->
          add_str b (Table.name tbl);
          add_list b
            (fun (c : Schema.column) ->
              add_str b c.name;
              add_str b (Value.type_name c.ty))
            (Schema.columns (Table.schema tbl));
          add_list b (add_u32 b) (Table.heap_pages tbl);
          add_list b
            (function
              | Table.Dead -> add_u8 b 0
              | Table.Live (rid : Heap_file.rid) ->
                  add_u8 b 1;
                  add_u32 b rid.page;
                  add_u32 b rid.slot)
            (Table.slots tbl)))
    (List.sort String.compare (Catalog.table_names comps.dc_catalog));
  record tag_ann_counter (fun b -> add_u32 b (Manager.id_counter comps.dc_ann));
  List.iter
    (fun (info : Manager.ann_table_info) ->
      record tag_ann_table (fun b ->
          add_str b info.ati_table;
          add_str b info.ati_name;
          add_u8 b (match info.ati_scheme with Ann_store.Cell -> 0 | Ann_store.Compact -> 1);
          add_bool b info.ati_indexed;
          add_str b (Ann.category_name info.ati_category);
          add_list b (add_u32 b) info.ati_heap_pages))
    (Manager.dump_tables comps.dc_ann);
  List.iter
    (fun (ann : Ann.t) ->
      record tag_ann (fun b ->
          add_str b ann.id;
          add_str b (Ann.body_string ann);
          add_str b (Ann.category_name ann.category);
          add_str b ann.author;
          add_u32 b ann.created_at;
          add_bool b ann.archived;
          add_opt b (add_u32 b) ann.archived_at))
    (Manager.dump_registry comps.dc_ann);
  List.iter
    (fun tool -> record tag_prov_tool (fun b -> add_str b tool))
    (Prov_store.tools comps.dc_prov);
  List.iter
    (fun u -> record tag_user (fun b -> add_str b u))
    (List.sort String.compare (Principal.users comps.dc_principals));
  List.iter
    (fun g -> record tag_group (fun b -> add_str b g))
    (Principal.groups comps.dc_principals);
  List.iter
    (fun (user, groups) ->
      if groups <> [] then
        record tag_membership (fun b ->
            add_str b user;
            add_list b (add_str b) groups))
    (Principal.memberships comps.dc_principals);
  List.iter
    (fun (table, entries) ->
      record tag_grants (fun b ->
          add_str b table;
          add_list b
            (fun (e : Acl.grant_entry) ->
              add_u8 b (privilege_tag e.privilege);
              add_grantee b e.grantee;
              add_opt b (fun cols -> add_list b (add_str b) cols) e.columns)
            entries))
    (Acl.dump_grants comps.dc_acl);
  List.iter
    (fun (rule : Rule.t) ->
      record tag_rule (fun b ->
          add_str b rule.id;
          add_bool b rule.derived;
          let attr (a : Rule.attr) =
            add_str b a.table;
            add_str b a.column
          in
          add_list b attr rule.sources;
          attr rule.target;
          add_list b
            (fun (p : Procedure.t) ->
              add_str b p.name;
              add_str b p.version;
              add_bool b p.invertible;
              match p.kind with
              | Procedure.Executable _ ->
                  add_bool b true;
                  add_str b ""
              | Procedure.Non_executable d ->
                  add_bool b false;
                  add_str b d)
            rule.chain))
    (Rule_set.rules (Tracker.rule_set comps.dc_tracker));
  let instances = ref [] in
  Dep_graph.iter_instances (Tracker.graph comps.dc_tracker) (fun i ->
      instances := i :: !instances);
  let instances =
    List.sort
      (fun (a : Dep_graph.instance) (b : Dep_graph.instance) ->
        compare
          (a.rule_id, a.target.table, a.target.row, a.target.col)
          (b.rule_id, b.target.table, b.target.row, b.target.col))
      !instances
  in
  List.iter
    (fun (i : Dep_graph.instance) ->
      record tag_instance (fun b ->
          add_str b i.rule_id;
          add_list b (add_cell b) i.sources;
          add_cell b i.target))
    instances;
  List.iter
    (fun (table, _) ->
      let cells = List.sort compare (Tracker.outdated_cells comps.dc_tracker ~table) in
      if cells <> [] then
        record tag_outdated (fun b ->
            add_str b table;
            add_list b
              (fun (row, col) ->
                add_u32 b row;
                add_u32 b col)
              cells))
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (Tracker.outdated_tables comps.dc_tracker));
  List.iter
    (fun (table, (config : Approval.config)) ->
      record tag_monitored (fun b ->
          add_str b table;
          add_opt b (fun cols -> add_list b (add_str b) cols) config.columns;
          add_grantee b config.approver))
    (Approval.dump_monitored comps.dc_approval);
  List.iter
    (fun (e : Approval.entry) ->
      record tag_approval_entry (fun b ->
          add_u32 b e.id;
          add_operation b e.operation;
          add_str b e.user;
          add_u32 b e.at;
          add_u8 b (status_tag e.status);
          add_opt b (add_str b) e.decided_by;
          add_opt b (add_u32 b) e.decided_at))
    (Approval.entries comps.dc_approval);
  record tag_approval_next (fun b -> add_u32 b (Approval.next_id comps.dc_approval));
  List.iter
    (fun ix ->
      record tag_index (fun b ->
          add_str b ix.ix_name;
          add_str b ix.ix_table;
          add_str b ix.ix_column))
    (List.sort (fun a b -> String.compare a.ix_name b.ix_name) indexes);
  (* optimizer statistics: one opaque versioned blob per analyzed table,
     produced by Bdbms_stats.Registry (already sorted by table name) *)
  List.iter
    (fun blob -> record tag_table_stats (fun b -> Buffer.add_string b blob))
    stats;
  let header = Buffer.create 12 in
  Buffer.add_string header magic;
  add_u32 header version;
  add_u32 header !count;
  Buffer.add_buffer header out;
  Buffer.to_bytes header

(* ------------------------------------------------------------- restore *)

let restore_table bp comps r =
  let name = str r in
  let columns =
    list r (fun r ->
        let cname = str r in
        let tyname = str r in
        match Value.type_of_name tyname with
        | Some ty -> { Schema.name = cname; ty }
        | None -> malformed "unknown column type %S" tyname)
  in
  let heap_pages = list r u32 in
  let slots =
    list r (fun r ->
        match u8 r with
        | 0 -> Table.Dead
        | 1 ->
            let page = u32 r in
            let slot = u32 r in
            Table.Live { Heap_file.page; slot }
        | n -> malformed "unknown slot kind %d" n)
  in
  let tbl = Table.restore bp ~name (Schema.make columns) ~heap_pages ~slots in
  Catalog.restore_table comps.dc_catalog tbl

let restore_ann_table comps r =
  let ati_table = str r in
  let ati_name = str r in
  let ati_scheme =
    match u8 r with
    | 0 -> Ann_store.Cell
    | 1 -> Ann_store.Compact
    | n -> malformed "unknown annotation scheme %d" n
  in
  let ati_indexed = bool r in
  let ati_category = Ann.category_of_name (str r) in
  let ati_heap_pages = list r u32 in
  Manager.restore_annotation_table comps.dc_ann
    { Manager.ati_table; ati_name; ati_scheme; ati_indexed; ati_category; ati_heap_pages }

let restore_ann comps r =
  let id = str r in
  let body = Xml_lite.parse (str r) in
  let category = Ann.category_of_name (str r) in
  let author = str r in
  let created_at = u32 r in
  let archived = bool r in
  let archived_at = opt r u32 in
  let ann = Ann.make ~id ~body ~category ~author ~created_at in
  (match archived_at with
  | Some at when archived -> Ann.archive ann ~at
  | _ -> if archived then Ann.archive ann ~at:created_at);
  Manager.restore_ann comps.dc_ann ann

let restore_rule comps r =
  let id = str r in
  let derived = bool r in
  let attr r =
    let table = str r in
    let column = str r in
    Rule.attr table column
  in
  let sources = list r attr in
  let target = attr r in
  let registry = Tracker.registry comps.dc_tracker in
  let chain =
    list r (fun r ->
        let name = str r in
        let version = str r in
        let invertible = bool r in
        let executable = bool r in
        let description = str r in
        match Procedure.Registry.find registry name with
        | Some p ->
            Procedure.set_version p version;
            p
        | None ->
            let description =
              if executable then "executable body unavailable after restart"
              else description
            in
            let p = Procedure.non_executable ~name ~description ~invertible () in
            Procedure.set_version p version;
            p)
  in
  match Tracker.add_rule comps.dc_tracker (Rule.restore ~id ~sources ~target ~chain ~derived) with
  | Ok () -> ()
  | Error e -> malformed "cannot restore rule %s: %s" id e

let restore_approval_entry comps r =
  let id = u32 r in
  let op = operation r in
  let user = str r in
  let at = u32 r in
  let status = status_of_tag (u8 r) in
  let decided_by = opt r str in
  let decided_at = opt r u32 in
  Approval.restore_entry comps.dc_approval ~id ~operation:op ~user ~at ~status
    ~decided_by ~decided_at

let restore bp comps blob =
  let buf = Bytes.to_string blob in
  let r = { buf; pos = 0 } in
  need r 12;
  if String.sub buf 0 4 <> magic then malformed "bad catalog magic";
  r.pos <- 4;
  let v = u32 r in
  if v <> version then malformed "unsupported catalog version %d" v;
  let count = u32 r in
  let indexes = ref [] in
  let stats = ref [] in
  for _ = 1 to count do
    let tag = u8 r in
    let len = u32 r in
    need r len;
    let payload = String.sub buf r.pos len in
    r.pos <- r.pos + len;
    let crc = u32 r in
    if crc <> Crc32.string payload land 0xFFFFFFFF then
      malformed "catalog record (tag %d) failed CRC verification" tag;
    let pr = { buf = payload; pos = 0 } in
    if tag = tag_clock then Clock.advance_to comps.dc_clock (u32 pr)
    else if tag = tag_table then restore_table bp comps pr
    else if tag = tag_ann_counter then Manager.restore_id_counter comps.dc_ann (u32 pr)
    else if tag = tag_ann_table then restore_ann_table comps pr
    else if tag = tag_ann then restore_ann comps pr
    else if tag = tag_prov_tool then Prov_store.register_tool comps.dc_prov (str pr)
    else if tag = tag_user then ignore (Principal.add_user comps.dc_principals (str pr))
    else if tag = tag_group then ignore (Principal.add_group comps.dc_principals (str pr))
    else if tag = tag_membership then begin
      let user = str pr in
      List.iter
        (fun group -> ignore (Principal.add_to_group comps.dc_principals ~user ~group))
        (list pr str)
    end
    else if tag = tag_grants then begin
      let table = str pr in
      let entries =
        list pr (fun r ->
            let privilege = privilege_of_tag (u8 r) in
            let g = grantee r in
            let columns = opt r (fun r -> list r str) in
            { Acl.privilege; grantee = g; columns })
      in
      Acl.restore_grants comps.dc_acl ~table entries
    end
    else if tag = tag_rule then restore_rule comps pr
    else if tag = tag_instance then begin
      let rule_id = str pr in
      let sources = list pr cell in
      let target = cell pr in
      Dep_graph.add_instance (Tracker.graph comps.dc_tracker)
        { Dep_graph.rule_id; sources; target }
    end
    else if tag = tag_outdated then begin
      let table = str pr in
      List.iter
        (fun (row, col) -> Tracker.restore_mark comps.dc_tracker ~table ~row ~col)
        (list pr (fun r ->
             let row = u32 r in
             let col = u32 r in
             (row, col)))
    end
    else if tag = tag_monitored then begin
      let table = str pr in
      let columns = opt pr (fun r -> list r str) in
      let approver = grantee pr in
      Approval.restore_monitored comps.dc_approval ~table
        { Approval.columns; approver }
    end
    else if tag = tag_approval_entry then restore_approval_entry comps pr
    else if tag = tag_approval_next then
      Approval.restore_next_id comps.dc_approval (u32 pr)
    else if tag = tag_index then begin
      let ix_name = str pr in
      let ix_table = str pr in
      let ix_column = str pr in
      indexes := { ix_name; ix_table; ix_column } :: !indexes
    end
    else if tag = tag_table_stats then stats := payload :: !stats
    (* else: record written by a newer engine — skip *)
  done;
  (List.rev !indexes, List.rev !stats, count)
