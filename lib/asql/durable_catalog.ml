module Clock = Bdbms_util.Clock
module Crc32 = Bdbms_util.Crc32
module Pager = Bdbms_storage.Pager
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
module Outdated = Bdbms_dependency.Outdated
module Btree = Bdbms_index.Btree
module Ann_registry = Bdbms_annotation.Ann_registry
module Principal = Bdbms_auth.Principal
module Acl = Bdbms_auth.Acl
module Approval = Bdbms_auth.Approval

exception Malformed of string
exception Unsupported_version of { found : int; supported : int }

let () =
  Printexc.register_printer (function
    | Unsupported_version { found; supported } ->
        Some
          (Printf.sprintf
             "Durable_catalog.Unsupported_version: catalog format %d, this \
              engine reads only format %d"
             found supported)
    | _ -> None)

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
let version = 3

(* Record tags.  Append-only: retag nothing, add new tags at the end.
   Tag 2 (a table with its page list and whole slot directory, format 1)
   is no longer written; format 2 writes tag 19, a fixed-size head.
   Tags 5, 12 and 13 (every annotation, dependency instance and outdated
   mark, format 2) are no longer written; format 3 writes the fixed-size
   heads of their paged forms, tags 20-22. *)
let tag_clock = 1
let tag_ann_counter = 3
let tag_ann_table = 4
let tag_prov_tool = 6
let tag_user = 7
let tag_group = 8
let tag_membership = 9
let tag_grants = 10
let tag_rule = 11
let tag_monitored = 14
let tag_approval_entry = 15
let tag_approval_next = 16
let tag_index = 17
let tag_table_stats = 18
let tag_table_head = 19
let tag_ann_registry = 20
let tag_dep_instances = 21
let tag_outdated_head = 22

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

let add_btree_head b (h : Btree.head) =
  List.iter (add_u32 b) [ h.root; h.height; h.entries; h.node_pages ]

let btree_head r =
  let root = u32 r in
  let height = u32 r in
  let entries = u32 r in
  let node_pages = u32 r in
  { Btree.root; height; entries; node_pages }

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
  (* user tables: name, schema, and the fixed-size head (row map root,
     row and live counts, heap tail) — rows live in the table's pages *)
  List.iter
    (fun name ->
      let tbl = Catalog.find_exn comps.dc_catalog name in
      let h = Table.head tbl in
      record tag_table_head (fun b ->
          add_str b (Table.name tbl);
          add_list b
            (fun (c : Schema.column) ->
              add_str b c.name;
              add_str b (Value.type_name c.ty))
            (Schema.columns (Table.schema tbl));
          List.iter (add_u32 b)
            [ h.map_root; h.nrows; h.live; h.heap_last; h.heap_pages ]))
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
  Option.iter
    (fun (h : Ann_registry.head) ->
      record tag_ann_registry (fun b ->
          List.iter (add_u32 b) [ h.heap_last; h.heap_pages; h.live; h.map_root; h.length ]))
    (Manager.registry_head comps.dc_ann);
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
  (* dependency instances: one fixed-size head per rule, over its paged
     forward array and reverse B+-tree *)
  List.iter
    (fun (h : Dep_graph.head) ->
      record tag_dep_instances (fun b ->
          let col (table, c) =
            add_str b table;
            add_u32 b c
          in
          add_str b h.rule_name;
          add_list b col h.source_cols;
          col h.target_col;
          add_u32 b h.fwd_root;
          add_u32 b h.fwd_length;
          add_btree_head b h.rev;
          add_u32 b h.instances))
    (Dep_graph.heads (Tracker.graph comps.dc_tracker));
  (* outdated bitmaps: one fixed-size head per table over its RLE pages *)
  List.iter
    (fun (table, (h : Outdated.head)) ->
      record tag_outdated_head (fun b ->
          add_str b table;
          List.iter (add_u32 b) [ h.rows; h.cols; h.set; h.root; h.pages; h.bytes ]))
    (Tracker.outdated_heads comps.dc_tracker);
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
  let map_root = u32 r in
  let nrows = u32 r in
  let live = u32 r in
  let heap_last = u32 r in
  let heap_pages = u32 r in
  let tbl =
    Table.attach bp ~name (Schema.make columns)
      { Table.map_root; nrows; live; heap_last; heap_pages }
  in
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

let restore_ann_registry comps r =
  let heap_last = u32 r in
  let heap_pages = u32 r in
  let live = u32 r in
  let map_root = u32 r in
  let length = u32 r in
  Manager.attach_registry comps.dc_ann
    { Ann_registry.heap_last; heap_pages; live; map_root; length }

let restore_dep_instances comps r =
  let col r =
    let table = str r in
    let c = u32 r in
    (table, c)
  in
  let rule_name = str r in
  let source_cols = list r col in
  let target_col = col r in
  let fwd_root = u32 r in
  let fwd_length = u32 r in
  let rev = btree_head r in
  let instances = u32 r in
  Dep_graph.attach (Tracker.graph comps.dc_tracker)
    { Dep_graph.rule_name; source_cols; target_col; fwd_root; fwd_length; rev; instances }

let restore_outdated comps r =
  let table = str r in
  let rows = u32 r in
  let cols = u32 r in
  let set = u32 r in
  let root = u32 r in
  let pages = u32 r in
  let bytes = u32 r in
  Tracker.attach_outdated comps.dc_tracker ~table
    { Outdated.rows; cols; set; root; pages; bytes }

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
  if v <> version then
    raise (Unsupported_version { found = v; supported = version });
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
    else if tag = tag_table_head then restore_table bp comps pr
    else if tag = tag_ann_counter then Manager.restore_id_counter comps.dc_ann (u32 pr)
    else if tag = tag_ann_table then restore_ann_table comps pr
    else if tag = tag_ann_registry then restore_ann_registry comps pr
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
    else if tag = tag_dep_instances then restore_dep_instances comps pr
    else if tag = tag_outdated_head then restore_outdated comps pr
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
