(* Database fixtures shared by more than one test executable. *)

module Db = Bdbms.Db

(* The optimizer's skewed 3-table join: [c.sel = 0] keeps 3 of 60 rows,
   so once ANALYZE has run the planner starts from [c] and the join
   order differs from FROM order ([a, b, c]). *)
let skewed_join_db () =
  let db = Db.create () in
  let e sql = ignore (Db.exec_exn db sql) in
  let values f = String.concat ", " (List.init 60 f) in
  e "CREATE TABLE a (k INT, pad TEXT)";
  e "CREATE TABLE b (id INT, k INT)";
  e "CREATE TABLE c (b_id INT, sel INT)";
  e ("INSERT INTO a VALUES " ^ values (fun i -> Printf.sprintf "(%d, 'p%d')" (i mod 5) i));
  e ("INSERT INTO b VALUES " ^ values (fun i -> Printf.sprintf "(%d, %d)" i (i mod 5)));
  e
    ("INSERT INTO c VALUES "
    ^ values (fun i -> Printf.sprintf "(%d, %d)" i (if i < 3 then 0 else 1)));
  e "ANALYZE";
  db

(* Estimate drift: 100 rows of [d (k1 INT, k2 INT)] with [k1 = k2], so
   once [d] is analyzed the independence assumption underestimates
   [drift_query]'s conjunction 10x, its EXPLAIN ANALYZE walk marks [d]
   stale, and the statement boundary re-analyzes it. *)
let correlated_rows =
  String.concat ", "
    (List.init 100 (fun i -> Printf.sprintf "(%d, %d)" (i mod 10) (i mod 10)))

let drift_query = "EXPLAIN ANALYZE SELECT * FROM d WHERE k1 = 3 AND k2 = 3"

(* The catalog change epoch's oracle.  Whenever [Context.catalog_epoch]
   still equals the epoch of the last root write, [persist_catalog]
   skips the encode, so the live page-0 root must equal a fresh encoding
   byte for byte: a mutator that forgot its version bump leaves the root
   stale and fails here.  Returns whether the epoch was current (and the
   bytes were compared). *)
let check_catalog_epoch ~what (ctx : Bdbms_asql.Context.t) =
  let module Context = Bdbms_asql.Context in
  let current =
    Context.durable ctx
    && ctx.Context.persisted_epoch = Some (Context.catalog_epoch ctx)
  in
  (if current then
     match Bdbms_storage.Meta_page.read_root ctx.Context.disk with
     | None -> Alcotest.failf "%s: epoch recorded but no catalog root" what
     | Some root ->
         if not (Bytes.equal root (Context.encode_catalog ctx)) then
           Alcotest.failf
             "%s: the catalog epoch did not move but the metadata did \
              (a mutator missed its version bump)"
             what);
  current

(* The index oracle.  Every built index tree must hold exactly the
   [(Value.hash_key v, row)] pairs of a scan of its table, keyed the way
   [=] compares values, with no entry for a NULL cell (which [=] never
   matches): a write that skipped index maintenance, or an index left
   over a dropped table, fails here.  A tree not built yet is built from
   a scan on its first probe and has nothing to check. *)
let check_indexes ~what (ctx : Bdbms_asql.Context.t) =
  let module Context = Bdbms_asql.Context in
  let module Table = Bdbms_relation.Table in
  Hashtbl.iter
    (fun _ (idx : Context.index_def) ->
      match
        (idx.Context.tree, Bdbms_relation.Catalog.find ctx.Context.catalog idx.Context.idx_table)
      with
      | None, _ -> ()
      | Some _, None ->
          Alcotest.failf "%s: index %s is over %s, which no longer exists" what
            idx.Context.idx_name idx.Context.idx_table
      | Some tree, Some table ->
          let col =
            Bdbms_relation.Schema.index_of_exn (Table.schema table) idx.Context.idx_column
          in
          let scan =
            Table.fold table ~init:[] ~f:(fun acc row tuple ->
                match Bdbms_relation.Value.hash_key (Bdbms_relation.Tuple.get tuple col) with
                | Some key -> (key, row) :: acc
                | None -> acc)
          in
          let entries = Bdbms_index.Btree.range tree () in
          if List.sort compare scan <> List.sort compare entries then
            Alcotest.failf "%s: index %s (%d entries) differs from a scan of %s (%d rows)"
              what idx.Context.idx_name (List.length entries) idx.Context.idx_table
              (List.length scan))
    ctx.Context.indexes

(* A full logical fingerprint of the engine, in named sections:

   - ["tables"]: schemas, data and attached annotation envelopes (via
     rendered annotated SELECTs), outdated marks and annotation tables;
   - ["rules"]: dependency rules and instances;
   - ["principals"]: users, groups and memberships;
   - ["grants"];
   - ["approval"]: the content-approval log;
   - ["provenance"]: provenance tools;
   - ["indexes"]: index definitions;
   - ["clock"]: the logical clock.

   The clock is deterministic (it only ticks on statements), so a
   bootstrapped engine must fingerprint identically to an in-memory oracle
   that replayed the same statement prefix.  A law comparing two
   different statement sequences leaves out the sections they differ in
   by construction ([except]). *)
let fingerprint ?(except = []) db =
  let module Context = Bdbms_asql.Context in
  let module Catalog = Bdbms_relation.Catalog in
  let module Table = Bdbms_relation.Table in
  let module Schema = Bdbms_relation.Schema in
  let module Tracker = Bdbms_dependency.Tracker in
  let module Dep_graph = Bdbms_dependency.Dep_graph in
  let module Rule = Bdbms_dependency.Rule in
  let module Principal = Bdbms_auth.Principal in
  let module Acl = Bdbms_auth.Acl in
  let module Approval = Bdbms_auth.Approval in
  let ctx = Db.context db in
  let b = Buffer.create 1024 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let section name f = if not (List.mem name except) then f () in
  section "tables" (fun () ->
      List.iter
        (fun name ->
          let tbl = Catalog.find_exn ctx.Context.catalog name in
          add "table %s" (Table.name tbl);
          List.iter
            (fun (c : Schema.column) ->
              add "  col %s:%s" c.Schema.name (Bdbms_relation.Value.type_name c.ty))
            (Schema.columns (Table.schema tbl));
          add "%s" (Db.render_exn db (Printf.sprintf "SELECT * FROM %s ANNOTATION(*)" name));
          List.iter
            (fun (r, c) -> add "  outdated %d.%d" r c)
            (List.sort compare (Tracker.outdated_cells ctx.Context.tracker ~table:name));
          List.iter
            (fun n -> add "  anntab %s" n)
            (List.sort compare
               (Bdbms_annotation.Manager.annotation_table_names ctx.Context.ann
                  ~table_name:name)))
        (List.sort compare (Catalog.table_names ctx.Context.catalog)));
  section "rules" (fun () ->
      List.iter
        (fun (r : Rule.t) -> add "rule %s" (Rule.describe r))
        (Bdbms_dependency.Rule_set.rules (Tracker.rule_set ctx.Context.tracker));
      Dep_graph.iter_instances (Tracker.graph ctx.Context.tracker) (fun i ->
          add "instance %s: %s -> %s" i.Dep_graph.rule_id
            (String.concat ","
               (List.map (Format.asprintf "%a" Dep_graph.pp_cell) i.Dep_graph.sources))
            (Format.asprintf "%a" Dep_graph.pp_cell i.Dep_graph.target)));
  section "principals" (fun () ->
      add "users %s" (String.concat "," (Principal.users ctx.Context.principals));
      add "groups %s" (String.concat "," (Principal.groups ctx.Context.principals));
      List.iter
        (fun (u, gs) -> add "member %s: %s" u (String.concat "," gs))
        (Principal.memberships ctx.Context.principals));
  section "grants" (fun () ->
      List.iter
        (fun (table, entries) ->
          List.iter
            (fun (e : Acl.grant_entry) ->
              add "grant %s %s %s %s" table
                (Acl.privilege_name e.privilege)
                (match e.grantee with Acl.User u -> "u:" ^ u | Acl.Group g -> "g:" ^ g)
                (match e.columns with None -> "*" | Some cs -> String.concat "," cs))
            entries)
        (Acl.dump_grants ctx.Context.acl));
  section "approval" (fun () ->
      List.iter
        (fun (e : Approval.entry) ->
          add "approval #%d by %s at t%d [%s] decided by %s: %s" e.Approval.id
            e.Approval.user e.Approval.at
            (match e.Approval.status with
            | Approval.Pending -> "pending"
            | Approval.Approved -> "approved"
            | Approval.Disapproved -> "disapproved")
            (match e.Approval.decided_by with None -> "-" | Some u -> u)
            (Approval.inverse_description e.Approval.operation))
        (Approval.entries ctx.Context.approval));
  section "provenance" (fun () ->
      List.iter
        (fun t -> add "provtool %s" t)
        (Bdbms_provenance.Prov_store.tools ctx.Context.prov));
  section "indexes" (fun () ->
      List.iter
        (fun (idx : Context.index_def) ->
          add "index %s on %s(%s)" idx.Context.idx_name idx.Context.idx_table
            idx.Context.idx_column)
        (List.sort compare (Hashtbl.fold (fun _ i acc -> i :: acc) ctx.Context.indexes [])));
  section "clock" (fun () -> add "clock t%d" (Bdbms_util.Clock.now ctx.Context.clock));
  Buffer.contents b
