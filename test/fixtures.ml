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
