(* Differential tests for the query engines: every query — fixed edge
   cases plus a deterministic randomized sweep — must return the same
   rows under all three engines ([`Naive] the materialize-everything
   oracle, [`Tuple] the volcano executor, [`Batch] the vectorized
   path; see [Db.set_exec_mode]).  A second group asserts through the
   Stats counters that the fast paths actually ran: hash joins build and
   probe, pushdown prunes during the scan, index probes replace full
   scans, batches are decoded on the vectorized path, and plain queries
   never materialize annotation envelopes. *)

open Bdbms
module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Ops = Bdbms_relation.Ops
module Propagate = Bdbms_annotation.Propagate
module Ann = Bdbms_annotation.Ann
module Executor = Bdbms_asql.Executor
module Stats = Bdbms_obs.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  n = 0 || go 0

let rows_of db sql =
  match Db.exec db sql with
  | Ok (Executor.Rows rs) -> rs
  | Ok _ -> Alcotest.failf "expected rows for %s" sql
  | Error e -> Alcotest.failf "%s -- for: %s" e sql

(* ------------------------------------------------------------- fixtures *)

let t1_rows = 60
let t2_rows = 45

(* Deterministic data: T1 has ids 0..59, T2 ids 0..44; [k] collides across
   both tables (0..9) so equi-joins fan out, [v]/[w] are small string
   pools so equality and LIKE predicates select non-trivially. *)
let setup db =
  let st = Random.State.make [| 0xbd; 0xb4 |] in
  let stmt sql =
    match Db.exec db sql with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s -- in setup" e
  in
  stmt "CREATE TABLE T1 (id INT, k INT, v TEXT, f REAL)";
  stmt "CREATE TABLE T2 (id INT, k INT, w TEXT)";
  let values n mk =
    List.init n mk |> String.concat ", "
  in
  stmt
    (Printf.sprintf "INSERT INTO T1 VALUES %s"
       (values t1_rows (fun i ->
            Printf.sprintf "(%d, %d, 's%d', %d.5)" i
              (Random.State.int st 10)
              (Random.State.int st 6)
              (Random.State.int st 100))));
  stmt
    (Printf.sprintf "INSERT INTO T2 VALUES %s"
       (values t2_rows (fun i ->
            Printf.sprintf "(%d, %d, 's%d')" i
              (Random.State.int st 10)
              (Random.State.int st 6))));
  stmt "CREATE ANNOTATION TABLE notes ON T1";
  stmt "ADD ANNOTATION TO T1.notes VALUE 'low' ON (SELECT * FROM T1 WHERE k < 5)";
  stmt "ADD ANNOTATION TO T1.notes VALUE 'two' ON (SELECT id, v FROM T1 WHERE k = 2)"

let mk_db () =
  let db = Db.create ~page_size:1024 ~pool_pages:256 () in
  setup db;
  db

(* ------------------------------------------------- equivalence checking *)

let schema_names rs =
  List.map (fun c -> c.Schema.name) (Schema.columns rs.Propagate.schema)

(* one comparable string per row: the encoded tuple plus, per cell, the
   sorted annotation bodies — so annotated queries are compared on the
   full envelope, not just the values *)
let encode_row (r : Propagate.atuple) =
  let anns =
    Array.to_list r.Propagate.anns
    |> List.map (fun cell ->
           List.map Ann.body_text cell |> List.sort compare |> String.concat ";")
    |> String.concat "|"
  in
  Tuple.encode r.Propagate.tuple ^ "#" ^ anns

let mode_name = Bdbms_asql.Context.exec_mode_name

(* Run [sql] under every engine and check each against the naive
   oracle. *)
let run_all_modes db ~ordered sql =
  let run mode =
    Db.set_exec_mode db mode;
    rows_of db sql
  in
  let n = run `Naive in
  let fast = List.map (fun m -> (m, run m)) [ `Tuple; `Batch ] in
  Db.set_exec_mode db `Batch;
  let en =
    let e = List.map encode_row n.Propagate.rows in
    if ordered then e else List.sort compare e
  in
  List.iter
    (fun (m, p) ->
      Alcotest.(check (list string))
        (Printf.sprintf "schema (%s): %s" (mode_name m) sql)
        (schema_names n) (schema_names p);
      let ep = List.map encode_row p.Propagate.rows in
      let ep = if ordered then ep else List.sort compare ep in
      Alcotest.(check (list string))
        (Printf.sprintf "rows (%s): %s" (mode_name m) sql)
        en ep)
    fast

(* ---------------------------------------------------------- fixed cases *)

let fixed_ordered =
  [
    "SELECT * FROM T1 ORDER BY id";
    "SELECT id, k FROM T1 WHERE k > 4 ORDER BY id DESC";
    "SELECT id, k FROM T1 WHERE k = 3 OR k = 7 ORDER BY id";
    "SELECT DISTINCT k FROM T1 ORDER BY k";
    "SELECT DISTINCT k FROM T1 ORDER BY k LIMIT 3";
    "SELECT k, COUNT(*) AS n FROM T1 GROUP BY k HAVING n > 4 ORDER BY k";
    "SELECT id * 2 AS d, v FROM T1 WHERE k >= 5 ORDER BY d DESC LIMIT 7 OFFSET 2";
    "SELECT id FROM T1 WHERE v LIKE 's1%' ORDER BY id";
    "SELECT id FROM T1 WHERE k IN (1, 3, 5) ORDER BY id LIMIT 10";
    "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.k = b.k ORDER BY a.id, b.id";
    "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.k = b.k AND a.id < b.id \
     ORDER BY a.id, b.id";
    "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.id = b.id AND a.k = b.k \
     ORDER BY a.id";
    "SELECT a.id, b.id, c.id FROM T1 a, T2 b, T1 c \
     WHERE a.k = b.k AND b.k = c.k AND a.id < 6 AND c.id < 6 \
     ORDER BY a.id, b.id, c.id";
  ]

let fixed_unordered =
  [
    "SELECT * FROM T1 WHERE 1 = 1";
    "SELECT * FROM T1 WHERE v IS NULL";
    "SELECT COUNT(*) AS n, SUM(id) AS s, MIN(id) AS mn, MAX(id) AS mx, \
     AVG(id) AS av FROM T1 WHERE k > 2";
    "SELECT COUNT(*) AS n, SUM(f) AS s FROM T1 WHERE k = 99";
    "SELECT k, AVG(f) AS m FROM T1 GROUP BY k";
    "SELECT * FROM T1 a, T2 b WHERE a.k = b.k AND a.k > 3 AND b.id < 20";
    "SELECT a.k, b.k FROM T1 a, T2 b WHERE a.id < 5 AND b.id < 5";
    "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.id < b.id AND b.id < 8";
    "SELECT * FROM T1 ANNOTATION(notes) WHERE k < 5";
    "SELECT id FROM T1 ANNOTATION(notes) WHERE k = 2";
    "SELECT a.id, b.id FROM T1 a ANNOTATION(notes), T2 b \
     WHERE a.k = b.k AND a.k < 5";
  ]

let test_fixed () =
  let db = mk_db () in
  List.iter (run_all_modes db ~ordered:true) fixed_ordered;
  List.iter (run_all_modes db ~ordered:false) fixed_unordered

(* the whole fixed corpus again with one-row batches: every batch
   boundary condition (empty tail, cut mid-batch, per-batch dictionaries
   of one string) is exercised on every query *)
let test_fixed_batch1 () =
  let db = mk_db () in
  Db.set_batch_rows db 1;
  List.iter (run_all_modes db ~ordered:true) fixed_ordered;
  List.iter (run_all_modes db ~ordered:false) fixed_unordered

(* ------------------------------------------------------ randomized sweep *)

let rand_simple_pred st qual =
  let q c = qual ^ c in
  match Random.State.int st 5 with
  | 0 -> Printf.sprintf "%s = %d" (q "k") (Random.State.int st 12)
  | 1 -> Printf.sprintf "%s > %d" (q "k") (Random.State.int st 10)
  | 2 -> Printf.sprintf "%s < %d" (q "id") (Random.State.int st 70)
  | 3 -> Printf.sprintf "%s = 's%d'" (q "v") (Random.State.int st 7)
  | _ -> Printf.sprintf "%s >= %d" (q "id") (Random.State.int st 70)

let rand_pred st qual =
  match Random.State.int st 3 with
  | 0 -> rand_simple_pred st qual
  | 1 ->
      Printf.sprintf "%s AND %s" (rand_simple_pred st qual)
        (rand_simple_pred st qual)
  | _ ->
      Printf.sprintf "(%s OR %s)" (rand_simple_pred st qual)
        (rand_simple_pred st qual)

(* single-table: items always include [id] (unique), so ORDER BY id is a
   total order and the pipelined/naive row sequences must match exactly *)
let rand_single st =
  let table, third = if Random.State.bool st then ("T1", "v") else ("T2", "w") in
  let items =
    match Random.State.int st 3 with
    | 0 -> "*"
    | 1 -> Printf.sprintf "id, k, %s" third
    | _ -> "id, k"
  in
  let distinct = if Random.State.int st 4 = 0 then "DISTINCT " else "" in
  let where =
    if Random.State.int st 4 = 0 then ""
    else
      " WHERE "
      ^ rand_pred st ""
        (* [v]-predicates only exist on T1 *)
  in
  let where = if table = "T2" then String.concat "w" (String.split_on_char 'v' where) else where in
  let ordered = Random.State.int st 2 = 0 in
  let tail =
    if not ordered then ""
    else
      let dir = if Random.State.bool st then "" else " DESC" in
      let lim =
        if Random.State.bool st then
          Printf.sprintf " LIMIT %d" (1 + Random.State.int st 20)
          ^
          if Random.State.bool st then
            Printf.sprintf " OFFSET %d" (Random.State.int st 5)
          else ""
        else ""
      in
      " ORDER BY id" ^ dir ^ lim
  in
  ( Printf.sprintf "SELECT %s%s FROM %s%s%s" distinct items table where tail,
    ordered )

(* joins: compared as multisets (hash-join emission order differs from
   the naive nested loop, legitimately) *)
let rand_join st =
  let items =
    match Random.State.int st 3 with
    | 0 -> "*"
    | 1 -> "a.id, b.id, a.v"
    | _ -> "a.k, b.w"
  in
  let equi = Random.State.int st 4 > 0 in
  let conj = ref [] in
  if equi then conj := "a.k = b.k" :: !conj;
  if Random.State.int st 2 = 0 then conj := rand_pred st "a." :: !conj;
  if (not equi) || Random.State.int st 2 = 0 then
    (* keep edge-less cross products small *)
    conj := Printf.sprintf "b.id < %d" (8 + Random.State.int st 12) :: !conj;
  if Random.State.int st 3 = 0 then conj := "a.id < b.id" :: !conj;
  let where =
    match !conj with [] -> "" | cs -> " WHERE " ^ String.concat " AND " cs
  in
  Printf.sprintf "SELECT %s FROM T1 a, T2 b%s" items where

let test_randomized () =
  let db = mk_db () in
  let st = Random.State.make [| 0x51; 0xee; 0xd0 |] in
  for _ = 1 to 60 do
    let sql, ordered = rand_single st in
    run_all_modes db ~ordered sql
  done;
  for _ = 1 to 30 do
    run_all_modes db ~ordered:false (rand_join st)
  done

(* -------------------------------------------------- batch edge cases *)

(* A NULL-heavy fixture: every vector kind with a null bitmap that is
   actually dense, so three-valued logic, aggregate null-skipping, and
   NULL join keys diverge loudly if any engine gets them wrong. *)
let test_batch_edges () =
  let db = Db.create ~page_size:1024 ~pool_pages:256 () in
  let stmt sql =
    match Db.exec db sql with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s -- in setup" e
  in
  stmt "CREATE TABLE N (id INT, a INT, b REAL, s TEXT)";
  let st = Random.State.make [| 0x9a; 0x11 |] in
  let cell f = if Random.State.int st 3 = 0 then "NULL" else f () in
  stmt
    (Printf.sprintf "INSERT INTO N VALUES %s"
       (String.concat ", "
          (List.init 70 (fun i ->
               Printf.sprintf "(%d, %s, %s, %s)" i
                 (cell (fun () -> string_of_int (Random.State.int st 8)))
                 (cell (fun () ->
                      Printf.sprintf "%d.25" (Random.State.int st 50)))
                 (cell (fun () ->
                      Printf.sprintf "'n%d'" (Random.State.int st 4)))))));
  let ordered =
    [
      "SELECT * FROM N ORDER BY id";
      "SELECT id FROM N WHERE a IS NULL ORDER BY id";
      "SELECT id FROM N WHERE a IS NOT NULL AND a > 3 ORDER BY id";
      "SELECT id, s FROM N WHERE s = 'n1' OR a = 2 ORDER BY id";
      (* LIMIT cut mid-batch: the lazy cursor view must stop decoding *)
      "SELECT id FROM N ORDER BY id LIMIT 7";
      "SELECT id FROM N WHERE a IS NULL ORDER BY id DESC LIMIT 5 OFFSET 2";
      (* all-filtered: every batch flows through empty *)
      "SELECT id FROM N WHERE a = -1 ORDER BY id";
    ]
  and unordered =
    [
      "SELECT COUNT(*) AS c, COUNT(a) AS ca, SUM(a) AS sa, AVG(b) AS ab, \
       MIN(s) AS mn, MAX(s) AS mx FROM N";
      "SELECT SUM(a) AS s, AVG(a) AS av FROM N WHERE a = -1";
      "SELECT a, COUNT(*) AS c FROM N GROUP BY a";
      (* NULL keys never match in an equi-join *)
      "SELECT x.id, y.id FROM N x, N y WHERE x.a = y.a AND x.id < 12 AND \
       y.id < 12";
    ]
  in
  let sweep () =
    List.iter (run_all_modes db ~ordered:true) ordered;
    List.iter (run_all_modes db ~ordered:false) unordered
  in
  sweep ();
  (* degenerate batch size: every batch holds one row *)
  Db.set_batch_rows db 1;
  sweep ()

(* --------------------------------------------------------- stats checks *)

let diff_for db sql =
  let before = Db.io_stats db in
  ignore (rows_of db sql);
  Stats.diff ~after:(Db.io_stats db) ~before

let test_stats_counters () =
  let db = mk_db () in
  (* plain equi-join: hash join ran, no annotation envelopes built *)
  let d = diff_for db "SELECT a.id FROM T1 a, T2 b WHERE a.k = b.k" in
  checkb "hash builds" true (d.Stats.hash_builds > 0);
  checkb "hash probes" true (d.Stats.hash_probes > 0);
  checki "no envelopes on plain join" 0 d.Stats.ann_envelopes;
  (* plain filtered scan: pushdown pruned during the scan, tuples decoded,
     still zero per-row annotation arrays *)
  let d = diff_for db "SELECT * FROM T1 WHERE k = 3" in
  checkb "pushdown pruned" true (d.Stats.pushdown_pruned > 0);
  checkb "tuples decoded" true (d.Stats.tuples_decoded >= 0);
  checki "no envelopes on plain scan" 0 d.Stats.ann_envelopes;
  (* annotated query: envelopes are built (lazy attachment kicked in) *)
  let d = diff_for db "SELECT * FROM T1 ANNOTATION(notes) WHERE k < 5" in
  checkb "envelopes on annotated" true (d.Stats.ann_envelopes > 0);
  (* index probe replaces the scan for an equality on an indexed column *)
  (match Db.exec db "CREATE INDEX t1_id ON T1 (id)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "index: %s" e);
  let d = diff_for db "SELECT * FROM T1 WHERE id = 5" in
  checkb "index probe" true (d.Stats.index_probes > 0);
  (* the naive oracle never touches the hash-join machinery *)
  Db.set_exec_mode db `Naive;
  let d = diff_for db "SELECT a.id FROM T1 a, T2 b WHERE a.k = b.k" in
  Db.set_exec_mode db `Batch;
  checki "oracle: no hash builds" 0 d.Stats.hash_builds;
  checki "oracle: no probes" 0 d.Stats.hash_probes;
  (* the vectorized engine decodes column batches; the tuple engine
     never does *)
  let d = diff_for db "SELECT id FROM T1 WHERE k > 2" in
  checkb "batches decoded" true (d.Stats.batches_decoded > 0);
  checki "no fallback on a plain query" 0 d.Stats.batch_fallbacks;
  Db.set_exec_mode db `Tuple;
  let d = diff_for db "SELECT id FROM T1 WHERE k > 2" in
  checki "tuple mode decodes no batches" 0 d.Stats.batches_decoded;
  Db.set_exec_mode db `Batch;
  (* annotated queries transparently fall back to the tuple path *)
  let d = diff_for db "SELECT * FROM T1 ANNOTATION(notes) WHERE k < 5" in
  checkb "annotated query counted as fallback" true
    (d.Stats.batch_fallbacks > 0);
  checki "fallback decodes no batches" 0 d.Stats.batches_decoded

let test_decode_cache () =
  let db = mk_db () in
  (* pinned to the tuple engine: the batch path re-decodes pages into
     column vectors by design, bypassing the decoded-tuple cache *)
  Db.set_exec_mode db `Tuple;
  ignore (rows_of db "SELECT * FROM T1");
  (* every T1 row now sits in the decoded-tuple cache (direct-mapped, 256
     slots, 60 rows): a rescan decodes nothing *)
  let d = diff_for db "SELECT * FROM T1" in
  checki "rescan decodes nothing" 0 d.Stats.tuples_decoded;
  (* a write invalidates the touched slot only *)
  (match Db.exec db "UPDATE T1 SET k = 99 WHERE id = 0" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "update: %s" e);
  let d = diff_for db "SELECT * FROM T1" in
  checkb "only invalidated rows re-decode" true (d.Stats.tuples_decoded <= 2)

(* ------------------------------------------------- EXPLAIN ANALYZE *)

module Analyze = Bdbms_asql.Analyze

(* Run [sql] under the EXPLAIN ANALYZE recorder (on whichever engine
   [set_exec_mode] selected) and return the recorded tree + results. *)
let analyze db sql =
  match Bdbms_asql.Parser.parse sql with
  | Ok (Bdbms_asql.Ast.Query q) ->
      let root, rs, elapsed =
        Executor.analyze_query (Db.context db) ~user:"admin" q
      in
      (match root with
      | Some root -> (root, rs, elapsed)
      | None -> Alcotest.failf "no analyze tree recorded for %s" sql)
  | Ok _ -> Alcotest.failf "not a query: %s" sql
  | Error e -> Alcotest.failf "%s -- for: %s" e sql

let rec iter_nodes (n : Analyze.node) f =
  f n;
  List.iter (fun c -> iter_nodes c f) n.Analyze.children

let find_node root prefix =
  let found = ref None in
  iter_nodes root (fun n ->
      if
        !found = None
        && String.length n.Analyze.label >= String.length prefix
        && String.sub n.Analyze.label 0 (String.length prefix) = prefix
      then found := Some n);
  match !found with
  | Some n -> n
  | None -> Alcotest.failf "no node labelled %s*" prefix

(* Per-node actuals, differentially: the count the recorder attributes to
   an operator must equal what the naive oracle returns for the
   equivalent (sub)query. *)
let test_analyze_actuals () =
  let db = mk_db () in
  let oracle_count sql =
    Db.set_exec_mode db `Naive;
    let n = Propagate.row_count (rows_of db sql) in
    Db.set_exec_mode db `Batch;
    n
  in
  (* full scan: the scan node sees every live row, the PROJECT root
     returns exactly the result *)
  let root, rs, elapsed = analyze db "SELECT * FROM T1" in
  checkb "wall time recorded" true (elapsed > 0);
  checki "scan actuals = live rows" t1_rows
    (find_node root "SCAN T1").Analyze.actual_rows;
  checkb "scan node counts its batches (vectorized default)" true
    ((find_node root "SCAN T1").Analyze.batches > 0);
  checki "root actuals = result rows" (Propagate.row_count rs)
    root.Analyze.actual_rows;
  (* pushed-down WHERE: the filter node's actuals match the oracle *)
  let root, _, _ = analyze db "SELECT * FROM T1 WHERE k = 3" in
  checki "WHERE actuals = oracle" (oracle_count "SELECT * FROM T1 WHERE k = 3")
    (find_node root "WHERE (selectivity").Analyze.actual_rows;
  checki "scan below WHERE still sees every row" t1_rows
    (find_node root "SCAN T1").Analyze.actual_rows;
  (* hash join: join-node actuals = oracle count of the join itself *)
  let jsql = "SELECT a.id FROM T1 a, T2 b WHERE a.k = b.k" in
  let root, _, _ = analyze db jsql in
  let join = find_node root "HASH JOIN" in
  checki "hash join actuals = oracle" (oracle_count jsql) join.Analyze.actual_rows;
  checki "join has two inputs" 2 (List.length join.Analyze.children);
  (* group by: one output row per distinct k *)
  let gsql = "SELECT k, COUNT(*) AS n FROM T1 GROUP BY k" in
  let root, _, _ = analyze db gsql in
  checki "group actuals = oracle" (oracle_count gsql)
    (find_node root "GROUP BY").Analyze.actual_rows;
  (* index probe: the INDEX SCAN access path is recorded with its rows *)
  (match Db.exec db "CREATE INDEX t1_id ON T1 (id)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "index: %s" e);
  let root, _, _ = analyze db "SELECT * FROM T1 WHERE id = 5" in
  checki "index scan actuals" 1
    (find_node root "INDEX SCAN T1 via t1_id(id)").Analyze.actual_rows;
  (* compound: each side keeps its subtree under the combining node *)
  let usql = "SELECT id FROM T1 WHERE k < 3 UNION SELECT id FROM T2 WHERE k < 3" in
  let root, _, _ = analyze db usql in
  checki "union node on top" 2 (List.length (find_node root "UNION").Analyze.children);
  checki "union actuals = oracle" (oracle_count usql) root.Analyze.actual_rows;
  (* the annotated path records the same shape *)
  let asql = "SELECT id FROM T1 ANNOTATION(notes) WHERE k = 2" in
  let root, rs, _ = analyze db asql in
  checki "annotated root actuals" (Propagate.row_count rs)
    (find_node root "RESULT").Analyze.actual_rows;
  checkb "annotated tree keeps the scan" true
    ((find_node root "SCAN T1").Analyze.actual_rows > 0)

(* Sweep: on every fixed query without LIMIT/OFFSET, all three engines'
   recorded roots must account for exactly the rows they returned, and
   those row multisets must agree. *)
let test_analyze_differential_sweep () =
  let db = mk_db () in
  let has_limit sql = contains sql "LIMIT" || contains sql "OFFSET" in
  let queries =
    List.filter (fun s -> not (has_limit s)) (fixed_ordered @ fixed_unordered)
  in
  List.iter
    (fun sql ->
      let runs =
        List.map
          (fun m ->
            Db.set_exec_mode db m;
            let root, rs, _ = analyze db sql in
            (m, root, rs))
          [ `Naive; `Tuple; `Batch ]
      in
      Db.set_exec_mode db `Batch;
      let _, _, rs_n = List.hd runs in
      let en =
        List.sort compare (List.map encode_row rs_n.Propagate.rows)
      in
      List.iter
        (fun (m, root, rs) ->
          checki
            (Printf.sprintf "%s root accounts for its rows: %s" (mode_name m)
               sql)
            (Propagate.row_count rs)
            root.Analyze.actual_rows;
          Alcotest.(check (list string))
            (Printf.sprintf "analyzed rows agree (%s): %s" (mode_name m) sql)
            en
            (List.sort compare (List.map encode_row rs.Propagate.rows));
          (* structural sanity on every tree *)
          iter_nodes root (fun n ->
              checkb (Printf.sprintf "loops>=1 at %s: %s" n.Analyze.label sql)
                true (n.Analyze.loops >= 1);
              checkb
                (Printf.sprintf "rows>=0 at %s: %s" n.Analyze.label sql)
                true
                (n.Analyze.actual_rows >= 0 && n.Analyze.time_ns >= 0)))
        runs)
    queries

(* EXPLAIN ANALYZE through SQL renders estimates and actuals together
   and leaves no recorder installed afterwards. *)
let test_analyze_statement () =
  let db = mk_db () in
  let msg =
    match Db.exec db "EXPLAIN ANALYZE SELECT id FROM T1 WHERE k = 3" with
    | Ok (Executor.Message m) -> m
    | Ok _ -> Alcotest.fail "expected a message"
    | Error e -> Alcotest.failf "explain analyze: %s" e
  in
  List.iter
    (fun needle -> checkb (needle ^ " in output") true (contains msg needle))
    [ "EXPLAIN ANALYZE"; "total time="; "rows returned="; "est. rows=";
      "actual rows="; "loops="; "SCAN T1" ];
  checkb "recorder uninstalled" true
    ((Db.context db).Bdbms_asql.Context.analyze = None);
  (* plain EXPLAIN is untouched: estimates only *)
  (match Db.exec db "EXPLAIN SELECT id FROM T1 WHERE k = 3" with
  | Ok (Executor.Message m) -> checkb "no actuals" false (contains m "actual rows=")
  | _ -> Alcotest.fail "expected EXPLAIN message")

(* ------------------------------------- batch representation properties *)

module Batch = Bdbms_relation.Batch
module Expr = Bdbms_relation.Expr
module Cursor = Bdbms_relation.Cursor
module Vexec = Bdbms_asql.Vexec

let prop_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.TInt };
      { Schema.name = "a"; ty = Value.TInt };
      { Schema.name = "b"; ty = Value.TFloat };
      { Schema.name = "s"; ty = Value.TString };
      { Schema.name = "c"; ty = Value.TBool };
    ]

let rand_tuple st i =
  let maybe v = if Random.State.int st 4 = 0 then Value.VNull else v in
  Tuple.make
    [
      Value.VInt i;
      maybe (Value.VInt (Random.State.int st 10 - 5));
      maybe (Value.VFloat (float_of_int (Random.State.int st 40) /. 4.0));
      maybe (Value.VString (Printf.sprintf "s%d" (Random.State.int st 5)));
      maybe (Value.VBool (Random.State.bool st));
    ]

let rand_batch st n =
  let b = Batch.builder ~cap:n prop_schema (Batch.layout_of_schema prop_schema) in
  let tuples = List.init n (fun i -> rand_tuple st i) in
  List.iter (Batch.append_tuple b) tuples;
  (Batch.finish b, tuples)

(* Round-trip and selection-vector algebra: boxing a batch back out
   yields the input tuples; [retain] behaves exactly like filtering the
   selected-row list and composes; unboxed hash/join keys agree with
   their [Value]/[Cursor] definitions. *)
let test_batch_properties () =
  let st = Random.State.make [| 0xba; 0x7c |] in
  for _ = 1 to 25 do
    let n = 1 + Random.State.int st 40 in
    let batch, tuples = rand_batch st n in
    checki "rows" n (Batch.rows batch);
    checki "all selected at birth" n (Batch.selected batch);
    List.iteri
      (fun i t ->
        checkb (Printf.sprintf "tuple_of round-trips row %d" i) true
          (Tuple.equal (Batch.tuple_of batch i) t);
        Array.iteri
          (fun col v ->
            checkb "hash_key matches Value.hash_key" true
              (Batch.hash_key batch ~row:i ~col = Value.hash_key v);
            checkb "is_null matches" true
              (Batch.is_null batch ~row:i ~col = (v = Value.VNull)))
          t)
      tuples;
    let cols = [ 1; 3 ] in
    List.iteri
      (fun i t ->
        checkb "join_key matches Cursor.join_key" true
          (Batch.join_key batch i cols = Cursor.join_key t cols))
      tuples;
    (* retain ≡ filter over the selected list, and it composes *)
    let keep row = Batch.is_null batch ~row ~col:1 = false in
    let expect = List.filter keep (Batch.selected_rows batch) in
    let dropped = Batch.retain batch keep in
    checki "retain drop count" (n - List.length expect) dropped;
    Alcotest.(check (list int)) "retain keeps the right rows" expect
      (Batch.selected_rows batch);
    let before = Batch.selected_rows batch in
    let st2 = Random.State.copy st in
    let expect2 = List.filter (fun _ -> Random.State.bool st2) before in
    ignore (Batch.retain batch (fun _ -> Random.State.bool st));
    Alcotest.(check (list int)) "second retain composes" expect2
      (Batch.selected_rows batch);
    Batch.reset_selection batch;
    checki "reset restores everything" n (Batch.selected batch);
    Batch.set_selection batch (Array.of_list expect);
    Alcotest.(check (list int)) "set_selection installs" expect
      (Batch.selected_rows batch)
  done

(* Compiled predicates must agree with the reference three-valued
   evaluator on every row, for every predicate shape the compiler
   specializes (and the ones it falls back on). *)
let test_compiled_predicates () =
  let st = Random.State.make [| 0xc0; 0x0e |] in
  let lit_int () = Expr.Lit (Value.VInt (Random.State.int st 10 - 5)) in
  let cmp () =
    [| Expr.Eq; Expr.Neq; Expr.Lt; Expr.Leq; Expr.Gt; Expr.Geq |].(Random.State.int st 6)
  in
  let preds =
    [
      Expr.Cmp (Expr.Eq, Expr.Col "a", Expr.Lit (Value.VInt 2));
      Expr.Cmp (Expr.Lt, Expr.Lit (Value.VInt 0), Expr.Col "a");
      Expr.Cmp (Expr.Gt, Expr.Col "b", Expr.Lit (Value.VFloat 4.5));
      Expr.Cmp (Expr.Eq, Expr.Col "s", Expr.Lit (Value.VString "s1"));
      Expr.Cmp (Expr.Eq, Expr.Col "c", Expr.Lit (Value.VBool true));
      Expr.Cmp (Expr.Leq, Expr.Col "a", Expr.Col "id");
      Expr.Cmp (Expr.Eq, Expr.Col "s", Expr.Col "s");
      Expr.Cmp (Expr.Gt, Expr.Col "b", Expr.Col "a");
      Expr.Cmp (Expr.Eq, Expr.Col "a", Expr.Lit Value.VNull);
      Expr.Is_null (Expr.Col "s");
      Expr.Not (Expr.Is_null (Expr.Col "a"));
      Expr.Not (Expr.Cmp (Expr.Eq, Expr.Col "a", Expr.Lit (Value.VInt 1)));
      Expr.And
        ( Expr.Cmp (Expr.Gt, Expr.Col "a", Expr.Lit (Value.VInt (-2))),
          Expr.Cmp (Expr.Lt, Expr.Col "id", Expr.Lit (Value.VInt 30)) );
      Expr.Or
        ( Expr.Is_null (Expr.Col "b"),
          Expr.Cmp (Expr.Eq, Expr.Col "s", Expr.Lit (Value.VString "s3")) );
      Expr.Like (Expr.Col "s", "s%");
      Expr.In_list (Expr.Col "a", [ Value.VInt 1; Value.VInt 3; Value.VNull ]);
      Expr.Cmp
        ( Expr.Eq,
          Expr.Arith (Expr.Add, Expr.Col "a", Expr.Lit (Value.VInt 1)),
          Expr.Lit (Value.VInt 2) );
    ]
  in
  for _ = 1 to 15 do
    let n = 1 + Random.State.int st 48 in
    let batch, tuples = rand_batch st n in
    let check_pred e =
      let compiled = Vexec.compile_pred prop_schema e batch in
      List.iteri
        (fun i t ->
          checkb
            (Printf.sprintf "compiled pred row %d" i)
            (Expr.eval_pred prop_schema t e)
            (compiled i))
        tuples
    in
    List.iter check_pred preds;
    (* random column/literal comparisons over every kind pairing *)
    for _ = 1 to 20 do
      let col = [| "id"; "a"; "b"; "s"; "c" |].(Random.State.int st 5) in
      let lit =
        match Random.State.int st 4 with
        | 0 -> lit_int ()
        | 1 -> Expr.Lit (Value.VFloat (float_of_int (Random.State.int st 8)))
        | 2 -> Expr.Lit (Value.VString (Printf.sprintf "s%d" (Random.State.int st 5)))
        | _ -> Expr.Lit Value.VNull
      in
      check_pred
        (if Random.State.bool st then Expr.Cmp (cmp (), Expr.Col col, lit)
         else Expr.Cmp (cmp (), lit, Expr.Col col))
    done
  done

(* ------------------------------------------------------- stack safety *)

let test_limit_stack_safety () =
  let n = 1_000_000 in
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let rows = Array.to_list (Array.init n (fun i -> Tuple.make [ Value.VInt i ])) in
  let rs = { Ops.schema; rows } in
  checki "ops limit big" (n - 1) (List.length (Ops.limit rs (n - 1)).Ops.rows);
  let ars = Propagate.of_rowset rs in
  checki "propagate limit big" (n - 1)
    (Propagate.row_count (Propagate.limit ars (n - 1)))

let () =
  Alcotest.run "bdbms_query"
    [
      ( "equivalence",
        [
          Alcotest.test_case "fixed cases" `Quick test_fixed;
          Alcotest.test_case "fixed cases, one-row batches" `Quick
            test_fixed_batch1;
          Alcotest.test_case "randomized sweep" `Quick test_randomized;
          Alcotest.test_case "null-heavy batch edges" `Quick test_batch_edges;
        ] );
      ( "batch-representation",
        [
          Alcotest.test_case "selection vectors and round-trips" `Quick
            test_batch_properties;
          Alcotest.test_case "compiled predicates" `Quick
            test_compiled_predicates;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "decode cache" `Quick test_decode_cache;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "per-node actuals" `Quick test_analyze_actuals;
          Alcotest.test_case "differential sweep" `Quick
            test_analyze_differential_sweep;
          Alcotest.test_case "statement rendering" `Quick test_analyze_statement;
        ] );
      ( "stack-safety",
        [ Alcotest.test_case "limit on 1M rows" `Quick test_limit_stack_safety ] );
    ]
