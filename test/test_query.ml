(* Differential tests for the query engines: every query — fixed edge
   cases plus a deterministic randomized sweep — must return the same
   rows under both engines ([`Naive] the materialize-everything oracle,
   [`Batch] the vectorized path; see [Db.set_exec_mode]).  A second
   group asserts through the Stats counters that the fast paths actually
   ran: hash joins build and probe, pushdown prunes during the scan,
   index probes replace full scans, every plan shape decodes batches,
   plain queries never materialize annotation envelopes, and annotated
   ones build exactly one per returned row. *)

open Bdbms
module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
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
   pools so equality and LIKE predicates select non-trivially.  Both
   tables carry an annotation table, T2 an index on [id], and a small
   table [O] has outdated cells. *)
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
  stmt "ADD ANNOTATION TO T1.notes VALUE 'two' ON (SELECT id, v FROM T1 WHERE k = 2)";
  stmt "CREATE ANNOTATION TABLE tags ON T2";
  stmt "ADD ANNOTATION TO T2.tags VALUE 'small' ON (SELECT * FROM T2 WHERE id < 10)";
  stmt "ADD ANNOTATION TO T2.tags VALUE 'w' ON (SELECT w FROM T2 WHERE k = 3)";
  stmt "CREATE INDEX t2_id ON T2 (id)";
  (* [N]'s INT and REAL indexes hold values [=] equates across the index
     key's types ([2] and [2.0], [0.0] and [-0.0]) and NULLs *)
  stmt "CREATE TABLE N (id INT, k INT, f REAL)";
  stmt
    "INSERT INTO N VALUES (0, 2, 0.0), (1, 3, -0.0), (2, NULL, 2.0), \
     (3, 2, NULL), (4, 1, 2.5), (5, 0, 1.0)";
  stmt "CREATE INDEX n_k ON N (k)";
  stmt "CREATE INDEX n_f ON N (f)";
  (* [O.derived] in rows 1 and 3 is marked outdated by the dependency
     manager: its source changed and the procedure cannot recompute *)
  (match
     Bdbms_asql.Context.register_procedure (Db.context db)
       (Bdbms_dependency.Procedure.non_executable ~name:"Lab" ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  stmt "CREATE TABLE O (id INT, src INT, derived TEXT)";
  stmt
    ("INSERT INTO O VALUES "
    ^ String.concat ", "
        (List.init 8 (fun i -> Printf.sprintf "(%d, %d, 'd%d')" i i i)));
  stmt "CREATE DEPENDENCY od FROM O.src TO O.derived USING Lab";
  stmt "LINK DEPENDENCY od FROM (1) TO 1";
  stmt "LINK DEPENDENCY od FROM (3) TO 3";
  stmt "UPDATE O SET src = 99 WHERE id = 1 OR id = 3"

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

(* Run [sql] under both engines and check the batch engine against the
   naive oracle. *)
let run_all_modes db ~ordered sql =
  let run mode =
    Db.set_exec_mode db mode;
    rows_of db sql
  in
  let n = run `Naive in
  let p = run `Batch in
  let encode rs =
    let e = List.map encode_row rs.Propagate.rows in
    if ordered then e else List.sort compare e
  in
  Alcotest.(check (list string))
    ("schema (batch): " ^ sql) (schema_names n) (schema_names p);
  Alcotest.(check (list string)) ("rows (batch): " ^ sql) (encode n) (encode p)

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
    "SELECT id, v FROM T1 ANNOTATION(notes) WHERE k < 5 ORDER BY id DESC \
     LIMIT 4 OFFSET 1";
    "SELECT * FROM O ORDER BY id";
    (* indexed numeric equality: each probe keys its literal as [=]
       compares it *)
    "SELECT id FROM N WHERE k = 2.0 ORDER BY id";
    "SELECT id FROM N WHERE f = 2 ORDER BY id";
    "SELECT id FROM N WHERE f = 0.0 ORDER BY id";
    "SELECT id FROM N WHERE f = -0.0 ORDER BY id";
    "SELECT id FROM N WHERE k = NULL ORDER BY id";
    "SELECT id FROM N WHERE f = NULL ORDER BY id";
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
    (* annotated shapes: ANNOTATION on both join sides, hash-joined *)
    "SELECT a.id, b.id FROM T1 a ANNOTATION(notes), T2 b ANNOTATION(tags) \
     WHERE a.k = b.k AND a.k < 5";
    "SELECT * FROM T1 a ANNOTATION(notes), T2 b ANNOTATION(*) \
     WHERE a.k = b.k AND b.id < 10";
    (* edge-less: a block join *)
    "SELECT a.id, b.id FROM T1 a ANNOTATION(notes), T2 b ANNOTATION(tags) \
     WHERE a.id < 5 AND b.id < 5";
    "SELECT id, v FROM T1 ANNOTATION(notes) AWHERE ANN CONTAINS 'two'";
    "SELECT k, COUNT(*) AS n FROM T1 ANNOTATION(notes) GROUP BY k \
     AHAVING ANN CONTAINS 'two'";
    "SELECT id, v FROM T1 ANNOTATION(notes) WHERE k < 6 FILTER ANN CONTAINS 'low'";
    "SELECT id PROMOTE (v, k) FROM T1 ANNOTATION(notes) WHERE k < 4";
    "SELECT DISTINCT k FROM T1 ANNOTATION(notes) WHERE k < 5";
    (* index-probe lookups *)
    "SELECT * FROM T2 ANNOTATION(tags) WHERE id = 7";
    "SELECT a.id, b.w FROM T1 a ANNOTATION(notes), T2 b ANNOTATION(tags) \
     WHERE a.k = b.k AND b.id = 3";
    (* outdated marks, with no annotation operator in the query *)
    "SELECT derived FROM O WHERE src > 2";
    "SELECT a.id, o.derived FROM T1 a, O o WHERE a.id = o.id";
    (* a sys.* view beside an annotated table: its rows have no row id *)
    "SELECT t.name, x.id FROM sys.tables t, T1 x ANNOTATION(notes) \
     WHERE x.id < 3 AND t.name = 'T2'";
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
      (* LIMIT cut mid-batch: the tail must stop pulling batches *)
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

(* ---------------------------------------------------------- tail shapes *)

(* The plain tail above the joins — aggregation, computed columns,
   DISTINCT, ORDER BY, OFFSET/LIMIT — on the shapes where its operators
   meet their edge cases.  Every ordered query is totally ordered, or
   single-table (both engines see rows in scan order, and every sort is
   stable), so row sequences must match exactly. *)
let tail_db () =
  let db = mk_db () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE Z (id INT, x INT, y REAL, s TEXT)";
      "INSERT INTO Z VALUES (0, NULL, NULL, NULL), (1, NULL, NULL, NULL), \
       (2, 5, 1.5, 'a'), (3, NULL, NULL, NULL)";
    ];
  db

let tail_ordered =
  [
    (* ungrouped aggregates: empty input, all-NULL input *)
    "SELECT COUNT(*) AS c, COUNT(f) AS cf, SUM(f) AS s, AVG(f) AS a, \
     MIN(v) AS mn, MAX(v) AS mx FROM T1 WHERE k = 99";
    "SELECT COUNT(*) AS c, COUNT(x) AS cx, SUM(x) AS sx, AVG(y) AS ay, \
     MIN(s) AS mn, MAX(y) AS mx FROM Z WHERE x IS NULL";
    "SELECT k, COUNT(*) AS n FROM T1 WHERE k = 99 GROUP BY k";
    (* GROUP BY + HAVING + ORDER BY + LIMIT/OFFSET *)
    "SELECT k, COUNT(*) AS n, SUM(id) AS s FROM T1 GROUP BY k HAVING n > 3 \
     ORDER BY n DESC, k LIMIT 4 OFFSET 1";
    "SELECT k, MIN(v) AS lo, MAX(f) AS hi FROM T1 GROUP BY k ORDER BY lo, k \
     LIMIT 3";
    "SELECT x, COUNT(*) AS n, SUM(y) AS sy FROM Z GROUP BY x";
    (* computed columns + ORDER BY + LIMIT (ties in input order) *)
    "SELECT id, k * 10 + id AS score FROM T1 WHERE k < 8 ORDER BY score DESC \
     LIMIT 5";
    "SELECT id, k + 1 AS kk FROM T1 ORDER BY kk LIMIT 9";
    "SELECT id, v || '-x' AS tag FROM T1 ORDER BY tag, id LIMIT 6 OFFSET 2";
    (* DISTINCT + ORDER BY on a column the items do not project *)
    "SELECT DISTINCT k FROM T1 ORDER BY id";
    "SELECT DISTINCT k FROM T1 ORDER BY id DESC LIMIT 4";
    "SELECT DISTINCT v, k FROM T1 ORDER BY f, id LIMIT 7 OFFSET 1";
    (* LIMIT 0, OFFSET past the end *)
    "SELECT * FROM T1 LIMIT 0";
    "SELECT id FROM T1 ORDER BY id LIMIT 0";
    "SELECT k, COUNT(*) AS n FROM T1 GROUP BY k LIMIT 0";
    "SELECT id FROM T1 ORDER BY id LIMIT 5 OFFSET 100";
    "SELECT * FROM T1 LIMIT 10 OFFSET 1000";
    "SELECT DISTINCT k FROM T1 LIMIT 3 OFFSET 50";
    (* SELECT * with ORDER BY *)
    "SELECT * FROM T1 ORDER BY k DESC, id";
    "SELECT * FROM T1 ORDER BY f LIMIT 6";
    "SELECT DISTINCT * FROM T2 ORDER BY w, id LIMIT 5 OFFSET 3";
  ]

let test_tail_shapes () =
  List.iter
    (fun batch_rows ->
      let db = tail_db () in
      Option.iter (Db.set_batch_rows db) batch_rows;
      List.iter (run_all_modes db ~ordered:true) tail_ordered)
    [ Some 1; None ]

(* A table of [3 * batch_rows] distinct rows: a LIMIT satisfied by the
   first batch stops the tail from pulling (and the scan from decoding)
   any other. *)
let test_limit_stops_decoding () =
  let batch_rows = 8 in
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  ignore (Db.exec_exn db "CREATE TABLE L (id INT, k INT)");
  ignore
    (Db.exec_exn db
       (Printf.sprintf "INSERT INTO L VALUES %s"
          (String.concat ", "
             (List.init (3 * batch_rows) (fun i ->
                  Printf.sprintf "(%d, %d)" i (i mod 5))))));
  Db.set_batch_rows db batch_rows;
  List.iter
    (fun (sql, rows) ->
      let before = Db.io_stats db in
      let rs = rows_of db sql in
      let d = Stats.diff ~after:(Db.io_stats db) ~before in
      checki ("rows: " ^ sql) rows (Propagate.row_count rs);
      checkb
        (Printf.sprintf "%s decodes at most one batch (%d tuples)" sql
           d.Stats.tuples_decoded)
        true
        (d.Stats.tuples_decoded <= batch_rows);
      checki ("one batch: " ^ sql) 1 d.Stats.batches_decoded)
    [
      ("SELECT * FROM L LIMIT 2", 2);
      ("SELECT DISTINCT k FROM L LIMIT 2", 2);
      ("SELECT id FROM L LIMIT 3 OFFSET 4", 3);
    ];
  (* the whole table still streams through when nothing stops it *)
  let before = Db.io_stats db in
  checki "unlimited" (3 * batch_rows)
    (Propagate.row_count (rows_of db "SELECT * FROM L"));
  checki "every batch" 3
    (Stats.diff ~after:(Db.io_stats db) ~before).Stats.batches_decoded;
  (* the operator itself: one pull satisfies LIMIT 2, and a drained
     source stays drained without pulling its input again *)
  let module Vexec = Bdbms_asql.Vexec in
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let pulls = ref 0 in
  let input =
    Vexec.of_tuples ~batch_rows schema
      (Array.init (3 * batch_rows) (fun i -> [| Value.VInt i |]))
  in
  let counted =
    { input with Vexec.next = (fun () -> incr pulls; input.Vexec.next ()) }
  in
  let limited = Vexec.limit counted ~offset:1 ~limit:(Some 2) in
  Alcotest.(check (list string)) "offset 1 limit 2" [ "1"; "2" ]
    (List.map Tuple.to_display (Vexec.drain limited));
  checki "one pull" 1 !pulls;
  checkb "exhausted stays exhausted" true (limited.Vexec.next () = None);
  checki "still one pull" 1 !pulls

(* ORDER BY ... LIMIT keeps ties in input order: its answer is the
   stable sort of the whole input, cut to the limit. *)
let test_top_k_stable () =
  let db = mk_db () in
  List.iter
    (fun batch_rows ->
      Db.set_batch_rows db batch_rows;
      let all = (rows_of db "SELECT id, k FROM T1").Propagate.rows in
      let by_k (a : Propagate.atuple) (b : Propagate.atuple) =
        Value.compare a.Propagate.tuple.(1) b.Propagate.tuple.(1)
      in
      List.iter
        (fun n ->
          let expect =
            List.filteri (fun i _ -> i < n) (List.stable_sort by_k all)
          in
          let got =
            (rows_of db (Printf.sprintf "SELECT id, k FROM T1 ORDER BY k LIMIT %d" n))
              .Propagate.rows
          in
          Alcotest.(check (list string))
            (Printf.sprintf "top-%d = stable sort prefix (batch_rows %d)" n
               batch_rows)
            (List.map encode_row expect) (List.map encode_row got))
        [ 1; 7; 20; 59; 60; 200 ])
    [ 1; 7; Bdbms_relation.Batch.default_rows ];
  (* the operator itself, on rows that tie in runs *)
  let module Vexec = Bdbms_asql.Vexec in
  let schema =
    Schema.make
      [
        { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "seq"; ty = Value.TInt };
      ]
  in
  let st = Random.State.make [| 0x70; 0x9c |] in
  for _ = 1 to 40 do
    let n = Random.State.int st 50 in
    let rows =
      Array.init n (fun i -> [| Value.VInt (Random.State.int st 4); Value.VInt i |])
    in
    let cmp a b = Value.compare b.(0) a.(0) in
    let k = Random.State.int st 60 in
    let batch_rows = 1 + Random.State.int st 9 in
    let expect =
      List.filteri (fun i _ -> i < k) (List.stable_sort cmp (Array.to_list rows))
    in
    let got =
      Vexec.drain
        (Vexec.top_k ~batch_rows (Vexec.of_tuples ~batch_rows schema rows) ~cmp ~k)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "Vexec.top_k n=%d k=%d" n k)
      (List.map Tuple.to_display expect)
      (List.map Tuple.to_display got)
  done

(* GROUP BY and DISTINCT agree with [=]: 0.0 and -0.0 are one group, and
   NULL is a group of its own. *)
let test_negative_zero_groups () =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE t (x FLOAT)";
      "INSERT INTO t VALUES (0.0)";
      "INSERT INTO t VALUES (-0.0)";
      "INSERT INTO t VALUES (NULL)";
      "INSERT INTO t VALUES (NULL)";
    ];
  List.iter
    (fun mode ->
      Db.set_exec_mode db mode;
      let groups = rows_of db "SELECT x, COUNT(*) AS n FROM t GROUP BY x" in
      Alcotest.(check (list string))
        (mode_name mode ^ ": one group per value")
        [ "0 | 2"; "NULL | 2" ]
        (List.map
           (fun (r : Propagate.atuple) -> Tuple.to_display r.Propagate.tuple)
           groups.Propagate.rows);
      checki (mode_name mode ^ ": DISTINCT") 2
        (Propagate.row_count (rows_of db "SELECT DISTINCT x FROM t")))
    [ `Naive; `Batch ];
  Db.set_exec_mode db `Batch;
  List.iter
    (run_all_modes db ~ordered:true)
    [
      "SELECT x, COUNT(*) AS n FROM t GROUP BY x";
      "SELECT DISTINCT x FROM t";
      "SELECT * FROM t UNION SELECT * FROM t";
    ]

(* A computed column is declared with its expression's type, so it is
   union-compatible with a stored column of that type: set operations
   over INT, FLOAT and BOOL computed columns run on both engines. *)
let test_computed_set_operations () =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE S (id INT, n INT, r REAL, b BOOL, t TEXT)";
      "INSERT INTO S VALUES (0, 1, 0.5, TRUE, 'a'), (1, 2, 1.5, FALSE, 'b'), \
       (2, NULL, NULL, NULL, NULL), (3, 4, 3.5, TRUE, 'c'), \
       (4, 2, 2.0, FALSE, 'a')";
    ];
  let sweep () =
    List.iter
      (run_all_modes db ~ordered:true)
      [
        "SELECT n + 1 AS x FROM S UNION SELECT n FROM S";
        "SELECT n * 2 AS x FROM S INTERSECT SELECT n FROM S";
        "SELECT n - 1 AS x FROM S EXCEPT SELECT id FROM S";
        "SELECT r + 1 AS x FROM S UNION SELECT r FROM S";
        "SELECT n + 0.5 AS x FROM S INTERSECT SELECT r FROM S";
        "SELECT r * 2 AS x FROM S EXCEPT SELECT r FROM S";
        "SELECT n > 1 AS x FROM S UNION SELECT b FROM S";
        "SELECT t LIKE 'a%' AS x FROM S INTERSECT SELECT b FROM S";
        "SELECT n IS NULL AS x FROM S EXCEPT SELECT b FROM S";
        "SELECT id, n + 1 AS x FROM S UNION SELECT id, n FROM S";
      ];
    List.iter
      (fun mode ->
        Db.set_exec_mode db mode;
        let rs =
          rows_of db
            "SELECT n + 1 AS i, n / 2 AS i2, n + r AS f, r * 2 AS f2, \
             n = 2 AS eq, NOT b AS nb, t || '!' AS s, id IN (1, 2) AS isin FROM S"
        in
        Alcotest.(check (list string))
          (mode_name mode ^ ": declared types")
          [ "INT"; "INT"; "FLOAT"; "FLOAT"; "BOOL"; "BOOL"; "TEXT"; "BOOL" ]
          (List.map
             (fun c -> Value.type_name c.Schema.ty)
             (Schema.columns rs.Propagate.schema)))
      [ `Naive; `Batch ]
  in
  sweep ();
  Db.set_batch_rows db 1;
  sweep ()

(* A computed column's alias may shadow an input column: the output
   column takes the alias, and ORDER BY names the output column, as it
   does for any computed alias; a later computed item may name an earlier
   alias.  Both engines, the plain and the annotated batch tail, at
   one-row and default batches. *)
let test_alias_shadows_input () =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE S (n INT)";
      "INSERT INTO S VALUES (1), (2)";
      "CREATE ANNOTATION TABLE notes ON S";
    ];
  let values sql =
    List.map
      (fun (r : Propagate.atuple) -> Value.to_display (Tuple.get r.Propagate.tuple 0))
      (rows_of db sql).Propagate.rows
  in
  List.iter
    (fun batch_rows ->
      Db.set_batch_rows db batch_rows;
      List.iter
        (fun (sql, expect) ->
          run_all_modes db ~ordered:true sql;
          List.iter
            (fun mode ->
              Db.set_exec_mode db mode;
              Alcotest.(check (list string))
                (Printf.sprintf "%s, batch_rows %d: %s" (mode_name mode)
                   batch_rows sql)
                expect (values sql))
            [ `Naive; `Batch ])
        [
          ("SELECT n + 1 AS n FROM S", [ "2"; "3" ]);
          ("SELECT 0 - n AS n FROM S ORDER BY n", [ "-2"; "-1" ]);
          ("SELECT n + 1 AS n FROM S ANNOTATION(notes)", [ "2"; "3" ]);
          ("SELECT 0 - n AS n FROM S ANNOTATION(notes) ORDER BY n", [ "-2"; "-1" ]);
          ("SELECT n + 1 AS m, m * 10 AS q FROM S ORDER BY q DESC", [ "3"; "2" ]);
        ])
    [ 1; Bdbms_relation.Batch.default_rows ]

(* ORDER BY names an output column before an input column: a plain
   item's alias sorts by its source column, and where an alias spells
   another input column's name, the alias wins. *)
let test_order_by_output_alias () =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE S (n INT, r INT)";
      "INSERT INTO S VALUES (3, 10), (1, 30), (2, 20), (2, 20)";
      "CREATE ANNOTATION TABLE notes ON S";
    ];
  let rows sql =
    List.map
      (fun (r : Propagate.atuple) ->
        String.concat "|"
          (List.map Value.to_display (Array.to_list r.Propagate.tuple)))
      (rows_of db sql).Propagate.rows
  in
  List.iter
    (fun batch_rows ->
      Db.set_batch_rows db batch_rows;
      List.iter
        (fun (sql, expect) ->
          run_all_modes db ~ordered:true sql;
          List.iter
            (fun mode ->
              Db.set_exec_mode db mode;
              Alcotest.(check (list string))
                (Printf.sprintf "%s, batch_rows %d: %s" (mode_name mode)
                   batch_rows sql)
                expect (rows sql))
            [ `Naive; `Batch ])
        [
          ("SELECT n AS x FROM S ORDER BY x", [ "1"; "2"; "2"; "3" ]);
          ("SELECT n AS x FROM S ORDER BY x DESC LIMIT 1", [ "3" ]);
          ( "SELECT n AS r, r AS n FROM S ORDER BY n",
            [ "3|10"; "2|20"; "2|20"; "1|30" ] );
          ("SELECT DISTINCT n AS x FROM S ORDER BY x DESC", [ "3"; "2"; "1" ]);
          ("SELECT n AS x FROM S ANNOTATION(notes) ORDER BY x", [ "1"; "2"; "2"; "3" ]);
        ])
    [ 1; Bdbms_relation.Batch.default_rows ]

(* A DISAPPROVE's inverse statement re-derives the cells that depend on
   the reverted one, behind the executor; the derived table's index must
   follow, in both engines. *)
let test_disapprove_rederives_behind_index () =
  List.iter
    (fun mode ->
      let db = Db.create () in
      Db.set_exec_mode db mode;
      List.iter
        (fun sql -> ignore (Db.exec_exn db sql))
        [
          "CREATE TABLE gene (gid INT, gs DNA)";
          "CREATE TABLE protein (pid INT, ps PROTEIN)";
          "INSERT INTO gene VALUES (0, 'ATGGCCAAA')";
          "INSERT INTO protein VALUES (0, 'MAK')";
          "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
          "LINK DEPENDENCY r1 FROM (0) TO 0";
          "CREATE INDEX p_ps ON protein (ps)";
          "START CONTENT APPROVAL ON gene APPROVED BY admin";
          "UPDATE gene SET gs = 'ATGTGGTGG' WHERE gid = 0";
        ];
      let pids sql =
        List.map
          (fun (r : Propagate.atuple) -> Value.to_display (Tuple.get r.Propagate.tuple 0))
          (rows_of db sql).Propagate.rows
      in
      let what = mode_name mode in
      Alcotest.(check (list string))
        (what ^ ": derived before DISAPPROVE") [ "0" ]
        (pids "SELECT pid FROM protein WHERE ps = 'MWW'");
      ignore (Db.exec_exn db "DISAPPROVE 1");
      Alcotest.(check (list string))
        (what ^ ": re-derived after DISAPPROVE") [ "0" ]
        (pids "SELECT pid FROM protein WHERE ps = 'MAK'");
      Alcotest.(check (list string))
        (what ^ ": old value gone") []
        (pids "SELECT pid FROM protein WHERE ps = 'MWW'");
      Db.close db)
    [ `Naive; `Batch ]

(* ----------------------------------------------------- the write path *)

module Context = Bdbms_asql.Context
module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table

(* [f db what] on a fresh database that ran [script], in each engine at
   one-row and default batches. *)
let in_each_engine script f =
  List.iter
    (fun mode ->
      List.iter
        (fun batch_rows ->
          let db = Db.create () in
          Db.set_exec_mode db mode;
          Db.set_batch_rows db batch_rows;
          List.iter (fun sql -> ignore (Db.exec_exn db sql)) script;
          f db (Printf.sprintf "%s, batch_rows %d" (mode_name mode) batch_rows);
          Db.close db)
        [ 1; Bdbms_relation.Batch.default_rows ])
    [ `Naive; `Batch ]

let first_column db sql =
  List.map
    (fun (r : Propagate.atuple) -> Value.to_display (Tuple.get r.Propagate.tuple 0))
    (rows_of db sql).Propagate.rows

(* Each analyzed table's statistics count the rows a scan finds. *)
let check_live_rows ~what db =
  let ctx = Db.context db in
  List.iter
    (fun (ts : Bdbms_stats.Table_stats.t) ->
      checki
        (Printf.sprintf "%s: live rows of %s" what ts.Bdbms_stats.Table_stats.table)
        (Table.live_count (Catalog.find_exn ctx.Context.catalog ts.Bdbms_stats.Table_stats.table))
        ts.Bdbms_stats.Table_stats.live_rows)
    (Bdbms_stats.Registry.all ctx.Context.tstats)

(* Writes of every kind on indexed, analyzed, dependency-linked tables:
   DML, DISAPPROVE inverses, re-derived cells and the ON (DELETE ...)
   log.  Reads between them compare the engines. *)
let write_path_corpus =
  [
    "CREATE TABLE gene (gid INT, gs DNA)";
    "CREATE TABLE protein (pid INT, ps PROTEIN)";
    "CREATE ANNOTATION TABLE notes ON gene";
    "INSERT INTO gene VALUES (0, 'ATGGCCAAA'), (1, 'ATGAAATAA'), (2, 'ATGTGG')";
    "INSERT INTO protein VALUES (0, 'MAK'), (1, 'MK'), (2, 'MW')";
    "CREATE INDEX g_gid ON gene (gid)";
    "CREATE INDEX g_gs ON gene (gs)";
    "CREATE INDEX p_ps ON protein (ps)";
    "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
    "LINK DEPENDENCY r1 FROM (0) TO 0";
    "LINK DEPENDENCY r1 FROM (1) TO 1";
    "LINK DEPENDENCY r1 FROM (2) TO 2";
    "ANALYZE";
    "UPDATE gene SET gs = 'ATGTGGTGG' WHERE gid = 0";
    "SELECT pid FROM protein WHERE ps = 'MWW'";
    "START CONTENT APPROVAL ON gene APPROVED BY admin";
    "UPDATE gene SET gs = 'ATGCCC' WHERE gid = 1";
    "INSERT INTO gene VALUES (3, 'ATGAAA')";
    "DELETE FROM gene WHERE gid = 2";
    "SELECT gid, gs FROM gene WHERE gid = 3";
    "DISAPPROVE 1";
    "SELECT pid FROM protein WHERE ps = 'MK'";
    "DISAPPROVE 2";
    "DISAPPROVE 3";
    "SELECT gid FROM gene WHERE gid = 2";
    "STOP CONTENT APPROVAL ON gene";
    "UPDATE gene SET gid = gid + 10 WHERE gid < 2";
    "SELECT gid FROM gene WHERE gid = 11";
    "ADD ANNOTATION TO gene.notes VALUE 'gone' ON (DELETE FROM gene WHERE gid = 10)";
    "CREATE INDEX dl_gid ON _deleted_gene (gid)";
    "ADD ANNOTATION TO gene.notes VALUE 'gone too' ON (DELETE FROM gene WHERE gid = 11)";
    "SELECT gid FROM _deleted_gene WHERE gid = 11";
    "ADD ANNOTATION TO gene.notes VALUE 'new' ON (INSERT INTO gene VALUES (4, 'ATGGCC'))";
    "DELETE FROM protein WHERE pid = 2";
    "SELECT pid, ps FROM protein WHERE ps = 'MAK'";
  ]

(* The index oracle after every statement of the corpus. *)
let test_write_path_corpus () =
  List.iter
    (fun batch_rows ->
      let db = Db.create () in
      Db.set_batch_rows db batch_rows;
      List.iter
        (fun sql ->
          if String.starts_with ~prefix:"SELECT" sql then run_all_modes db ~ordered:false sql
          else ignore (Db.exec_exn db sql);
          let what = Printf.sprintf "batch_rows %d: %s" batch_rows sql in
          Fixtures.check_indexes ~what (Db.context db);
          check_live_rows ~what db)
        write_path_corpus;
      Db.close db)
    [ 1; Bdbms_relation.Batch.default_rows ]

(* The ON (DELETE ...) log table is written like any table, so an index
   created on it follows the rows logged after it. *)
let test_deleted_log_index () =
  in_each_engine
    [
      "CREATE TABLE gene (gid INT, gs DNA)";
      "INSERT INTO gene VALUES (1, 'ATG'), (2, 'ATGAAA')";
      "CREATE ANNOTATION TABLE notes ON gene";
      "ADD ANNOTATION TO gene.notes VALUE 'obsolete' ON (DELETE FROM gene WHERE gid = 2)";
      "CREATE INDEX dl_gid ON _deleted_gene (gid)";
      "ADD ANNOTATION TO gene.notes VALUE 'obsolete too' ON (DELETE FROM gene WHERE gid = 1)";
    ]
    (fun db what ->
      Alcotest.(check (list string))
        (what ^ ": the second logged row") [ "1" ]
        (first_column db "SELECT gid FROM _deleted_gene WHERE gid = 1");
      Fixtures.check_indexes ~what (Db.context db))

(* A 20-row table for the write-selection corpus: NULLs in [k], [f] and
   [s], [-0.0] beside [0.0], REAL cells equal to INT literals, and
   [k = 7] on 12 rows, over half the table, so that with statistics the
   planner scans rather than probes for it. *)
let selection_script ~indexed ~analyzed =
  let k i =
    if i < 12 then "7"
    else List.nth [ "2"; "NULL"; "3"; "2"; "NULL"; "0"; "1"; "5" ] (i - 12)
  in
  let f i = List.nth [ "0.0"; "-0.0"; "2.0"; "NULL"; "2.5" ] (i mod 5) in
  let s i = List.nth [ "'abc'"; "'abd'"; "NULL"; "'xyz'" ] (i mod 4) in
  [
    "CREATE TABLE W (id INT, k INT, f REAL, s TEXT, mark INT)";
    "INSERT INTO W VALUES "
    ^ String.concat ", "
        (List.init 20 (fun i -> Printf.sprintf "(%d, %s, %s, %s, 0)" i (k i) (f i) (s i)));
  ]
  @ (if indexed then
       [
         "CREATE INDEX w_k ON W (k)";
         "CREATE INDEX w_f ON W (f)";
         "CREATE INDEX w_s ON W (s)";
         "CREATE INDEX w_mark ON W (mark)";
       ]
     else [])
  @ if analyzed then [ "ANALYZE W" ] else []

let selection_predicates =
  [
    "k = 2";
    "k = 2.0";
    "k = 7";
    "k = 7.0";
    "f = 0.0";
    "f = -0.0";
    "f = 0";
    "f = 2";
    "k = NULL";
    "f = NULL";
    "k IS NULL";
    "NOT (k = 2)";
    "k <> 7";
    "NOT (k = 7 OR f IS NULL)";
    "s LIKE 'ab%'";
    "NOT (s LIKE 'ab%')";
    "s = 'abc'";
    "k = 7 AND f = 0.0";
    "k = 2 OR f = 2";
    "f = 2.5 AND s = 'abc'";
    "k = 7 AND s = NULL";
    "id < 5 AND k = 7";
    "f = 0.0 AND k = 2.0";
  ]

(* A write's rows are the rows its WHERE selects: [UPDATE ... WHERE p]
   touches exactly the naive oracle's [SELECT id ... WHERE p], and
   [DELETE ... WHERE p] on a fresh copy removes exactly them, with or
   without indexes and statistics, so an index never changes an
   affected count.  The index oracle runs after every statement. *)
let test_write_selects_where_rows () =
  let naive_ids db sql =
    Db.set_exec_mode db `Naive;
    let ids = List.sort compare (List.map int_of_string (first_column db sql)) in
    Db.set_exec_mode db `Batch;
    ids
  in
  let affected db sql =
    match Db.exec_exn db sql with
    | Executor.Count { affected; _ } -> affected
    | _ -> Alcotest.failf "expected a count for %s" sql
  in
  let probes db sql =
    let before = Db.io_stats db in
    let n = affected db sql in
    (n, (Stats.diff ~after:(Db.io_stats db) ~before).Stats.index_probes)
  in
  List.iter
    (fun (indexed, analyzed) ->
      List.iter
        (fun batch_rows ->
          List.iter
            (fun p ->
              let what =
                Printf.sprintf "indexed %b, analyzed %b, batch_rows %d: WHERE %s" indexed
                  analyzed batch_rows p
              in
              let fresh () =
                let db = Db.create ~page_size:1024 ~pool_pages:64 () in
                Db.set_batch_rows db batch_rows;
                List.iter (fun sql -> ignore (Db.exec_exn db sql))
                  (selection_script ~indexed ~analyzed);
                db
              in
              let db = fresh () in
              let want = naive_ids db ("SELECT id FROM W WHERE " ^ p) in
              let n, probed = probes db ("UPDATE W SET mark = 1 WHERE " ^ p) in
              Fixtures.check_indexes ~what:(what ^ ", UPDATE") (Db.context db);
              checki (what ^ ": cells updated") (List.length want) n;
              Alcotest.(check (list int))
                (what ^ ": rows marked") want
                (naive_ids db "SELECT id FROM W WHERE mark = 1");
              (* the planner's cost rule is the one index choice: a probe
                 without statistics, a scan for the majority value *)
              if indexed && (not analyzed) && p = "k = 2.0" then
                checkb (what ^ ": probes the index") true (probed > 0);
              if analyzed && p = "k = 7" then checki (what ^ ": scans") 0 probed;
              Db.close db;
              let db = fresh () in
              let all = naive_ids db "SELECT id FROM W" in
              checki (what ^ ": rows deleted") (List.length want)
                (affected db ("DELETE FROM W WHERE " ^ p));
              Fixtures.check_indexes ~what:(what ^ ", DELETE") (Db.context db);
              Alcotest.(check (list int))
                (what ^ ": rows left") (List.filter (fun id -> not (List.mem id want)) all)
                (naive_ids db "SELECT id FROM W");
              Db.close db)
            selection_predicates)
        [ 1; 7; Bdbms_relation.Batch.default_rows ])
    [ (false, false); (true, false); (true, true) ]

(* An ON (SELECT ...) region is the cells its FROM, WHERE and item list
   pick; a clause that would shape the SELECT's answer is refused by
   name, in ADD, ARCHIVE and RESTORE alike, and nothing is annotated. *)
let on_select_gene =
  [
    "CREATE TABLE gene (gid TEXT, gs DNA)";
    "INSERT INTO gene VALUES ('a', 'ATG'), ('b', 'ATGAAA'), ('c', 'ATGCCC')";
    "CREATE ANNOTATION TABLE notes ON gene";
  ]

let annotations_per_cell db =
  List.map
    (fun (r : Propagate.atuple) ->
      Printf.sprintf "%s %d %d"
        (Value.to_display (Tuple.get r.Propagate.tuple 0))
        (List.length r.Propagate.anns.(0))
        (List.length r.Propagate.anns.(1)))
    (rows_of db "SELECT gid, gs FROM gene ANNOTATION(notes) ORDER BY gid").Propagate.rows

let test_on_select_refuses clause select () =
  in_each_engine on_select_gene (fun db what ->
      List.iter
        (fun stmt ->
          let sql = Printf.sprintf "%s ON (%s)" stmt select in
          match Db.exec db sql with
          | Ok _ -> Alcotest.failf "%s: %s was accepted" what sql
          | Error e ->
              checkb
                (Printf.sprintf "%s: the error names %s (%s)" what clause e)
                true (contains e clause))
        [
          "ADD ANNOTATION TO gene.notes VALUE 'v'";
          "ARCHIVE ANNOTATION FROM gene.notes";
          "RESTORE ANNOTATION FROM gene.notes";
        ];
      Alcotest.(check (list string))
        (what ^ ": nothing annotated") [ "a 0 0"; "b 0 0"; "c 0 0" ] (annotations_per_cell db))

let on_select_clauses =
  [
    ("DISTINCT", "SELECT DISTINCT gs FROM gene WHERE gid > 'a'");
    ("GROUP BY", "SELECT gs FROM gene WHERE gid > 'a' GROUP BY gs");
    ("HAVING", "SELECT gs FROM gene GROUP BY gs HAVING gs = 'ATG'");
    ("AWHERE", "SELECT gs FROM gene WHERE gid > 'a' AWHERE ANN CONTAINS 'x'");
    ("AHAVING", "SELECT gs FROM gene GROUP BY gs AHAVING ANN CONTAINS 'x'");
    ("FILTER", "SELECT gs FROM gene WHERE gid > 'a' FILTER ANN CONTAINS 'x'");
    ("ORDER BY", "SELECT gs FROM gene WHERE gid > 'a' ORDER BY gid");
    ("LIMIT", "SELECT gs FROM gene WHERE gid > 'a' LIMIT 1");
    ("OFFSET", "SELECT gs FROM gene WHERE gid > 'a' OFFSET 1");
  ]

(* An ON (SELECT ...) that selects no row adds nothing, as ON (UPDATE ...)
   does, and the next annotation gets the id it would have had. *)
let test_on_select_empty () =
  in_each_engine on_select_gene (fun db what ->
      let msg sql =
        match Db.exec_exn db sql with
        | Executor.Message m -> m
        | _ -> Alcotest.failf "%s: no message from %s" what sql
      in
      Alcotest.(check string)
        (what ^ ": empty selection")
        "0 rows selected, no annotation added"
        (msg "ADD ANNOTATION TO gene.notes VALUE 'v' ON (SELECT gs FROM gene WHERE gid = 'zz')");
      Alcotest.(check (list string))
        (what ^ ": nothing annotated") [ "a 0 0"; "b 0 0"; "c 0 0" ] (annotations_per_cell db);
      let fresh = Db.create () in
      List.iter (fun sql -> ignore (Db.exec_exn fresh sql)) on_select_gene;
      let add = "ADD ANNOTATION TO gene.notes VALUE 'w' ON (SELECT gs FROM gene WHERE gid = 'b')" in
      let want =
        match Db.exec_exn fresh add with
        | Executor.Message m -> m
        | _ -> Alcotest.fail "no message"
      in
      Db.close fresh;
      Alcotest.(check string) (what ^ ": next annotation id unchanged") want (msg add))

(* An ON (SELECT ...) resolves names as that SELECT does: [g.gid] under
   the alias [g] qualifies a column, and [gene.gid] under the alias is
   refused with the SELECT's own error. *)
let test_on_select_resolves_like_select () =
  in_each_engine
    [
      "CREATE TABLE gene (gid TEXT, gs DNA)";
      "INSERT INTO gene VALUES ('a', 'ATG'), ('b', 'ATGAAA')";
      "CREATE ANNOTATION TABLE notes ON gene";
    ]
    (fun db what ->
      ignore
        (Db.exec_exn db
           "ADD ANNOTATION TO gene.notes VALUE 'aliased' \
            ON (SELECT g.gs FROM gene g WHERE g.gid = 'a')");
      Alcotest.(check (list string))
        (what ^ ": annotations per cell")
        [ "a 0 1"; "b 0 0" ]
        (List.map
           (fun (r : Propagate.atuple) ->
             Printf.sprintf "%s %d %d"
               (Value.to_display (Tuple.get r.Propagate.tuple 0))
               (List.length r.Propagate.anns.(0))
               (List.length r.Propagate.anns.(1)))
           (rows_of db "SELECT gid, gs FROM gene ANNOTATION(notes) ORDER BY gid")
             .Propagate.rows);
      let error sql =
        match Db.exec db sql with
        | Error e -> e
        | Ok _ -> Alcotest.failf "%s: expected an error from %s" what sql
      in
      let select = "SELECT g.gs FROM gene g WHERE gene.gid = 'a'" in
      let want = error select in
      List.iter
        (fun stmt ->
          Alcotest.(check string) (what ^ ": " ^ stmt) want
            (error (Printf.sprintf "%s ON (%s)" stmt select)))
        [
          "ADD ANNOTATION TO gene.notes VALUE 'x'";
          "ARCHIVE ANNOTATION FROM gene.notes";
          "RESTORE ANNOTATION FROM gene.notes";
        ])

(* DISAPPROVE of an INSERT deletes the row as DELETE does, so the cell
   derived from it is marked outdated the same way. *)
let test_disapprove_insert_marks_dependents () =
  let script =
    [
      "CREATE TABLE gene (gid INT, gs DNA)";
      "CREATE TABLE protein (pid INT, ps PROTEIN)";
      "START CONTENT APPROVAL ON gene APPROVED BY admin";
      "INSERT INTO gene VALUES (1, 'ATGGCCAAA')";
      "INSERT INTO protein VALUES (1, 'MAK')";
      "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
      "LINK DEPENDENCY r1 FROM (0) TO 0";
    ]
  in
  let outdated db =
    List.map
      (fun (r : Propagate.atuple) ->
        String.concat " | " (List.map Value.to_display (Array.to_list r.Propagate.tuple)))
      (rows_of db "SHOW OUTDATED protein").Propagate.rows
  in
  let marked_ps db =
    List.map
      (fun (r : Propagate.atuple) -> List.length r.Propagate.anns.(1))
      (rows_of db "SELECT pid, ps FROM protein").Propagate.rows
  in
  List.iter
    (fun undo ->
      in_each_engine (script @ [ undo ]) (fun db what ->
          let what = what ^ ", " ^ undo in
          Alcotest.(check (list string)) (what ^ ": outdated") [ "0 | ps" ] (outdated db);
          Alcotest.(check (list int)) (what ^ ": ps arrives marked") [ 1 ] (marked_ps db)))
    [ "DELETE FROM gene WHERE gid = 1"; "DISAPPROVE 1" ]

(* DISAPPROVE of a DELETE brings the row back, and the cell the delete
   marked outdated is derived from the restored row again. *)
let test_disapprove_delete_rederives () =
  in_each_engine
    [
      "CREATE TABLE gene (gid INT, gs DNA)";
      "CREATE TABLE protein (pid INT, ps PROTEIN)";
      "INSERT INTO gene VALUES (0, 'ATGGCCAAA')";
      "INSERT INTO protein VALUES (0, 'MK')";
      "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
      "LINK DEPENDENCY r1 FROM (0) TO 0";
      "START CONTENT APPROVAL ON gene APPROVED BY admin";
      "DELETE FROM gene WHERE gid = 0";
    ]
    (fun db what ->
      Alcotest.(check (list string))
        (what ^ ": the delete marks ps") [ "0 | ps" ]
        (List.map
           (fun (r : Propagate.atuple) ->
             String.concat " | " (List.map Value.to_display (Array.to_list r.Propagate.tuple)))
           (rows_of db "SHOW OUTDATED protein").Propagate.rows);
      ignore (Db.exec_exn db "DISAPPROVE 1");
      Alcotest.(check (list string))
        (what ^ ": the gene is back") [ "0" ] (first_column db "SELECT gid FROM gene");
      Alcotest.(check int)
        (what ^ ": nothing outdated") 0
        (List.length (rows_of db "SHOW OUTDATED protein").Propagate.rows);
      Alcotest.(check (list string))
        (what ^ ": ps derived from the restored gene") [ "MAK" ]
        (first_column db "SELECT ps FROM protein WHERE pid = 0"))

(* INT against REAL in a set operator: the output column is REAL and 2
   and 2.0 are one row, on both engines. *)
let test_set_operations_widen_int () =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE s (n INT, r REAL)";
      "INSERT INTO s VALUES (1, 2.0), (2, 2.5), (3, NULL), (NULL, 1.0)";
    ];
  let expect =
    [
      ("SELECT n FROM s UNION SELECT r FROM s", [ "1"; "2"; "3"; "NULL"; "2.5" ]);
      ("SELECT r FROM s UNION SELECT n FROM s", [ "2"; "2.5"; "NULL"; "1"; "3" ]);
      ("SELECT n FROM s INTERSECT SELECT r FROM s", [ "1"; "2"; "NULL" ]);
      ("SELECT n FROM s EXCEPT SELECT r FROM s", [ "3" ]);
    ]
  in
  List.iter
    (fun batch_rows ->
      Db.set_batch_rows db batch_rows;
      List.iter
        (fun (sql, rows) ->
          run_all_modes db ~ordered:true sql;
          let rs = rows_of db sql in
          let what = Printf.sprintf "batch_rows %d: %s" batch_rows sql in
          Alcotest.(check (list string))
            (what ^ ": REAL output") [ "FLOAT" ]
            (List.map (fun c -> Value.type_name c.Schema.ty) (Schema.columns rs.Propagate.schema));
          Alcotest.(check (list string)) what rows (first_column db sql))
        expect)
    [ 1; Bdbms_relation.Batch.default_rows ];
  Db.close db

(* DISAPPROVE of an INSERT, an UPDATE and a DELETE on an analyzed,
   indexed, dependency-linked table: after each inverse every index
   equals a scan and each analyzed table's statistics count its rows. *)
let test_disapprove_keeps_indexes_and_stats () =
  in_each_engine
    [
      "CREATE TABLE gene (gid INT, gs DNA)";
      "CREATE TABLE protein (pid INT, ps PROTEIN)";
      "INSERT INTO gene VALUES (0, 'ATGGCCAAA'), (1, 'ATGAAATAA')";
      "INSERT INTO protein VALUES (0, 'MAK'), (1, 'MK')";
      "CREATE DEPENDENCY r1 FROM gene.gs TO protein.ps USING P";
      "LINK DEPENDENCY r1 FROM (0) TO 0";
      "LINK DEPENDENCY r1 FROM (1) TO 1";
      "CREATE INDEX g_gid ON gene (gid)";
      "CREATE INDEX p_ps ON protein (ps)";
      "ANALYZE";
      "START CONTENT APPROVAL ON gene APPROVED BY admin";
      "INSERT INTO gene VALUES (2, 'ATGTGG')";
      "UPDATE gene SET gs = 'ATGTGGTGG' WHERE gid = 0";
      "DELETE FROM gene WHERE gid = 1";
    ]
    (fun db what ->
      let check ~after expect =
        let what = Printf.sprintf "%s, after %s" what after in
        Fixtures.check_indexes ~what (Db.context db);
        check_live_rows ~what db;
        List.iter
          (fun (sql, rows) -> Alcotest.(check (list string)) (what ^ ": " ^ sql) rows (first_column db sql))
          expect
      in
      check ~after:"the writes"
        [
          ("SELECT gid FROM gene WHERE gid = 2", [ "2" ]);
          ("SELECT pid FROM protein WHERE ps = 'MWW'", [ "0" ]);
          ("SELECT gid FROM gene WHERE gid = 1", []);
        ];
      ignore (Db.exec_exn db "DISAPPROVE 1");
      check ~after:"DISAPPROVE of the INSERT" [ ("SELECT gid FROM gene WHERE gid = 2", []) ];
      ignore (Db.exec_exn db "DISAPPROVE 2");
      check ~after:"DISAPPROVE of the UPDATE"
        [
          ("SELECT pid FROM protein WHERE ps = 'MAK'", [ "0" ]);
          ("SELECT pid FROM protein WHERE ps = 'MWW'", []);
        ];
      ignore (Db.exec_exn db "DISAPPROVE 3");
      check ~after:"DISAPPROVE of the DELETE" [ ("SELECT gid FROM gene WHERE gid = 1", [ "1" ]) ])

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
  (* the vectorized engine decodes column batches *)
  let d = diff_for db "SELECT id FROM T1 WHERE k > 2" in
  checkb "batches decoded" true (d.Stats.batches_decoded > 0);
  checki "no fallback on a plain query" 0 d.Stats.batch_fallbacks;
  (* annotated queries still count in [batch_fallbacks], but run the
     same batch pipeline *)
  let d = diff_for db "SELECT * FROM T1 ANNOTATION(notes) WHERE k < 5" in
  checkb "annotated query counted as fallback" true
    (d.Stats.batch_fallbacks > 0);
  checkb "annotated query decodes batches" true (d.Stats.batches_decoded > 0)

(* Every plain plan shape runs batched: block joins, sys.* views, and
   cost-reordered plans count no fallback and decode column batches.
   An annotated query runs batched too; [batch_fallbacks] counts it
   once, as the annotated SELECTs that attach envelopes. *)
let test_no_batch_fallbacks () =
  let batched db what sql =
    let d = diff_for db sql in
    checki (what ^ ": no fallback") 0 d.Stats.batch_fallbacks;
    checkb (what ^ ": batches decoded") true (d.Stats.batches_decoded > 0);
    d
  in
  let db = mk_db () in
  ignore
    (batched db "edge-less cross join"
       "SELECT a.k, b.k FROM T1 a, T2 b WHERE a.id < 5 AND b.id < 5");
  ignore
    (batched db "sys.metrics scan"
       "SELECT name, value FROM sys.metrics WHERE kind = 'counter'");
  ignore
    (batched db "sys view joined to a base table"
       "SELECT t.name, x.id FROM sys.tables t, T2 x WHERE x.id < 3");
  let d = diff_for db "SELECT id FROM T1 ANNOTATION(notes) WHERE k = 2" in
  checki "annotated query: one fallback" 1 d.Stats.batch_fallbacks;
  let db = Fixtures.skewed_join_db () in
  let d =
    batched db "permuted 3-way COUNT(*)"
      "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.id = c.b_id AND \
       c.sel = 0"
  in
  checki "plan was reordered" 1 d.Stats.plans_reordered;
  Db.close db

(* The decoded-tuple cache serves every path that reads through
   [Table.get]: index-probe candidates on the batch engine and the naive
   oracle's scans.  (Batch scans decode pages into column vectors by
   design, bypassing it.) *)
let test_decode_cache () =
  let db = mk_db () in
  (match Db.exec db "CREATE INDEX t1_k ON T1 (k)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "index: %s" e);
  ignore (rows_of db "SELECT * FROM T1 WHERE k = 3");
  let d = diff_for db "SELECT * FROM T1 WHERE k = 3" in
  checkb "repeated probe hits the index" true (d.Stats.index_probes > 0);
  checki "repeated probe decodes nothing" 0 d.Stats.tuples_decoded;
  Db.set_exec_mode db `Naive;
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

(* ------------------------------------------------ annotated queries *)

(* The fixture the annotated corpus relies on really annotates, the
   lookup really probes, and ANNOTATION(...) on a system view fails
   alike in both modes. *)
let test_annotated_fixture () =
  let db = mk_db () in
  let annotated_cols sql =
    List.concat_map
      (fun (r : Propagate.atuple) ->
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi (fun i c -> if c <> [] then Some i else None) r.Propagate.anns)))
      (rows_of db sql).Propagate.rows
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "both join sides annotated" [ 0; 1 ]
    (annotated_cols
       "SELECT a.id, b.id FROM T1 a ANNOTATION(notes), T2 b ANNOTATION(tags) \
        WHERE a.k = b.k AND a.k < 5 AND b.id < 10");
  Alcotest.(check (list int)) "only O's derived cells are marked" [ 2 ]
    (annotated_cols "SELECT * FROM O");
  checki "two outdated cells" 2
    (List.length
       (List.filter
          (fun (r : Propagate.atuple) -> r.Propagate.anns.(2) <> [])
          (rows_of db "SELECT * FROM O").Propagate.rows));
  let d = diff_for db "SELECT * FROM T2 ANNOTATION(tags) WHERE id = 7" in
  checkb "annotated lookup probes the index" true (d.Stats.index_probes > 0);
  let err mode =
    Db.set_exec_mode db mode;
    match Db.exec db "SELECT name FROM sys.metrics ANNOTATION(x)" with
    | Ok _ -> Alcotest.failf "%s: ANNOTATION on sys.metrics succeeded" (mode_name mode)
    | Error e -> e
  in
  let naive = err `Naive in
  let batch = err `Batch in
  Db.set_exec_mode db `Batch;
  Alcotest.(check string) "same error in both modes" naive batch;
  checkb "names the system view" true (contains batch "system view")

(* A cost-reordered 3-way plan with an annotated source: the batch
   engine restores FROM order before attaching envelopes. *)
let test_annotated_reordered () =
  let db = Fixtures.skewed_join_db () in
  ignore (Db.exec_exn db "CREATE ANNOTATION TABLE an ON a");
  ignore
    (Db.exec_exn db "ADD ANNOTATION TO a.an VALUE 'k1' ON (SELECT pad FROM a WHERE k = 1)");
  let sql =
    "SELECT a.pad, b.id, c.b_id FROM a ANNOTATION(an), b, c \
     WHERE a.k = b.k AND b.id = c.b_id AND c.sel = 0"
  in
  let d = diff_for db sql in
  checki "plan was reordered" 1 d.Stats.plans_reordered;
  run_all_modes db ~ordered:false sql;
  Db.set_batch_rows db 1;
  run_all_modes db ~ordered:false sql;
  Db.close db

(* An annotated query builds one envelope per row its pipeline returns,
   not one per scanned row of every source. *)
let test_envelopes_per_row () =
  let db = mk_db () in
  let check what sql =
    let before = Db.io_stats db in
    let rs = rows_of db sql in
    let d = Stats.diff ~after:(Db.io_stats db) ~before in
    checki (what ^ ": envelopes = rows returned") (Propagate.row_count rs)
      d.Stats.ann_envelopes;
    d
  in
  ignore (check "filtered scan" "SELECT * FROM T1 ANNOTATION(notes) WHERE k < 5");
  let d =
    check "hash join"
      "SELECT a.id, b.id FROM T1 a ANNOTATION(notes), T2 b WHERE a.k = b.k"
  in
  checkb "hash join ran" true (d.Stats.hash_builds > 0);
  ignore (check "plain SELECT over outdated cells" "SELECT * FROM O WHERE id < 3")

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
  (* an annotated query records the same shape, under its RESULT node *)
  let asql = "SELECT id FROM T1 ANNOTATION(notes) WHERE k = 2" in
  let root, rs, _ = analyze db asql in
  checki "annotated root actuals" (Propagate.row_count rs)
    (find_node root "RESULT").Analyze.actual_rows;
  checkb "annotated tree keeps the scan" true
    ((find_node root "SCAN T1").Analyze.actual_rows > 0)

(* Sweep: on every fixed query without LIMIT/OFFSET, both engines'
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
          [ `Naive; `Batch ]
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

(* The tail's nodes, root first: the chain of first children down to the
   top of the scan/join pipeline. *)
let tail_chain (root : Analyze.node) =
  let pipeline l =
    List.exists
      (fun p ->
        String.length l >= String.length p
        && String.sub l 0 (String.length p) = p)
      [ "SCAN"; "INDEX SCAN"; "WHERE"; "HASH JOIN"; "BLOCK"; "POST-JOIN" ]
  in
  let rec go (n : Analyze.node) =
    if pipeline n.Analyze.label then []
    else
      n
      :: (match n.Analyze.children with c :: _ -> go c | [] -> [])
  in
  go root

(* EXPLAIN ANALYZE over the plain tail: each shape prints its operator
   labels, every tail node records the rows it produced, and the root
   accounts for exactly the rows returned. *)
let test_analyze_tail () =
  let db = mk_db () in
  List.iter
    (fun (sql, expect) ->
      List.iter
        (fun batch_rows ->
          Db.set_batch_rows db batch_rows;
          let root, rs, _ = analyze db sql in
          let chain = tail_chain root in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "tail nodes and rows (batch_rows %d): %s" batch_rows
               sql)
            expect
            (List.map
               (fun (n : Analyze.node) -> (n.Analyze.label, n.Analyze.actual_rows))
               chain);
          List.iter
            (fun (n : Analyze.node) ->
              checki ("one loop at " ^ n.Analyze.label) 1 n.Analyze.loops)
            chain;
          checki ("root = returned rows: " ^ sql) (Propagate.row_count rs)
            root.Analyze.actual_rows)
        [ 1; Bdbms_relation.Batch.default_rows ])
    [
      ( "SELECT COUNT(*) AS n, SUM(k) AS s FROM T1 WHERE k > 2",
        [ ("PROJECT (2 items)", 1); ("AGGREGATE", 1) ] );
      ( "SELECT k, COUNT(*) AS n FROM T1 GROUP BY k",
        [ ("PROJECT (2 items)", 10); ("GROUP BY k", 10) ] );
      ( "SELECT id, k FROM T1 ORDER BY k DESC, id LIMIT 5",
        [ ("PROJECT (2 items)", 5); ("TOP-K (k=5)", 5) ] );
      ( "SELECT id FROM T1 ORDER BY v, id",
        [ ("PROJECT (1 items)", t1_rows); ("SORT", t1_rows) ] );
      ( "SELECT DISTINCT k FROM T1",
        [ ("DISTINCT", 10); ("PROJECT (1 items)", t1_rows) ] );
    ]

(* ------------------------------------------------------ EXPLAIN tree *)

let parse_query sql =
  match Bdbms_asql.Parser.parse sql with
  | Ok (Bdbms_asql.Ast.Query q) -> q
  | Ok _ -> Alcotest.failf "not a query: %s" sql
  | Error e -> Alcotest.failf "%s -- for: %s" e sql

let explain_tree db sql =
  Executor.explain_query (Db.context db) ~user:"admin" (parse_query sql)

(* The fixed corpus plus the compound, ungrouped-aggregate, ORDER BY ...
   LIMIT and DISTINCT ... ORDER BY shapes it lacks. *)
let explain_corpus =
  fixed_ordered @ fixed_unordered
  @ [
      "SELECT id FROM T1 WHERE k < 3 UNION SELECT id FROM T2 WHERE k < 3";
      "SELECT k FROM T1 INTERSECT SELECT k FROM T2 WHERE id < 20";
      "SELECT id FROM T1 ANNOTATION(notes) WHERE k = 2 EXCEPT SELECT id FROM T2";
      "SELECT COUNT(*) FROM T1";
      "SELECT id, k FROM T1 ORDER BY k DESC, id LIMIT 5";
      "SELECT k, COUNT(*) AS n FROM T1 GROUP BY k ORDER BY n DESC LIMIT 2";
      "SELECT DISTINCT k FROM T1 ORDER BY id DESC LIMIT 4";
      "SELECT DISTINCT v, k FROM T1 ORDER BY f, id LIMIT 7 OFFSET 1";
      "SELECT * FROM T2 WHERE id = 7";
      "SELECT a.id, b.w FROM T1 a, T2 b WHERE a.k = b.k AND b.id = 3";
    ]

(* EXPLAIN prints the tree EXPLAIN ANALYZE meters: node by node, the same
   label, estimated rows and pages, estimate source and child order. *)
let test_explain_is_analyze_tree () =
  let db = mk_db () in
  let num x = Printf.sprintf "%.17g" x in
  let rec same sql (e : Analyze.node) (a : Analyze.node) =
    let at what = Printf.sprintf "%s at %s: %s" what e.Analyze.label sql in
    Alcotest.(check string) (at "label") e.Analyze.label a.Analyze.label;
    Alcotest.(check string) (at "est rows") (num e.Analyze.est_rows)
      (num a.Analyze.est_rows);
    Alcotest.(check string) (at "est pages") (num e.Analyze.est_pages)
      (num a.Analyze.est_pages);
    Alcotest.(check (option string)) (at "est src") e.Analyze.est_src
      a.Analyze.est_src;
    checki (at "children") (List.length e.Analyze.children)
      (List.length a.Analyze.children);
    List.iter2 (same sql) e.Analyze.children a.Analyze.children
  in
  List.iter
    (fun batch_rows ->
      Db.set_batch_rows db batch_rows;
      List.iter
        (fun sql ->
          let expected = explain_tree db sql in
          let root, _, _ = analyze db sql in
          same sql expected root)
        explain_corpus)
    [ 1; Bdbms_relation.Batch.default_rows ]

(* EXPLAIN does no work: over the whole corpus it decodes nothing, probes
   and builds nothing, and an index no query has used yet stays
   unbuilt. *)
let test_explain_does_no_work () =
  let db = mk_db () in
  (* a reopened database's indexes start unbuilt, rebuilt at first probe *)
  let idx = Hashtbl.find (Db.context db).Bdbms_asql.Context.indexes "t2_id" in
  idx.Bdbms_asql.Context.tree <- None;
  checkb "the corpus probes the index" true
    (contains (Db.render_exn db "EXPLAIN SELECT * FROM T2 WHERE id = 7")
       "INDEX SCAN T2 via t2_id(id)");
  let before = Db.io_stats db in
  List.iter (fun sql -> ignore (Db.exec_exn db ("EXPLAIN " ^ sql))) explain_corpus;
  let d = Stats.diff ~after:(Db.io_stats db) ~before in
  checki "tuples decoded" 0 d.Stats.tuples_decoded;
  checki "batches decoded" 0 d.Stats.batches_decoded;
  checki "index probes" 0 d.Stats.index_probes;
  checki "hash builds" 0 d.Stats.hash_builds;
  checkb "index still unbuilt" true (idx.Bdbms_asql.Context.tree = None)

(* Join and group keys of one column are the column's own key, of two
   or more a framed concatenation; both engines must agree on every
   equality the keys encode: 1 = 1.0, -0.0 = 0.0, TEXT against DNA
   content, and NULL, which never joins but groups as one value. *)
let test_join_group_keys () =
  let db = Db.create ~page_size:1024 ~pool_pages:64 () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE L (i INT, f FLOAT, s TEXT, d DNA)";
      "CREATE TABLE R (i INT, f FLOAT, s TEXT, d DNA)";
      "INSERT INTO L VALUES (1, 1.0, 'ACGT', 'ACGT'), (0, -0.0, 'AC', 'AC'), \
       (NULL, NULL, NULL, NULL), (2, 0.0, 'G', 'G'), (1, 2.5, 'ACGT', 'TT'), \
       (NULL, 1.0, 'x', NULL)";
      "INSERT INTO R VALUES (1, 1.0, 'TT', 'ACGT'), (0, 0.0, 'AC', 'AC'), \
       (NULL, NULL, NULL, NULL), (3, -0.0, 'G', 'G'), (2, 2.0, 'x', NULL)";
    ];
  let joins =
    [
      (* INT against FLOAT: 1 = 1.0, 0 = 0.0 and 0 = -0.0, 2 = 2.0 *)
      ("SELECT L.i, R.f FROM L, R WHERE L.i = R.f", 5);
      (* -0.0 = 0.0 both ways; NULL never joins *)
      ("SELECT L.f, R.f FROM L, R WHERE L.f = R.f", 6);
      (* TEXT against DNA content *)
      ("SELECT L.s, R.d FROM L, R WHERE L.s = R.d", 4);
      ("SELECT L.d, R.s FROM L, R WHERE L.d = R.s", 3);
      (* two columns: both must match *)
      ("SELECT L.i, L.s, R.f FROM L, R WHERE L.i = R.f AND L.s = R.d", 3);
      ("SELECT L.f, R.i FROM L, R WHERE L.f = R.f AND L.d = R.s", 2);
    ]
  in
  let groups =
    [
      (* -0.0 and 0.0 group once; NULL is one group *)
      ("SELECT f, COUNT(*) AS n FROM L GROUP BY f", 4);
      ("SELECT d, COUNT(*) AS n FROM L GROUP BY d", 5);
      ("SELECT i, s, COUNT(*) AS n FROM L GROUP BY i, s", 5);
      ("SELECT DISTINCT f FROM R", 4);
      ("SELECT DISTINCT i, s FROM L", 5);
      (* boxed join-output cells: -0.0 and 0.0 key alike *)
      ("SELECT DISTINCT R.f FROM L, R WHERE L.i = R.f", 3);
      ("SELECT L.s, COUNT(*) AS n FROM L, R WHERE L.s = R.d GROUP BY L.s", 3);
    ]
  in
  List.iter
    (fun batch_rows ->
      Db.set_batch_rows db batch_rows;
      List.iter
        (fun (sql, n) ->
          run_all_modes db ~ordered:false sql;
          Db.set_exec_mode db `Batch;
          let d = diff_for db sql in
          checki (Printf.sprintf "batch_rows %d: rows of %s" batch_rows sql) n
            (Propagate.row_count (rows_of db sql));
          if List.mem_assoc sql joins then
            checkb ("hash join ran: " ^ sql) true (d.Stats.hash_builds > 0))
        (joins @ groups))
    [ 1; Bdbms_relation.Batch.default_rows ]

(* ------------------------------------- batch representation properties *)

module Batch = Bdbms_relation.Batch
module Expr = Bdbms_relation.Expr
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
   references built from [Value.hash_key]. *)
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
    (* reference: each column's [Value.hash_key], length-prefixed *)
    let ref_join_key t =
      List.fold_left
        (fun acc i ->
          match (acc, Value.hash_key (Tuple.get t i)) with
          | Some acc, Some k ->
              Some (acc ^ string_of_int (String.length k) ^ ":" ^ k)
          | _ -> None)
        (Some "") cols
    in
    List.iteri
      (fun i t ->
        checkb "join_key matches the Value.hash_key reference" true
          (Batch.join_key batch i cols = ref_join_key t);
        (* one column: its own key, no length prefix *)
        Array.iteri
          (fun col v ->
            checkb "one-column join_key is the column's hash_key" true
              (Batch.join_key batch i [ col ] = Value.hash_key v);
            checkb "one-column group_key is the value's group_key" true
              (Batch.group_key batch i [| col |] = Value.group_key v
              && Tuple.group_key [| v |] = Value.group_key v))
          t;
        checkb "group_key matches Tuple.group_key" true
          (Batch.group_key batch i (Array.of_list cols)
          = Tuple.group_key (Array.of_list (List.map (Tuple.get t) cols)));
        checkb "whole-row group_key matches" true
          (Batch.group_key batch i (Array.init (Array.length t) Fun.id)
          = Tuple.group_key t))
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
(* The batch dictionary: strings reach it through both [append_span]
   (a page span) and [append_tuple] (a boxed value), over TEXT, DNA and
   PROTEIN columns alike, with duplicates, empty and multi-KB strings and
   more than 1,024 distinct values, so the table grows several times.
   Every cell reads back its source string, and two cells hold equal ids
   exactly when their strings are equal. *)
let seq_schema =
  Schema.make
    [
      { Schema.name = "t"; ty = Value.TString };
      { Schema.name = "d"; ty = Value.TDna };
      { Schema.name = "p"; ty = Value.TProtein };
    ]

let test_dictionary_ids () =
  let st = Random.State.make [| 0xd1; 0xc7 |] in
  let layout = Batch.layout_of_schema seq_schema in
  let pick_string () =
    match Random.State.int st 10 with
    | 0 -> ""
    | 1 -> String.make (1024 + Random.State.int st 4096) "ACGT".[Random.State.int st 4]
    | 2 | 3 -> Printf.sprintf "dup%d" (Random.State.int st 8)
    | _ -> Printf.sprintf "ACGT%d" (Random.State.int st 100_000)
  in
  for round = 1 to 4 do
    let n = 200 + (round * 150) in
    let b = Batch.builder ~cap:n seq_schema layout in
    let rows =
      Array.init n (fun _ ->
          [| Value.VString (pick_string ()); Value.VDna (pick_string ());
             Value.VProtein (pick_string ()) |])
    in
    Array.iter
      (fun t ->
        if Random.State.bool st then Batch.append_tuple b t
        else
          (* embed the record mid-buffer so the span's offset matters *)
          let payload = Tuple.encode t in
          let pad = Random.State.int st 9 in
          let buf = Bytes.make (pad + String.length payload + 3) '#' in
          Bytes.blit_string payload 0 buf pad (String.length payload);
          Batch.append_span b buf ~pos:pad ~len:(String.length payload))
      rows;
    let batch = Batch.finish b in
    let id_of = Hashtbl.create 1024 and str_of = Hashtbl.create 1024 in
    Array.iteri
      (fun r t ->
        Array.iteri
          (fun c v ->
            let src = Value.as_string v in
            let id =
              match batch.Batch.cols.(c).Batch.data with
              | Batch.DStr ids -> ids.(r)
              | _ -> Alcotest.fail "string column is not dictionary-coded"
            in
            checkb "dict.(ids.(r)) is the source string" true
              (batch.Batch.dict.(id) = src);
            (match Hashtbl.find_opt id_of src with
            | Some id' -> checki "equal strings share an id" id' id
            | None -> Hashtbl.add id_of src id);
            match Hashtbl.find_opt str_of id with
            | Some s' -> checkb "equal ids hold equal strings" true (s' = src)
            | None -> Hashtbl.add str_of id src)
          t)
      rows;
    checki "one dictionary entry per distinct string" (Hashtbl.length id_of)
      (Array.length batch.Batch.dict);
    if round = 4 then
      checkb "more than 1,024 distinct strings in one batch" true
        (Hashtbl.length id_of > 1024)
  done

(* Minor-heap words per decoded row of a unique TEXT column: a new
   string costs its own copy (3 words for an 8-byte gid) plus the
   table's amortized doubling, and the decode loop allocates nothing
   else.  The bound is deterministic (allocation, not time): this
   decoder reads 4.5 words a row, the [Hashtbl]-backed dictionary it
   replaced 41.3 (bucket cells, probe lists and per-row closures). *)
let test_dictionary_minor_words () =
  let schema = Schema.make [ { Schema.name = "gid"; ty = Value.TString } ] in
  let layout = Batch.layout_of_schema schema in
  let n = Batch.default_rows in
  let payloads =
    Array.init n (fun i -> Tuple.encode [| Value.VString (Printf.sprintf "G%07d" i) |])
  in
  let buf = Bytes.of_string (String.concat "" (Array.to_list payloads)) in
  let decode () =
    let b = Batch.builder ~cap:n schema layout in
    let pos = ref 0 in
    Array.iter
      (fun p ->
        let len = String.length p in
        Batch.append_span b buf ~pos:!pos ~len;
        pos := !pos + len)
      payloads;
    Batch.finish b
  in
  ignore (decode ());
  let before = Gc.minor_words () in
  let batch = decode () in
  let per_row = (Gc.minor_words () -. before) /. float_of_int n in
  checki "every gid interned" n (Array.length batch.Batch.dict);
  checkb (Printf.sprintf "%.1f minor words per unique TEXT row <= 8" per_row) true
    (per_row <= 8.0)

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

(* The materialized algebra and the batch drain on 1M rows, under an
   8 MiB stack (OCaml 5's default allows 1 GiB, which would hide a
   non-tail-recursive list walk of this length). *)
let big_n = 1_000_000

let big_schema =
  Schema.make
    [ { Schema.name = "x"; ty = Value.TInt }; { Schema.name = "g"; ty = Value.TInt } ]

let big_rows =
  lazy (Array.init big_n (fun i -> Tuple.make [ Value.VInt i; Value.VInt (i mod 3) ]))

let on_big_rows f () =
  let ars = Propagate.of_rows big_schema (Array.to_list (Lazy.force big_rows)) in
  let gc = Gc.get () in
  Gc.set { gc with Gc.stack_limit = 1 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set gc) (fun () -> f ars)

let test_limit_stack_safety =
  on_big_rows (fun ars ->
      checki "propagate limit big" (big_n - 1)
        (Propagate.row_count (Propagate.limit ars (big_n - 1))))

let test_group_by_stack_safety =
  on_big_rows (fun ars ->
      let module Expr = Bdbms_relation.Expr in
      let grouped =
        Propagate.group_by ars ~keys:[ "g" ]
          ~aggs:[ (Expr.Count_star, "c"); (Expr.Sum "x", "s") ]
      in
      Alcotest.(check (list string))
        "three groups"
        [
          "0 | 333334 | 166666833333";
          "1 | 333333 | 166666166667";
          "2 | 333333 | 166666500000";
        ]
        (List.map
           (fun (at : Propagate.atuple) -> Tuple.to_display at.Propagate.tuple)
           grouped.Propagate.rows);
      checki "global" 1
        (Propagate.row_count
           (Propagate.group_by ars ~keys:[] ~aggs:[ (Expr.Count "x", "c") ])))

let test_distinct_stack_safety =
  on_big_rows (fun ars ->
      checki "distinct rows" big_n (Propagate.row_count (Propagate.distinct ars));
      checki "distinct keys" 3
        (Propagate.row_count (Propagate.distinct (Propagate.project ars [ "g" ]))))

let test_extend_project_stack_safety =
  on_big_rows (fun ars ->
      let module Expr = Bdbms_relation.Expr in
      let ext =
        Propagate.extend ars ~name:"y" ~ty:Value.TInt
          (Expr.Arith (Expr.Add, Expr.Col "x", Expr.Lit (Value.VInt 1)))
      in
      checki "extend" big_n (Propagate.row_count ext);
      checki "project" big_n (Propagate.row_count (Propagate.project ext [ "y"; "g" ])))

let test_drain_stack_safety =
  on_big_rows (fun _ ->
      let module Vexec = Bdbms_asql.Vexec in
      checki "drain" big_n
        (List.length
           (Vexec.drain (Vexec.of_tuples big_schema (Lazy.force big_rows)))))

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
          Alcotest.test_case "annotated fixture" `Quick test_annotated_fixture;
          Alcotest.test_case "annotated reordered 3-way" `Quick
            test_annotated_reordered;
          Alcotest.test_case "join and group keys" `Quick test_join_group_keys;
        ] );
      ( "batch-tail",
        [
          Alcotest.test_case "tail shapes" `Quick test_tail_shapes;
          Alcotest.test_case "limit stops decoding" `Quick
            test_limit_stops_decoding;
          Alcotest.test_case "top-k is a stable sort prefix" `Quick
            test_top_k_stable;
          Alcotest.test_case "negative zero groups once" `Quick
            test_negative_zero_groups;
          Alcotest.test_case "computed columns in set operations" `Quick
            test_computed_set_operations;
          Alcotest.test_case "set operations widen INT against REAL" `Quick
            test_set_operations_widen_int;
          Alcotest.test_case "ORDER BY names an output alias" `Quick
            test_order_by_output_alias;
          Alcotest.test_case "DISAPPROVE re-derives behind an index" `Quick
            test_disapprove_rederives_behind_index;
          Alcotest.test_case "an alias shadows an input column" `Quick
            test_alias_shadows_input;
        ] );
      ( "write-path",
        [
          Alcotest.test_case "index oracle over the write corpus" `Quick
            test_write_path_corpus;
          Alcotest.test_case "ON (DELETE) log keeps its index" `Quick test_deleted_log_index;
          Alcotest.test_case "a write selects the rows its WHERE selects" `Quick
            test_write_selects_where_rows;
          Alcotest.test_case "ON (SELECT) resolves names as its SELECT does" `Quick
            test_on_select_resolves_like_select;
          Alcotest.test_case "DISAPPROVE of an INSERT marks dependents" `Quick
            test_disapprove_insert_marks_dependents;
          Alcotest.test_case "DISAPPROVE of a DELETE re-derives dependents" `Quick
            test_disapprove_delete_rederives;
          Alcotest.test_case "DISAPPROVE keeps indexes and stats" `Quick
            test_disapprove_keeps_indexes_and_stats;
          Alcotest.test_case "ON (SELECT) that selects no row adds nothing" `Quick
            test_on_select_empty;
        ]
        @ List.map
            (fun (clause, select) ->
              Alcotest.test_case
                (Printf.sprintf "ON (SELECT) refuses %s" clause)
                `Quick
                (test_on_select_refuses clause select))
            on_select_clauses );
      ( "batch-representation",
        [
          Alcotest.test_case "selection vectors and round-trips" `Quick
            test_batch_properties;
          Alcotest.test_case "compiled predicates" `Quick
            test_compiled_predicates;
          Alcotest.test_case "dictionary ids" `Quick test_dictionary_ids;
          Alcotest.test_case "dictionary minor words" `Quick
            test_dictionary_minor_words;
        ] );
      ( "observability",
        [
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "decode cache" `Quick test_decode_cache;
          Alcotest.test_case "no batch fallbacks" `Quick test_no_batch_fallbacks;
          Alcotest.test_case "one envelope per returned row" `Quick
            test_envelopes_per_row;
        ] );
      ( "explain-analyze",
        [
          Alcotest.test_case "per-node actuals" `Quick test_analyze_actuals;
          Alcotest.test_case "differential sweep" `Quick
            test_analyze_differential_sweep;
          Alcotest.test_case "statement rendering" `Quick test_analyze_statement;
          Alcotest.test_case "tail nodes" `Quick test_analyze_tail;
          Alcotest.test_case "EXPLAIN prints the metered tree" `Quick
            test_explain_is_analyze_tree;
          Alcotest.test_case "EXPLAIN does no work" `Quick
            test_explain_does_no_work;
        ] );
      ( "stack-safety",
        [
          Alcotest.test_case "limit on 1M rows" `Quick test_limit_stack_safety;
          Alcotest.test_case "group by on 1M rows" `Quick test_group_by_stack_safety;
          Alcotest.test_case "distinct on 1M rows" `Quick test_distinct_stack_safety;
          Alcotest.test_case "extend and project on 1M rows" `Quick
            test_extend_project_stack_safety;
          Alcotest.test_case "batch drain on 1M rows" `Quick test_drain_stack_safety;
        ] );
    ]
