(* End-to-end tests for the A-SQL front end: parser + executor over the
   full engine, replaying the paper's examples as SQL text. *)

open Bdbms_asql
module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Propagate = Bdbms_annotation.Propagate
module Ann = Bdbms_annotation.Ann
module Procedure = Bdbms_dependency.Procedure
module Approval = Bdbms_auth.Approval

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let run ctx ~user sql = Result.bind (Parser.parse sql) (Executor.execute ctx ~user)

let exec ?(user = "admin") ctx sql =
  match run ctx ~user sql with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "%s -- for: %s" e sql

let exec_err ?(user = "admin") ctx sql =
  match run ctx ~user sql with
  | Ok _ -> Alcotest.failf "expected an error for: %s" sql
  | Error e -> e

let rows_of ?(user = "admin") ctx sql =
  match exec ~user ctx sql with
  | Executor.Rows rs -> rs
  | _ -> Alcotest.failf "expected rows for: %s" sql

let count_of ?(user = "admin") ctx sql =
  match exec ~user ctx sql with
  | Executor.Count { affected; _ } -> affected
  | _ -> Alcotest.failf "expected a count for: %s" sql

let script ?(user = "admin") ctx sql =
  match Parser.parse_script sql with
  | Error e -> Alcotest.failf "%s -- in script" e
  | Ok stmts ->
      List.iter
        (fun (text, stmt) ->
          match Executor.execute ctx ~user stmt with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s -- in script at: %s" e text)
        stmts

let mk_ctx () = Context.create ~page_size:1024 ~pool_pages:128 ()

(* set up the paper's two gene tables with annotations, in pure A-SQL *)
let setup_genes ctx =
  script ctx
    {|
    CREATE TABLE DB1_Gene (GID TEXT, GName TEXT, GSequence DNA);
    CREATE TABLE DB2_Gene (GID TEXT, GName TEXT, GSequence DNA);
    INSERT INTO DB1_Gene VALUES
      ('JW0080', 'mraW', 'ATGATGGAAAA'),
      ('JW0082', 'ftsI', 'ATGAAAGCAGC'),
      ('JW0055', 'yabP', 'ATGAAAGTATC'),
      ('JW0078', 'fruR', 'GTGAAACTGGA');
    INSERT INTO DB2_Gene VALUES
      ('JW0080', 'mraW', 'ATGATGGAAAA'),
      ('JW0041', 'fixB', 'ATGAACACGTT'),
      ('JW0037', 'caiB', 'ATGGATCATCT'),
      ('JW0027', 'ispH', 'ATGCAGATCCT'),
      ('JW0055', 'yabP', 'ATGAAAGTATC');
    CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene;
    CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene;
    |};
  (* paper's B3: annotate the entire GSequence column of DB2_Gene *)
  ignore
    (exec ctx
       "ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE 'obtained from GenoBase' ON (SELECT GSequence FROM DB2_Gene)");
  (* B5: annotate the whole JW0080 tuple *)
  ignore
    (exec ctx
       "ADD ANNOTATION TO DB2_Gene.GAnnotation VALUE 'This gene has an unknown function' ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')");
  (* A2 on DB1 *)
  ignore
    (exec ctx
       "ADD ANNOTATION TO DB1_Gene.GAnnotation VALUE 'These genes were obtained from RegulonDB' ON (SELECT * FROM DB1_Gene)")

(* ------------------------------------------------------------- basic SQL *)

let test_create_insert_select () =
  let ctx = mk_ctx () in
  script ctx
    "CREATE TABLE Gene (GID TEXT, len INT); INSERT INTO Gene VALUES ('a', 10), ('b', 20), ('c', 30);";
  let rs = rows_of ctx "SELECT GID FROM Gene WHERE len > 15 ORDER BY GID DESC" in
  checki "rows" 2 (Propagate.row_count rs);
  checks "first" "c" (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  (* expressions, aliases, limit *)
  let rs2 = rows_of ctx "SELECT GID, len * 2 AS doubled FROM Gene ORDER BY len LIMIT 1" in
  checki "one row" 1 (Propagate.row_count rs2);
  checks "computed" "20"
    (Value.to_display (Tuple.get (List.hd rs2.Propagate.rows).Propagate.tuple 1))

let test_update_delete () =
  let ctx = mk_ctx () in
  script ctx "CREATE TABLE T (k TEXT, v INT); INSERT INTO T VALUES ('a', 1), ('b', 2);";
  checki "updated" 1 (count_of ctx "UPDATE T SET v = 10 WHERE k = 'a'");
  let rs = rows_of ctx "SELECT v FROM T WHERE k = 'a'" in
  checks "new value" "10"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  checki "deleted" 1 (count_of ctx "DELETE FROM T WHERE k = 'b'");
  checki "remaining" 1 (Propagate.row_count (rows_of ctx "SELECT * FROM T"))

let test_group_by_having () =
  let ctx = mk_ctx () in
  script ctx
    "CREATE TABLE S (species TEXT, len INT); INSERT INTO S VALUES ('ecoli', 100), ('ecoli', 200), ('yeast', 50);";
  let rs =
    rows_of ctx
      "SELECT species, COUNT(*) AS n, AVG(len) AS mean FROM S GROUP BY species HAVING n > 1"
  in
  checki "one group" 1 (Propagate.row_count rs);
  let row = (List.hd rs.Propagate.rows).Propagate.tuple in
  checks "species" "ecoli" (Value.to_display (Tuple.get row 0));
  checks "count" "2" (Value.to_display (Tuple.get row 1));
  checks "mean" "150" (Value.to_display (Tuple.get row 2))

let test_join_with_aliases () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  let rs =
    rows_of ctx
      "SELECT a.GID, b.GName FROM DB1_Gene a, DB2_Gene b WHERE a.GID = b.GID ORDER BY a.GID"
  in
  checki "two common" 2 (Propagate.row_count rs);
  checks "first" "JW0055"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0))

let test_set_operators () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  let inter =
    rows_of ctx
      "SELECT GID FROM DB1_Gene INTERSECT SELECT GID FROM DB2_Gene"
  in
  checki "intersect" 2 (Propagate.row_count inter);
  let uni = rows_of ctx "SELECT GID FROM DB1_Gene UNION SELECT GID FROM DB2_Gene" in
  checki "union" 7 (Propagate.row_count uni);
  let exc = rows_of ctx "SELECT GID FROM DB1_Gene EXCEPT SELECT GID FROM DB2_Gene" in
  checki "except" 2 (Propagate.row_count exc)

let test_parse_errors () =
  let ctx = mk_ctx () in
  ignore (exec_err ctx "SELEKT * FROM x");
  ignore (exec_err ctx "SELECT FROM");
  ignore (exec_err ctx "SELECT * FROM NoSuchTable");
  ignore (exec_err ctx "INSERT INTO missing VALUES (1)");
  ignore (exec_err ctx "CREATE TABLE t (c NOTATYPE)")

(* Keywords match in any case, reserved words are refused as identifiers
   in any case with the word as written, and TRUE / FALSE / NULL are
   literals in any case. *)
let test_keywords_any_case () =
  let parse sql =
    match Parser.parse sql with
    | Ok st -> st
    | Error e -> Alcotest.failf "%s: %s" sql e
  in
  List.iter
    (fun sql ->
      checkb sql true
        (parse sql = parse "SELECT k FROM t WHERE k = 1 ORDER BY k DESC LIMIT 2"))
    [
      "select k from t where k = 1 order by k desc limit 2";
      "SeLeCt k FrOm t WhErE k = 1 OrDeR bY k DeSc LiMiT 2";
    ];
  List.iter
    (fun (sql, word) ->
      Alcotest.(check (result reject string))
        sql
        (Error ("unexpected keyword " ^ word))
        (Result.map ignore (Parser.parse sql)))
    [
      ("CREATE TABLE select (k INT)", "select");
      ("CREATE TABLE SeLeCt (k INT)", "SeLeCt");
      ("CREATE TABLE t (Where INT)", "Where");
      ("SELECT * FROM values", "values");
      ("SELECT * FROM aNN", "aNN");
    ];
  let ctx = mk_ctx () in
  ignore (exec ctx "CREATE TABLE b (x BOOL, y TEXT)");
  ignore (exec ctx "insert into b values (true, Null), (False, 'a'), (TRUE, nULL)");
  Alcotest.(check (list (list string)))
    "literals in any case"
    [ [ "true"; "NULL" ]; [ "false"; "a" ]; [ "true"; "NULL" ] ]
    (List.map
       (fun (r : Propagate.atuple) ->
         List.map (fun i -> Value.to_display (Tuple.get r.Propagate.tuple i)) [ 0; 1 ])
       (rows_of ctx "SELECT x, y FROM b").Propagate.rows);
  checki "IS null in any case" 2
    (Propagate.row_count (rows_of ctx "SELECT * FROM b WHERE y Is nUlL"))

(* ------------------------------------------------------------ annotations *)

let test_annotation_propagation_asql () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  (* the ANNOTATION operator propagates annotations with the answer *)
  let rs =
    rows_of ctx
      "SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'"
  in
  checki "one row" 1 (Propagate.row_count rs);
  let anns = Propagate.all_annotations (List.hd rs.Propagate.rows) in
  checki "two annotations" 2 (List.length anns);
  (* without the ANNOTATION operator nothing propagates *)
  let rs2 = rows_of ctx "SELECT GID FROM DB2_Gene WHERE GID = 'JW0080'" in
  checki "no annotations" 0
    (List.length (Propagate.all_annotations (List.hd rs2.Propagate.rows)))

let test_annotation_projection_semantics () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  (* projecting GID drops the GSequence-only annotation B3 *)
  let rs =
    rows_of ctx
      "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'"
  in
  let anns = Propagate.all_annotations (List.hd rs.Propagate.rows) in
  checki "only B5" 1 (List.length anns);
  checks "b5 text" "This gene has an unknown function" (Ann.body_text (List.hd anns));
  (* PROMOTE copies the sequence annotations onto GID before projection *)
  let rs2 =
    rows_of ctx
      "SELECT GID PROMOTE (GSequence) FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'"
  in
  let anns2 = Propagate.all_annotations (List.hd rs2.Propagate.rows) in
  checki "B5 + promoted B3" 2 (List.length anns2)

let test_awhere_filter_asql () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  (* AWHERE selects tuples by their annotations *)
  let rs =
    rows_of ctx
      "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) AWHERE ANN CONTAINS 'unknown function'"
  in
  checki "one gene" 1 (Propagate.row_count rs);
  checks "JW0080" "JW0080"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  (* FILTER keeps all tuples, drops non-matching annotations *)
  let rs2 =
    rows_of ctx
      "SELECT GID, GSequence FROM DB2_Gene ANNOTATION(GAnnotation) FILTER ANN CONTAINS 'GenoBase'"
  in
  checki "all five genes" 5 (Propagate.row_count rs2);
  List.iter
    (fun at ->
      List.iter
        (fun a -> checks "only genobase" "obtained from GenoBase" (Ann.body_text a))
        (Propagate.all_annotations at))
    rs2.Propagate.rows

let test_paper_intersect_with_annotations () =
  (* the paper's motivating example: one annotated INTERSECT replaces the
     3-statement workaround of Section 3 *)
  let ctx = mk_ctx () in
  setup_genes ctx;
  let rs =
    rows_of ctx
      "SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) INTERSECT SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)"
  in
  checki "two common genes" 2 (Propagate.row_count rs);
  let jw0080 =
    List.find
      (fun at -> Value.to_display (Tuple.get at.Propagate.tuple 0) = "JW0080")
      rs.Propagate.rows
  in
  let texts =
    List.sort_uniq compare (List.map Ann.body_text (Propagate.all_annotations jw0080))
  in
  (* annotations from BOTH sides arrive consolidated *)
  Alcotest.(check (list string)) "both sides"
    (List.sort compare
       [
         "obtained from GenoBase";
         "These genes were obtained from RegulonDB";
         "This gene has an unknown function";
       ])
    texts

let test_add_annotation_on_dml () =
  let ctx = mk_ctx () in
  script ctx
    "CREATE TABLE G (GID TEXT, GSequence DNA); CREATE ANNOTATION TABLE notes ON G;";
  (* insert-and-annotate in one command *)
  (match
     exec ctx
       "ADD ANNOTATION TO G.notes VALUE 'imported batch 7' ON (INSERT INTO G VALUES ('g1', 'ATG'), ('g2', 'CCC'))"
   with
  | Executor.Message m -> checkb "mentions insert" true (String.length m > 0)
  | _ -> Alcotest.fail "expected message");
  let rs = rows_of ctx "SELECT GID FROM G ANNOTATION(notes)" in
  checki "two rows" 2 (Propagate.row_count rs);
  List.iter
    (fun at -> checki "annotated" 1 (List.length (Propagate.all_annotations at)))
    rs.Propagate.rows;
  (* update-and-annotate *)
  ignore
    (exec ctx
       "ADD ANNOTATION TO G.notes VALUE 'sequence corrected' ON (UPDATE G SET GSequence = 'TTT' WHERE GID = 'g1')");
  let rs2 = rows_of ctx "SELECT GSequence FROM G ANNOTATION(notes) WHERE GID = 'g1'" in
  let anns = Propagate.all_annotations (List.hd rs2.Propagate.rows) in
  checkb "update annotation present" true
    (List.exists (fun a -> Ann.body_text a = "sequence corrected") anns)

let test_add_annotation_on_delete_logs () =
  let ctx = mk_ctx () in
  script ctx
    "CREATE TABLE G (GID TEXT, GSequence DNA); CREATE ANNOTATION TABLE notes ON G; INSERT INTO G VALUES ('bad', 'AAA');";
  ignore
    (exec ctx
       "ADD ANNOTATION TO G.notes VALUE 'withdrawn: contamination' ON (DELETE FROM G WHERE GID = 'bad')");
  checki "gone from base table" 0 (Propagate.row_count (rows_of ctx "SELECT * FROM G"));
  (* the deleted tuple lives in the log table with the reason *)
  let log = rows_of ctx "SELECT GID FROM _deleted_G ANNOTATION(notes)" in
  checki "one logged row" 1 (Propagate.row_count log);
  let anns = Propagate.all_annotations (List.hd log.Propagate.rows) in
  checks "reason" "withdrawn: contamination" (Ann.body_text (List.hd anns))

let test_archive_restore_asql () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  (match
     exec ctx
       "ARCHIVE ANNOTATION FROM DB2_Gene.GAnnotation ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')"
   with
  | Executor.Message m -> checkb "archived some" true (String.length m > 0)
  | _ -> Alcotest.fail "expected message");
  (* the archived annotations stop propagating *)
  let rs =
    rows_of ctx "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'"
  in
  checki "b5 hidden" 0 (List.length (Propagate.all_annotations (List.hd rs.Propagate.rows)));
  ignore
    (exec ctx
       "RESTORE ANNOTATION FROM DB2_Gene.GAnnotation ON (SELECT * FROM DB2_Gene WHERE GID = 'JW0080')");
  let rs2 =
    rows_of ctx "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'"
  in
  checkb "restored" true (Propagate.all_annotations (List.hd rs2.Propagate.rows) <> [])

let test_xml_annotation_value () =
  let ctx = mk_ctx () in
  script ctx "CREATE TABLE G (GID TEXT); CREATE ANNOTATION TABLE prov ON G; INSERT INTO G VALUES ('g1');";
  ignore
    (exec ctx
       "ADD ANNOTATION TO G.prov VALUE '<Annotation><source>RegulonDB</source></Annotation>' ON (SELECT * FROM G)");
  (* structured annotations are queryable by XML path *)
  let rs =
    rows_of ctx
      "SELECT GID FROM G ANNOTATION(prov) AWHERE ANN PATH 'source' = 'RegulonDB'"
  in
  checki "matched by path" 1 (Propagate.row_count rs)

let test_archive_between_asql () =
  let ctx = mk_ctx () in
  script ctx
    "CREATE TABLE G (GID TEXT); CREATE ANNOTATION TABLE n ON G; INSERT INTO G VALUES ('a');";
  ignore (exec ctx "ADD ANNOTATION TO G.n VALUE 'first' ON (SELECT * FROM G)");
  ignore (exec ctx "ADD ANNOTATION TO G.n VALUE 'second' ON (SELECT * FROM G)");
  (* find the second annotation's timestamp through the manager *)
  let anns =
    Bdbms_annotation.Manager.for_cell ctx.Bdbms_asql.Context.ann ~table_name:"G" ~row:0
      ~col:0 ()
  in
  let second = List.find (fun a -> Ann.body_text a = "second") anns in
  let t = second.Ann.created_at in
  (* archive only annotations created at exactly that time *)
  (match
     exec ctx
       (Printf.sprintf
          "ARCHIVE ANNOTATION FROM G.n BETWEEN %d AND %d ON (SELECT * FROM G)" t t)
   with
  | Executor.Message m -> checkb "one archived" true (String.length m > 0)
  | _ -> Alcotest.fail "expected message");
  let live = rows_of ctx "SELECT GID FROM G ANNOTATION(n)" in
  let texts =
    List.map Ann.body_text (Propagate.all_annotations (List.hd live.Propagate.rows))
  in
  Alcotest.(check (list string)) "only first remains" [ "first" ] texts

let test_ahaving_and_wildcard_annotation () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  (* the wildcard ANNOTATION operator pulls every annotation table *)
  let rs =
    rows_of ctx "SELECT GID FROM DB2_Gene ANNOTATION(*) WHERE GID = 'JW0080'"
  in
  checki "wildcard finds annotations" 1
    (List.length (Propagate.all_annotations (List.hd rs.Propagate.rows)));
  (* AHAVING filters groups by the annotations their members carried *)
  let grouped =
    rows_of ctx
      "SELECT GName, COUNT(*) AS n FROM DB2_Gene ANNOTATION(GAnnotation) GROUP BY GName AHAVING ANN CONTAINS 'unknown function'"
  in
  checki "only the annotated group survives" 1 (Propagate.row_count grouped);
  checks "mraW group" "mraW"
    (Value.to_display (Tuple.get (List.hd grouped.Propagate.rows).Propagate.tuple 0));
  (* without AHAVING all five groups come back *)
  let all =
    rows_of ctx
      "SELECT GName, COUNT(*) AS n FROM DB2_Gene ANNOTATION(GAnnotation) GROUP BY GName"
  in
  checki "all groups" 5 (Propagate.row_count all)

(* --------------------------------------------------------------- approval *)

let test_approval_flow_asql () =
  let ctx = mk_ctx () in
  script ctx
    {|
    CREATE TABLE Gene (GID TEXT, GSequence DNA);
    CREATE USER alice;
    START CONTENT APPROVAL ON Gene APPROVED BY admin;
    |};
  checki "alice inserts" 1
    (count_of ~user:"alice" ctx "INSERT INTO Gene VALUES ('JW1', 'ATG')");
  (* pending, but visible *)
  checki "visible" 1 (Propagate.row_count (rows_of ctx "SELECT * FROM Gene"));
  (match exec ctx "SHOW PENDING" with
  | Executor.Entries [ e ] -> checkb "pending" true (e.Approval.status = Approval.Pending)
  | _ -> Alcotest.fail "expected one pending entry");
  (* alice may not approve *)
  ignore (exec_err ~user:"alice" ctx "APPROVE 1");
  (* admin disapproves: the inverse DELETE runs *)
  ignore (exec ctx "DISAPPROVE 1");
  checki "rolled back" 0 (Propagate.row_count (rows_of ctx "SELECT * FROM Gene"));
  checki "no pending" 0
    (match exec ctx "SHOW PENDING" with
    | Executor.Entries es -> List.length es
    | _ -> -1)

let test_approval_update_rollback_asql () =
  let ctx = mk_ctx () in
  script ctx
    {|
    CREATE TABLE Gene (GID TEXT, GSequence DNA);
    INSERT INTO Gene VALUES ('JW1', 'AAA');
    CREATE USER bob;
    START CONTENT APPROVAL ON Gene COLUMNS (GSequence) APPROVED BY admin;
    |};
  checki "bob updates" 1
    (count_of ~user:"bob" ctx "UPDATE Gene SET GSequence = 'CCC' WHERE GID = 'JW1'");
  ignore (exec ctx "DISAPPROVE 1");
  let rs = rows_of ctx "SELECT GSequence FROM Gene" in
  checks "restored" "AAA"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  (* updates to unmonitored columns do not enter the log *)
  checki "gid update" 1 (count_of ~user:"bob" ctx "UPDATE Gene SET GID = 'JW2'");
  checki "log unchanged" 0
    (match exec ctx "SHOW PENDING" with
    | Executor.Entries es -> List.length es
    | _ -> -1)

(* ------------------------------------------------------------------- acl *)

let test_grant_revoke_asql () =
  let ctx = mk_ctx () in
  ctx.Context.strict_acl <- true;
  script ctx "CREATE TABLE T (v INT); CREATE USER carol;";
  (* carol cannot read yet *)
  ignore (exec_err ~user:"carol" ctx "SELECT * FROM T");
  ignore (exec ctx "GRANT SELECT ON T TO carol");
  checki "can read now" 0 (Propagate.row_count (rows_of ~user:"carol" ctx "SELECT * FROM T"));
  (* still cannot insert *)
  ignore (exec_err ~user:"carol" ctx "INSERT INTO T VALUES (1)");
  ignore (exec ctx "GRANT INSERT ON T TO carol");
  checki "insert ok" 1 (count_of ~user:"carol" ctx "INSERT INTO T VALUES (1)");
  ignore (exec ctx "REVOKE SELECT ON T FROM carol");
  ignore (exec_err ~user:"carol" ctx "SELECT * FROM T")

let test_group_grant_asql () =
  let ctx = mk_ctx () in
  ctx.Context.strict_acl <- true;
  script ctx
    {|
    CREATE TABLE T (v INT);
    CREATE USER dave;
    CREATE GROUP lab_members;
    ADD USER dave TO GROUP lab_members;
    GRANT UPDATE ON T TO GROUP lab_members;
    GRANT SELECT ON T TO GROUP lab_members;
    INSERT INTO T VALUES (1);
    |};
  checki "group member can update" 1 (count_of ~user:"dave" ctx "UPDATE T SET v = 2")

(* ------------------------------------------------------------ dependencies *)

let translate_proc () =
  Procedure.executable ~name:"P" (fun inputs ->
      match inputs with
      | [ Value.VDna dna ] ->
          Ok (Value.VProtein (String.map (function 'A' -> 'M' | 'C' -> 'K' | 'G' -> 'V' | _ -> 'L') dna))
      | _ -> Error "expected one DNA input")

let test_dependency_asql () =
  let ctx = mk_ctx () in
  ignore (Context.register_procedure ctx (translate_proc ()));
  ignore
    (Context.register_procedure ctx
       (Procedure.non_executable ~name:"LabExperiment" ()));
  script ctx
    {|
    CREATE TABLE Gene (GID TEXT, GSequence DNA);
    CREATE TABLE Protein (PName TEXT, PSequence PROTEIN, PFunction TEXT);
    INSERT INTO Gene VALUES ('JW0080', 'ATG');
    INSERT INTO Protein VALUES ('mraW', 'MLV', 'Exhibitor');
    CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P;
    CREATE DEPENDENCY r2 FROM Protein.PSequence TO Protein.PFunction USING LabExperiment;
    LINK DEPENDENCY r1 FROM (0) TO 0;
    LINK DEPENDENCY r2 FROM (0) TO 0;
    |};
  (* modify the gene: PSequence recomputes, PFunction goes stale *)
  checki "update" 1 (count_of ctx "UPDATE Gene SET GSequence = 'CCG' WHERE GID = 'JW0080'");
  let rs = rows_of ctx "SELECT PSequence FROM Protein" in
  checks "recomputed" "KKV"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  let outdated = rows_of ctx "SHOW OUTDATED Protein" in
  checki "one outdated cell" 1 (Propagate.row_count outdated);
  checks "PFunction stale" "PFunction"
    (Value.to_display (Tuple.get (List.hd outdated.Propagate.rows).Propagate.tuple 1));
  (* outdated values arrive annotated in query answers (Section 5) *)
  let ann_rs = rows_of ctx "SELECT PFunction FROM Protein" in
  let anns = Propagate.all_annotations (List.hd ann_rs.Propagate.rows) in
  checkb "quality annotation attached" true
    (List.exists (fun a -> a.Ann.category = Ann.Quality) anns);
  (* the curator validates the value: the mark clears *)
  ignore (exec ctx "VALIDATE Protein ROW 0 COLUMN PFunction");
  checki "no outdated left" 0 (Propagate.row_count (rows_of ctx "SHOW OUTDATED Protein"));
  (* SHOW DEPENDENCIES includes the derived rule 4 *)
  match exec ctx "SHOW DEPENDENCIES" with
  | Executor.Message m ->
      checkb "mentions derived" true
        (String.length m > 0
        && (let contains_sub ~needle hay =
              let n = String.length needle and h = String.length hay in
              let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
              go 0
            in
            contains_sub ~needle:"derived" m))
  | _ -> Alcotest.fail "expected message"

let test_render () =
  let ctx = mk_ctx () in
  setup_genes ctx;
  let out =
    Executor.render
      (exec ctx "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'")
  in
  checkb "has header" true (String.length out > 0);
  let count_out = Executor.render (exec ctx "INSERT INTO DB1_Gene VALUES ('x', 'y', 'ATG')") in
  checks "count render" "1 inserted" count_out

let test_executor_error_paths () =
  let ctx = mk_ctx () in
  script ctx "CREATE TABLE T (k TEXT, v INT); INSERT INTO T VALUES ('a', 1);";
  (* unknown column in SET *)
  ignore (exec_err ctx "UPDATE T SET nope = 1");
  (* non-grouped column in aggregate query *)
  ignore (exec_err ctx "SELECT k, COUNT(*) AS n FROM T GROUP BY v");
  (* computed column without alias *)
  ignore (exec_err ctx "SELECT v + 1 FROM T");
  (* PROMOTE on an expression item *)
  ignore (exec_err ctx "SELECT v + 1 PROMOTE (k) AS x FROM T");
  (* star mixed with items *)
  ignore (exec_err ctx "SELECT *, k FROM T");
  (* ambiguous column across a self join *)
  ignore (exec_err ctx "SELECT k FROM T a, T b");
  (* division by zero surfaces as an error, not a crash *)
  ignore (exec_err ctx "SELECT k FROM T WHERE v / 0 = 1");
  (* annotation command on two different tables *)
  script ctx "CREATE TABLE U (k TEXT); CREATE ANNOTATION TABLE n ON T; CREATE ANNOTATION TABLE n ON U;";
  ignore
    (exec_err ctx
       "ADD ANNOTATION TO T.n, U.n VALUE 'x' ON (SELECT * FROM T)")

let test_qualified_columns_single_table () =
  (* paper-style single-table aliasing: SELECT G.GSequence FROM DB2_Gene G *)
  let ctx = mk_ctx () in
  setup_genes ctx;
  let rs = rows_of ctx "SELECT G.GSequence FROM DB2_Gene G WHERE G.GID = 'JW0080'" in
  checki "one row" 1 (Propagate.row_count rs);
  checks "sequence" "ATGATGGAAAA"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0))

(* ---------------------------------------------------------------- copy *)

let temp_with contents =
  let path = Filename.temp_file "bdbms_test" ".dat" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let read_all path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_csv_parse_render () =
  let open Io_formats in
  (match parse_csv "a,b,c\nd,\"e,f\",g\n" with
  | Ok [ [ "a"; "b"; "c" ]; [ "d"; "e,f"; "g" ] ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (* quotes, embedded newline, CRLF *)
  (match parse_csv "\"x\"\"y\",\"a\nb\"\r\n" with
  | Ok [ [ "x\"y"; "a\nb" ] ] -> ()
  | Ok _ -> Alcotest.fail "wrong quoted parse"
  | Error e -> Alcotest.fail e);
  checkb "unterminated" true (Result.is_error (parse_csv "\"abc"));
  (* roundtrip *)
  let rows = [ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ] in
  (match parse_csv (to_csv rows) with
  | Ok rows' -> checkb "roundtrip" true (rows = rows')
  | Error e -> Alcotest.fail e)

let test_fasta_parse_render () =
  let open Io_formats in
  (match parse_fasta ">id1 some description\nACGT\nACGT\n\n>id2\nTTTT\n" with
  | Ok [ r1; r2 ] ->
      checks "id1" "id1" r1.id;
      checks "desc" "some description" r1.description;
      checks "seq joined" "ACGTACGT" r1.sequence;
      checks "id2" "id2" r2.id;
      checks "no desc" "" r2.description
  | Ok _ -> Alcotest.fail "wrong record count"
  | Error e -> Alcotest.fail e);
  checkb "data before header" true (Result.is_error (parse_fasta "ACGT\n"));
  checkb "empty id" true (Result.is_error (parse_fasta "> desc only\nACGT\n"));
  (* roundtrip with wrapping *)
  let records =
    [ { id = "p1"; description = "d"; sequence = String.make 150 'M' } ]
  in
  match parse_fasta (to_fasta ~width:60 records) with
  | Ok records' -> checkb "roundtrip" true (records = records')
  | Error e -> Alcotest.fail e

let test_copy_csv_roundtrip () =
  let ctx = mk_ctx () in
  script ctx "CREATE TABLE G (GID TEXT, len INT, GSequence DNA);";
  let src = temp_with "a,10,ATG\nb,,CCC\n" in
  (match exec ctx (Printf.sprintf "COPY G FROM '%s'" src) with
  | Executor.Count { affected; _ } -> checki "imported" 2 affected
  | _ -> Alcotest.fail "expected count");
  (* NULL came through *)
  let rs = rows_of ctx "SELECT GID FROM G WHERE len IS NULL" in
  checki "null row" 1 (Propagate.row_count rs);
  (* bad arity and bad types are rejected *)
  let bad = temp_with "only-one-field\n" in
  ignore (exec_err ctx (Printf.sprintf "COPY G FROM '%s'" bad));
  let bad_int = temp_with "x,notanint,ATG\n" in
  ignore (exec_err ctx (Printf.sprintf "COPY G FROM '%s'" bad_int));
  ignore (exec_err ctx "COPY G FROM '/nonexistent/file.csv'");
  (* export and re-import *)
  let out = Filename.temp_file "bdbms_test" ".csv" in
  ignore (exec ctx (Printf.sprintf "COPY G TO '%s'" out));
  script ctx "CREATE TABLE G2 (GID TEXT, len INT, GSequence DNA);";
  ignore (exec ctx (Printf.sprintf "COPY G2 FROM '%s'" out));
  checki "same rows" 2 (Propagate.row_count (rows_of ctx "SELECT * FROM G2"));
  List.iter Sys.remove [ src; bad; bad_int; out ]

let test_copy_fasta_roundtrip () =
  let ctx = mk_ctx () in
  script ctx "CREATE TABLE P (PID TEXT, Descr TEXT, PSequence PROTEIN);";
  let src = temp_with ">p1 first protein\nMKV\nSVP\n>p2\nMME\n" in
  (match exec ctx (Printf.sprintf "COPY P FROM '%s' FORMAT FASTA" src) with
  | Executor.Count { affected; _ } -> checki "imported" 2 affected
  | _ -> Alcotest.fail "expected count");
  let rs = rows_of ctx "SELECT PSequence FROM P WHERE PID = 'p1'" in
  checks "joined sequence" "MKVSVP"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  let out = Filename.temp_file "bdbms_test" ".fasta" in
  ignore (exec ctx (Printf.sprintf "COPY P TO '%s' FORMAT FASTA" out));
  checkb "export has headers" true (String.length (read_all out) > 0);
  List.iter Sys.remove [ src; out ]

let test_show_tables_describe_offset () =
  let ctx = mk_ctx () in
  script ctx
    "CREATE TABLE A (x INT); CREATE TABLE B (y TEXT); CREATE ANNOTATION TABLE n ON A; INSERT INTO A VALUES (1), (2), (3), (4);";
  let tables = rows_of ctx "SHOW TABLES" in
  checki "two tables" 2 (Propagate.row_count tables);
  let d = rows_of ctx "DESCRIBE A" in
  checki "one column" 1 (Propagate.row_count d);
  checks "type shown" "INT"
    (Value.to_display (Tuple.get (List.hd d.Propagate.rows).Propagate.tuple 1));
  let page = rows_of ctx "SELECT x FROM A ORDER BY x LIMIT 2 OFFSET 2" in
  checki "paged" 2 (Propagate.row_count page);
  checks "offset applied" "3"
    (Value.to_display (Tuple.get (List.hd page.Propagate.rows).Propagate.tuple 0))

let parser_fuzz =
  let open QCheck in
  [
    Test.make ~name:"parser never raises on garbage" ~count:500
      (make ~print:Print.string
         Gen.(string_size ~gen:(char_range ' ' '~') (int_bound 60)))
      (fun src ->
        match Parser.parse src with Ok _ | Error _ -> true);
    Test.make ~name:"lexer never raises" ~count:500
      (make ~print:Print.string Gen.(string_size ~gen:printable (int_bound 60)))
      (fun src ->
        match Lexer.tokenize src with Ok _ | Error _ -> true);
  ]

let () =
  Alcotest.run "bdbms_asql"
    [
      ( "sql-core",
        [
          Alcotest.test_case "create/insert/select" `Quick test_create_insert_select;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "group by / having" `Quick test_group_by_having;
          Alcotest.test_case "join with aliases" `Quick test_join_with_aliases;
          Alcotest.test_case "set operators" `Quick test_set_operators;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "keywords in any case" `Quick test_keywords_any_case;
        ] );
      ( "a-sql-annotations",
        [
          Alcotest.test_case "ANNOTATION operator" `Quick test_annotation_propagation_asql;
          Alcotest.test_case "projection + PROMOTE" `Quick test_annotation_projection_semantics;
          Alcotest.test_case "AWHERE / FILTER" `Quick test_awhere_filter_asql;
          Alcotest.test_case "annotated INTERSECT (paper)" `Quick
            test_paper_intersect_with_annotations;
          Alcotest.test_case "ADD ANNOTATION on DML" `Quick test_add_annotation_on_dml;
          Alcotest.test_case "ADD ANNOTATION on DELETE logs" `Quick
            test_add_annotation_on_delete_logs;
          Alcotest.test_case "ARCHIVE / RESTORE" `Quick test_archive_restore_asql;
          Alcotest.test_case "XML bodies + PATH query" `Quick test_xml_annotation_value;
          Alcotest.test_case "AHAVING + ANNOTATION(*)" `Quick
            test_ahaving_and_wildcard_annotation;
          Alcotest.test_case "ARCHIVE BETWEEN" `Quick test_archive_between_asql;
        ] );
      ( "approval",
        [
          Alcotest.test_case "insert flow" `Quick test_approval_flow_asql;
          Alcotest.test_case "update rollback + columns" `Quick
            test_approval_update_rollback_asql;
        ] );
      ( "acl",
        [
          Alcotest.test_case "grant/revoke" `Quick test_grant_revoke_asql;
          Alcotest.test_case "group grant" `Quick test_group_grant_asql;
        ] );
      ( "dependencies",
        [ Alcotest.test_case "full cascade via SQL" `Quick test_dependency_asql ] );
      ("render", [ Alcotest.test_case "render outputs" `Quick test_render ]);
      ( "robustness",
        [
          Alcotest.test_case "executor error paths" `Quick test_executor_error_paths;
          Alcotest.test_case "qualified single-table columns" `Quick
            test_qualified_columns_single_table;
        ] );
      ( "copy",
        [
          Alcotest.test_case "csv parse/render" `Quick test_csv_parse_render;
          Alcotest.test_case "fasta parse/render" `Quick test_fasta_parse_render;
          Alcotest.test_case "csv roundtrip" `Quick test_copy_csv_roundtrip;
          Alcotest.test_case "fasta roundtrip" `Quick test_copy_fasta_roundtrip;
        ] );
      ( "shell",
        [
          Alcotest.test_case "show/describe/offset" `Quick
            test_show_tables_describe_offset;
        ] );
      ("parser-fuzz", List.map QCheck_alcotest.to_alcotest parser_fuzz);
    ]
