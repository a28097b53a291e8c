(* End-to-end tests for the Bdbms.Db facade: full workflows through the
   public API, EXPLAIN, indexed annotation tables, subsequence search, the
   BWT pipeline, and failure injection. *)

open Bdbms
module Value = Bdbms_relation.Value
module Tuple = Bdbms_relation.Tuple
module Propagate = Bdbms_annotation.Propagate
module Ann = Bdbms_annotation.Ann
module Prov_store = Bdbms_provenance.Prov_store
module Prov_record = Bdbms_provenance.Prov_record
module Context = Bdbms_asql.Context
module Executor = Bdbms_asql.Executor
module Bwt = Bdbms_util.Bwt
module Rle = Bdbms_util.Rle
module Prng = Bdbms_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let rows_of db ?user sql =
  match Db.exec_exn db ?user sql with
  | Executor.Rows rs -> rs
  | _ -> Alcotest.failf "expected rows for %s" sql

let contains_sub ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ----------------------------------------------------- facade lifecycle *)

let test_full_ecoli_workflow () =
  (* the complete story: schema, curation users, approval, annotations,
     dependencies, and a final annotated query — all through Db.exec *)
  let db = Db.create () in
  ignore
    (Bdbms_asql.Context.register_procedure (Db.context db)
       (Bdbms_dependency.Procedure.non_executable ~name:"LabExperiment" ()));
  (match
     Db.exec_script db
       {|
       CREATE TABLE Gene (GID TEXT, GName TEXT, GSequence DNA);
       CREATE TABLE Protein (PName TEXT, GID TEXT, PSequence PROTEIN, PFunction TEXT);
       CREATE ANNOTATION TABLE curation ON Gene;
       CREATE USER alice;
       CREATE GROUP lab_members;
       ADD USER alice TO GROUP lab_members;
       INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATGGAATAA');
       INSERT INTO Protein VALUES ('mraW', 'JW0080', 'MME', 'Exhibitor');
       START CONTENT APPROVAL ON Gene COLUMNS (GSequence) APPROVED BY admin;
       CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P;
       CREATE DEPENDENCY r2 FROM Protein.PSequence TO Protein.PFunction USING LabExperiment;
       LINK DEPENDENCY r1 FROM (0) TO 0;
       LINK DEPENDENCY r2 FROM (0) TO 0;
       ADD ANNOTATION TO Gene.curation VALUE 'imported from RegulonDB 6.0' ON (SELECT * FROM Gene);
       |}
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* alice edits the gene; translation re-derives, function goes stale *)
  (match Db.exec db ~user:"alice" "UPDATE Gene SET GSequence = 'ATGAAATGGTGA' WHERE GID = 'JW0080'" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let protein = rows_of db "SELECT PSequence, PFunction FROM Protein" in
  let row = (List.hd protein.Propagate.rows).Propagate.tuple in
  checks "re-derived" "MKW" (Value.to_display (Tuple.get row 0));
  let outdated = rows_of db "SHOW OUTDATED Protein" in
  checki "function stale" 1 (Propagate.row_count outdated);
  (* the pending update is reviewed and approved *)
  (match Db.exec_exn db "SHOW PENDING" with
  | Executor.Entries [ e ] ->
      (match Db.exec db (Printf.sprintf "APPROVE %d" e.Bdbms_auth.Approval.id) with
      | Ok _ -> ()
      | Error err -> Alcotest.fail err)
  | _ -> Alcotest.fail "expected exactly one pending entry");
  (* annotations still propagate after all of this *)
  let rs = rows_of db "SELECT GID FROM Gene ANNOTATION(curation)" in
  let anns = Propagate.all_annotations (List.hd rs.Propagate.rows) in
  checkb "curation note survives" true
    (List.exists (fun a -> contains_sub ~needle:"RegulonDB" (Ann.body_text a)) anns)

let test_facade_settings_and_stats () =
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE T (v INT)");
  let before = Db.io_stats db in
  ignore (Db.exec_exn db "INSERT INTO T VALUES (1)");
  let after = Db.io_stats db in
  checkb "io grows" true
    (after.Bdbms_obs.Stats.writes + after.Bdbms_obs.Stats.hits
    > before.Bdbms_obs.Stats.writes + before.Bdbms_obs.Stats.hits);
  let d = Bdbms_obs.Stats.diff ~after:(Db.io_stats db) ~before:after in
  checki "quiescent handle reads nothing" 0 d.Bdbms_obs.Stats.reads;
  (* strict ACL off by default: unknown users can read *)
  ignore (Db.exec_exn db ~user:"nobody" "SELECT * FROM T");
  Db.set_strict_acl db true;
  checkb "strict blocks" true (Result.is_error (Db.exec db ~user:"nobody" "SELECT * FROM T"));
  Db.set_strict_acl db false;
  checkb "relaxed again" true (Result.is_ok (Db.exec db ~user:"nobody" "SELECT * FROM T"))

let test_auto_provenance () =
  let db = Db.create () in
  Db.set_auto_provenance db true;
  ignore (Db.exec_exn db "CREATE TABLE G (GID TEXT)");
  ignore (Db.exec_exn db "INSERT INTO G VALUES ('a')");
  ignore (Db.exec_exn db "UPDATE G SET GID = 'b'");
  (* queryable straight from A-SQL *)
  let prov = rows_of db "SHOW PROVENANCE G ROW 0 COLUMN GID" in
  checki "two records" 2 (Propagate.row_count prov);
  let at_point = rows_of db "SHOW PROVENANCE G ROW 0 COLUMN GID AT 9999" in
  checki "one governing record" 1 (Propagate.row_count at_point);
  let ctx = Db.context db in
  let records =
    Prov_store.records_for_cell ctx.Context.prov ~table_name:"G" ~row:0 ~col:0
  in
  checkb "insert recorded" true
    (List.exists (fun r -> r.Prov_record.operation = Prov_record.Local_insert) records);
  checkb "update recorded" true
    (List.exists (fun r -> r.Prov_record.operation = Prov_record.Local_update) records)

(* ---------------------------------------------------------------- explain *)

let test_explain () =
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE G (GID TEXT, v INT)");
  for i = 0 to 49 do
    ignore (Db.exec_exn db (Printf.sprintf "INSERT INTO G VALUES ('g%d', %d)" i i))
  done;
  (match Db.exec_exn db "EXPLAIN SELECT GID FROM G WHERE v > 10" with
  | Executor.Message plan ->
      checkb "has scan" true (contains_sub ~needle:"SCAN G" plan);
      checkb "has where" true (contains_sub ~needle:"WHERE (selectivity 0.30)" plan);
      checkb "estimates rows" true (contains_sub ~needle:"rows=50" plan)
  | _ -> Alcotest.fail "expected message");
  (match Db.exec_exn db "EXPLAIN SELECT GID FROM G INTERSECT SELECT GID FROM G" with
  | Executor.Message plan -> checkb "intersect" true (contains_sub ~needle:"INTERSECT" plan)
  | _ -> Alcotest.fail "expected message");
  (* EXPLAIN never fails on unknown tables; the tree shows the problem *)
  match Db.exec_exn db "EXPLAIN SELECT * FROM nope" with
  | Executor.Message plan -> checkb "unknown flagged" true (contains_sub ~needle:"unknown table" plan)
  | _ -> Alcotest.fail "expected message"

(* --------------------------------------------------- indexed annotations *)

let test_indexed_annotation_table () =
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE G (GID TEXT, GSequence DNA)");
  for i = 0 to 99 do
    ignore (Db.exec_exn db (Printf.sprintf "INSERT INTO G VALUES ('g%03d', 'ATG')" i))
  done;
  ignore (Db.exec_exn db "CREATE ANNOTATION TABLE plain ON G");
  ignore (Db.exec_exn db "CREATE ANNOTATION TABLE fast ON G SCHEME COMPACT INDEXED");
  for i = 0 to 19 do
    ignore
      (Db.exec_exn db
         (Printf.sprintf
            "ADD ANNOTATION TO G.plain VALUE 'note %d' ON (SELECT * FROM G WHERE GID = 'g%03d')"
            i (i * 5)));
    ignore
      (Db.exec_exn db
         (Printf.sprintf
            "ADD ANNOTATION TO G.fast VALUE 'note %d' ON (SELECT * FROM G WHERE GID = 'g%03d')"
            i (i * 5)))
  done;
  (* both stores answer identically *)
  let get table_clause row =
    let rs =
      rows_of db
        (Printf.sprintf "SELECT GID FROM G ANNOTATION(%s) WHERE GID = 'g%03d'" table_clause row)
    in
    List.map Ann.body_text (Propagate.all_annotations (List.hd rs.Propagate.rows))
    |> List.sort compare
  in
  for i = 0 to 19 do
    Alcotest.(check (list string))
      (Printf.sprintf "row %d" (i * 5))
      (get "plain" (i * 5))
      (get "fast" (i * 5))
  done

(* ------------------------------------------------------------- indexes *)

let test_create_index_and_lookup () =
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE G (GID TEXT, v INT)");
  for i = 0 to 199 do
    ignore (Db.exec_exn db (Printf.sprintf "INSERT INTO G VALUES ('g%03d', %d)" i i))
  done;
  ignore (Db.exec_exn db "CREATE INDEX gid_idx ON G (GID)");
  (* the index answers and agrees with a scan *)
  let rs = rows_of db "SELECT v FROM G WHERE GID = 'g050'" in
  checki "one row" 1 (Propagate.row_count rs);
  checks "value" "50"
    (Value.to_display (Tuple.get (List.hd rs.Propagate.rows).Propagate.tuple 0));
  (* inserts maintain the index *)
  ignore (Db.exec_exn db "INSERT INTO G VALUES ('new', 999)");
  checki "fresh row findable" 1
    (Propagate.row_count (rows_of db "SELECT v FROM G WHERE GID = 'new'"));
  (* deletes maintain the index *)
  ignore (Db.exec_exn db "DELETE FROM G WHERE GID = 'g050'");
  checki "deleted gone" 0
    (Propagate.row_count (rows_of db "SELECT v FROM G WHERE GID = 'g050'"));
  (* errors *)
  checkb "duplicate name" true (Result.is_error (Db.exec db "CREATE INDEX gid_idx ON G (GID)"));
  checkb "bad column" true (Result.is_error (Db.exec db "CREATE INDEX x ON G (nope)"));
  checkb "drop unknown" true (Result.is_error (Db.exec db "DROP INDEX nope"));
  (* EXPLAIN shows the index path *)
  (match Db.exec_exn db "EXPLAIN SELECT v FROM G WHERE GID = 'g010'" with
  | Executor.Message plan ->
      checkb "index scan in plan" true (contains_sub ~needle:"INDEX SCAN G via gid_idx" plan)
  | _ -> Alcotest.fail "expected message");
  ignore (Db.exec_exn db "DROP INDEX gid_idx");
  checki "still correct without index" 1
    (Propagate.row_count (rows_of db "SELECT v FROM G WHERE GID = 'g010'"))

let test_index_dirty_after_revert () =
  (* an approval revert bypasses executor maintenance; the index must be
     marked dirty and rebuilt so queries stay correct *)
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE G (GID TEXT, GSequence DNA)");
  ignore (Db.exec_exn db "INSERT INTO G VALUES ('a', 'AAA')");
  ignore (Db.exec_exn db "CREATE INDEX seq_idx ON G (GSequence)");
  ignore (Db.exec_exn db "CREATE USER bob");
  ignore (Db.exec_exn db "START CONTENT APPROVAL ON G APPROVED BY admin");
  ignore (Db.exec_exn db ~user:"bob" "UPDATE G SET GSequence = 'CCC' WHERE GID = 'a'");
  checki "updated findable" 1
    (Propagate.row_count (rows_of db "SELECT GID FROM G WHERE GSequence = 'CCC'"));
  (* disapprove: the inverse UPDATE restores AAA behind the executor's back *)
  (match Db.exec_exn db "SHOW PENDING" with
  | Executor.Entries [ e ] ->
      ignore (Db.exec_exn db (Printf.sprintf "DISAPPROVE %d" e.Bdbms_auth.Approval.id))
  | _ -> Alcotest.fail "expected one pending entry");
  checki "restored value findable via index" 1
    (Propagate.row_count (rows_of db "SELECT GID FROM G WHERE GSequence = 'AAA'"));
  checki "reverted value gone" 0
    (Propagate.row_count (rows_of db "SELECT GID FROM G WHERE GSequence = 'CCC'"))

let test_index_dirty_after_rederivation () =
  (* a dependency re-derivation writes cells directly; indexed queries on
     the re-derived column must still be correct *)
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE Gene (GID TEXT, GSequence DNA)");
  ignore (Db.exec_exn db "CREATE TABLE Protein (PName TEXT, PSequence PROTEIN)");
  ignore (Db.exec_exn db "INSERT INTO Gene VALUES ('g', 'ATGAAATAA')");
  ignore (Db.exec_exn db "INSERT INTO Protein VALUES ('p', 'MK')");
  ignore (Db.exec_exn db "CREATE INDEX pseq_idx ON Protein (PSequence)");
  ignore (Db.exec_exn db "CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P");
  ignore (Db.exec_exn db "LINK DEPENDENCY r1 FROM (0) TO 0");
  ignore (Db.exec_exn db "UPDATE Gene SET GSequence = 'ATGTGGTGGTAA' WHERE GID = 'g'");
  (* PSequence is now MWW, written by the tracker *)
  checki "re-derived findable" 1
    (Propagate.row_count (rows_of db "SELECT PName FROM Protein WHERE PSequence = 'MWW'"));
  checki "old value gone" 0
    (Propagate.row_count (rows_of db "SELECT PName FROM Protein WHERE PSequence = 'MK'"))

(* -------------------------------------------------- subsequence + BWT *)

let test_subsequence_search () =
  let d = Bdbms_storage.Disk.create ~page_size:512 ~pool_pages:512 () in
  let bp = Bdbms_storage.Disk.pager d in
  let t = Bdbms_sbc.Sbc_tree.create ~with_three_sided:false bp in
  let texts = [ "HHEELL"; "HLHLHL"; "EEEE"; "LEH" ] in
  List.iter (fun s -> ignore (Bdbms_sbc.Sbc_tree.insert t s)) texts;
  Alcotest.(check (list int)) "HEL subsequence" [ 0 ]
    (Bdbms_sbc.Sbc_tree.subsequence_search t "HEL");
  Alcotest.(check (list int)) "LLL" [ 1 ] (Bdbms_sbc.Sbc_tree.subsequence_search t "LLL")
  |> ignore;
  Alcotest.(check (list int)) "LL" [ 0; 1 ] (Bdbms_sbc.Sbc_tree.subsequence_search t "LL");
  Alcotest.(check (list int)) "empty = all" [ 0; 1; 2; 3 ]
    (Bdbms_sbc.Sbc_tree.subsequence_search t "");
  Alcotest.(check (list int)) "absent" [] (Bdbms_sbc.Sbc_tree.subsequence_search t "HHHH")

let test_bwt_roundtrip () =
  List.iter
    (fun s ->
      match Bwt.decompress (Bwt.compress s) with
      | Ok s' -> checks ("roundtrip " ^ s) s s'
      | Error e -> Alcotest.fail e)
    [ ""; "a"; "abab"; "banana"; "mississippi"; "ACGTACGTACGT"; String.make 300 'H' ];
  (* periodic inputs (the classic BWT ambiguity) survive *)
  (match Bwt.decompress (Bwt.compress "abababab") with
  | Ok s -> checks "periodic" "abababab" s
  | Error e -> Alcotest.fail e);
  (match Bwt.compress "has\000nul" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NUL accepted");
  checkb "truncated rejected" true (Result.is_error (Bwt.decompress "xy"))

let test_bwt_mtf () =
  checks "mtf roundtrip" "banana" (Bwt.mtf_decode (Bwt.mtf_encode "banana"));
  (* BWT clusters characters: last column of "banana" groups letters *)
  let { Bwt.last_column; _ } = Bwt.transform "banana" in
  checki "length preserved" 6 (String.length last_column)

let core_qcheck =
  let open QCheck in
  let seq_gen =
    make ~print:Print.string
      Gen.(string_size ~gen:(oneofl [ 'H'; 'E'; 'L'; 'A'; 'C' ]) (int_bound 80))
  in
  [
    Test.make ~name:"bwt compress/decompress roundtrip" ~count:200 seq_gen (fun s ->
        Bwt.decompress (Bwt.compress s) = Ok s);
    Test.make ~name:"rle is_subsequence agrees with naive" ~count:300
      (pair seq_gen seq_gen)
      (fun (s, p) ->
        let naive =
          let rec go si pi =
            if pi >= String.length p then true
            else if si >= String.length s then false
            else if s.[si] = p.[pi] then go (si + 1) (pi + 1)
            else go (si + 1) pi
          in
          go 0 0
        in
        Rle.is_subsequence (Rle.encode s) ~pattern:p = naive);
    Test.make ~name:"huffman-stage compression never corrupts structures" ~count:50
      (make ~print:Print.string
         Gen.(string_size ~gen:(oneofl [ 'H'; 'E'; 'L' ]) (int_range 100 400)))
      (fun s -> Bwt.decompress (Bwt.compress s) = Ok s);
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdbms_core"
    [
      ( "facade",
        [
          Alcotest.test_case "full E. coli workflow" `Quick test_full_ecoli_workflow;
          Alcotest.test_case "settings and io stats" `Quick test_facade_settings_and_stats;
          Alcotest.test_case "auto provenance" `Quick test_auto_provenance;
        ] );
      ("explain", [ Alcotest.test_case "plans and estimates" `Quick test_explain ]);
      ( "indexed-annotations",
        [ Alcotest.test_case "scan and index agree" `Quick test_indexed_annotation_table ] );
      ( "indexes",
        [
          Alcotest.test_case "create/lookup/maintenance" `Quick test_create_index_and_lookup;
          Alcotest.test_case "dirty after approval revert" `Quick test_index_dirty_after_revert;
          Alcotest.test_case "dirty after re-derivation" `Quick
            test_index_dirty_after_rederivation;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "subsequence search" `Quick test_subsequence_search;
          Alcotest.test_case "bwt roundtrip" `Quick test_bwt_roundtrip;
          Alcotest.test_case "bwt/mtf pieces" `Quick test_bwt_mtf;
        ] );
      ("core-properties", q core_qcheck);
    ]
