(* Tests for bdbms_annotation and bdbms_provenance, built around the
   paper's running example: tables DB1_Gene / DB2_Gene with annotations
   A1-A3 and B1-B5 (Figures 2-3). *)

open Bdbms_annotation
module Rect = Bdbms_util.Rect
module Xml = Bdbms_util.Xml_lite
module Clock = Bdbms_util.Clock
module Schema = Bdbms_relation.Schema
module Table = Bdbms_relation.Table
module Tuple = Bdbms_relation.Tuple
module Value = Bdbms_relation.Value
module Expr = Bdbms_relation.Expr
module Prov_record = Bdbms_provenance.Prov_record
module Prov_store = Bdbms_provenance.Prov_store

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let v s = Value.VString s
let dna s = Value.VDna s

let mk_env () =
  let d = Bdbms_storage.Disk.create ~page_size:1024 ~pool_pages:64 () in
  let bp = Bdbms_storage.Disk.pager d in
  let clock = Clock.create () in
  (bp, clock, Manager.create bp clock)

let gene_schema () =
  Schema.make
    [
      { Schema.name = "GID"; ty = Value.TString };
      { Schema.name = "GName"; ty = Value.TString };
      { Schema.name = "GSequence"; ty = Value.TDna };
    ]

let insert_all table rows =
  List.iter
    (fun tuple ->
      match Table.insert table (Tuple.make tuple) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    rows

(* Figure 2's data *)
let mk_db1 bp =
  let t = Table.create bp ~name:"DB1_Gene" (gene_schema ()) in
  insert_all t
    [
      [ v "JW0080"; v "mraW"; dna "ATGATGGAAAA" ];
      [ v "JW0082"; v "ftsI"; dna "ATGAAAGCAGC" ];
      [ v "JW0055"; v "yabP"; dna "ATGAAAGTATC" ];
      [ v "JW0078"; v "fruR"; dna "GTGAAACTGGA" ];
    ];
  t

let mk_db2 bp =
  let t = Table.create bp ~name:"DB2_Gene" (gene_schema ()) in
  insert_all t
    [
      [ v "JW0080"; v "mraW"; dna "ATGATGGAAAA" ];
      [ v "JW0041"; v "fixB"; dna "ATGAACACGTT" ];
      [ v "JW0037"; v "caiB"; dna "ATGGATCATCT" ];
      [ v "JW0027"; v "ispH"; dna "ATGCAGATCCT" ];
      [ v "JW0055"; v "yabP"; dna "ATGAAAGTATC" ];
    ];
  t

(* The paper's annotations over DB2_Gene:
   B1: curated-by over rows 0-2 (GID+GName cells in the figure; we use rows)
   B2: "possibly split by frameshift" over GName cells of rows 3-4
   B3: "obtained from GenoBase" over the entire GSequence column
   B4: "pseudogene" over row 2
   B5: "this gene has an unknown function" over row 0 *)
let annotate_db2 mgr db2 =
  let add name region text =
    match
      Manager.add_text mgr ~table:db2 ~ann_tables:[ "GAnnotation" ] ~text ~author:name
        ~region ()
    with
    | Ok ann -> ann
    | Error e -> Alcotest.fail e
  in
  ignore (Manager.create_annotation_table mgr ~table:db2 ~name:"GAnnotation" ());
  let b1 = add "admin" (Region.Rows [ 0; 1; 2 ]) "Curated by user admin" in
  let b2 =
    add "user1" (Region.Cells [ (3, "GName"); (4, "GName") ]) "possibly split by frameshift"
  in
  let b3 = add "user1" (Region.of_column "GSequence") "obtained from GenoBase" in
  let b4 = add "user2" (Region.of_row 2) "pseudogene" in
  let b5 = add "user2" (Region.of_row 0) "This gene has an unknown function" in
  (b1, b2, b3, b4, b5)

(* --------------------------------------------------------------- region *)

let test_region_normalization () =
  let schema = gene_schema () in
  let rects r = Region.to_rects r ~schema ~row_count:10 in
  (match rects Region.Whole_table with
  | Ok [ r ] -> checki "whole table area" 30 (Rect.area r)
  | _ -> Alcotest.fail "whole table should be one rect");
  (match rects (Region.of_column "GName") with
  | Ok [ r ] -> checkb "column rect" true (r.Rect.col_lo = 1 && r.Rect.col_hi = 1)
  | _ -> Alcotest.fail "column should be one rect");
  (match rects (Region.Rows [ 2; 3; 4 ]) with
  | Ok [ r ] -> checki "contiguous rows merge" 9 (Rect.area r)
  | Ok rs -> Alcotest.failf "expected single rect, got %d" (List.length rs)
  | Error e -> Alcotest.fail e);
  checkb "unknown column" true (Result.is_error (rects (Region.of_column "nope")));
  checkb "row out of range" true (Result.is_error (rects (Region.of_row 10)));
  match Region.to_rects Region.Whole_table ~schema ~row_count:0 with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty table has no rects"

(* ------------------------------------------------------------ ann store *)

let test_store_schemes_equivalent () =
  let bp, _, _ = mk_env () in
  let cell = Ann_store.create Ann_store.Cell bp in
  let compact = Ann_store.create Ann_store.Compact bp in
  let region = [ Rect.make ~row_lo:0 ~row_hi:4 ~col_lo:0 ~col_hi:2 ] in
  Ann_store.add cell ~ann_id:"a1" ~body:"<x/>" region;
  Ann_store.add compact ~ann_id:"a1" ~body:"<x/>" region;
  (* same logical answers *)
  for row = 0 to 5 do
    for col = 0 to 3 do
      Alcotest.(check (list string))
        (Printf.sprintf "cell %d,%d" row col)
        (Ann_store.ids_for_cell cell ~row ~col)
        (Ann_store.ids_for_cell compact ~row ~col)
    done
  done;
  (* very different record counts: 15 cells vs 1 rectangle *)
  checki "cell records" 15 (Ann_store.record_count cell);
  checki "compact records" 1 (Ann_store.record_count compact);
  checkb "compact smaller" true
    (Ann_store.logical_bytes compact < Ann_store.logical_bytes cell)

let test_store_rect_query () =
  let bp, _, _ = mk_env () in
  let s = Ann_store.create Ann_store.Compact bp in
  Ann_store.add s ~ann_id:"a1" ~body:"" [ Rect.make ~row_lo:0 ~row_hi:2 ~col_lo:0 ~col_hi:0 ];
  Ann_store.add s ~ann_id:"a2" ~body:"" [ Rect.make ~row_lo:5 ~row_hi:6 ~col_lo:1 ~col_hi:2 ];
  Alcotest.(check (list string)) "window hits a1" [ "a1" ]
    (Ann_store.ids_for_rect s (Rect.make ~row_lo:1 ~row_hi:4 ~col_lo:0 ~col_hi:2));
  Alcotest.(check (list string)) "window hits both" [ "a1"; "a2" ]
    (Ann_store.ids_for_rect s (Rect.make ~row_lo:0 ~row_hi:9 ~col_lo:0 ~col_hi:2));
  Alcotest.(check (list string)) "window hits none" []
    (Ann_store.ids_for_rect s (Rect.make ~row_lo:3 ~row_hi:4 ~col_lo:1 ~col_hi:2))

(* -------------------------------------------------------------- manager *)

let test_manager_figure2_scenario () =
  let bp, _, mgr = mk_env () in
  let db2 = mk_db2 bp in
  let b1, _, b3, _, b5 = annotate_db2 mgr db2 in
  (* paper: selecting gene JW0080 (row 0) reports B1, B3 and B5 *)
  let anns col = Manager.for_cell mgr ~table_name:"DB2_Gene" ~row:0 ~col () in
  let ids l = List.sort compare (List.map (fun a -> a.Ann.id) l) in
  Alcotest.(check (list string)) "row 0 GID anns" (ids [ b1; b5 ]) (ids (anns 0));
  Alcotest.(check (list string)) "row 0 GSequence anns" (ids [ b1; b3; b5 ])
    (ids (anns 2));
  (* paper: projecting GID reports only B1, B4, B5 *)
  let gid_anns =
    List.concat_map (fun row -> Manager.for_cell mgr ~table_name:"DB2_Gene" ~row ~col:0 ())
      [ 0; 1; 2; 3; 4 ]
  in
  let names =
    List.sort_uniq compare (List.map Ann.body_text gid_anns)
  in
  Alcotest.(check (list string)) "GID column anns"
    [ "Curated by user admin"; "This gene has an unknown function"; "pseudogene" ]
    names

let test_manager_multiple_ann_tables () =
  let bp, _, mgr = mk_env () in
  let db1 = mk_db1 bp in
  ignore (Manager.create_annotation_table mgr ~table:db1 ~name:"comments" ());
  ignore
    (Manager.create_annotation_table mgr ~table:db1 ~name:"lineage"
       ~category:Ann.Provenance ());
  Alcotest.(check (list string)) "tables" [ "comments"; "lineage" ]
    (Manager.annotation_table_names mgr ~table_name:"DB1_Gene");
  ignore
    (Manager.add_text mgr ~table:db1 ~ann_tables:[ "comments" ] ~text:"a comment"
       ~author:"u" ~region:(Region.of_row 0) ());
  ignore
    (Manager.add_text mgr ~table:db1 ~ann_tables:[ "lineage" ]
       ~text:"These genes were obtained from RegulonDB" ~author:"system"
       ~region:Region.Whole_table ());
  (* the ANNOTATION operator: restricting to one table *)
  checki "only lineage" 1
    (List.length
       (Manager.for_cell mgr ~table_name:"DB1_Gene" ~ann_tables:[ "lineage" ] ~row:0
          ~col:0 ()));
  checki "both" 2
    (List.length (Manager.for_cell mgr ~table_name:"DB1_Gene" ~row:0 ~col:0 ()));
  (* dropping *)
  checkb "drop" true (Manager.drop_annotation_table mgr ~table_name:"DB1_Gene" ~name:"comments");
  checki "after drop" 1
    (List.length (Manager.for_cell mgr ~table_name:"DB1_Gene" ~row:0 ~col:0 ()))

let test_manager_errors () =
  let bp, _, mgr = mk_env () in
  let db1 = mk_db1 bp in
  ignore (Manager.create_annotation_table mgr ~table:db1 ~name:"c" ());
  checkb "duplicate table" true
    (Result.is_error (Manager.create_annotation_table mgr ~table:db1 ~name:"c" ()));
  checkb "unknown ann table" true
    (Result.is_error
       (Manager.add_text mgr ~table:db1 ~ann_tables:[ "nope" ] ~text:"x" ~author:"u"
          ~region:Region.Whole_table ()));
  checkb "empty ann tables" true
    (Result.is_error
       (Manager.add_text mgr ~table:db1 ~ann_tables:[] ~text:"x" ~author:"u"
          ~region:Region.Whole_table ()));
  checkb "bad region" true
    (Result.is_error
       (Manager.add_text mgr ~table:db1 ~ann_tables:[ "c" ] ~text:"x" ~author:"u"
          ~region:(Region.of_row 99) ()))

(* Annotations are values: the registry holds the archived state, so
   read it back from there. *)
let archived mgr (a : Ann.t) =
  match Manager.find mgr a.Ann.id with
  | Some a -> a.Ann.archived
  | None -> Alcotest.failf "%s not registered" a.Ann.id

let test_archive_restore () =
  let bp, clock, mgr = mk_env () in
  let db2 = mk_db2 bp in
  let _, _, _, _, b5 = annotate_db2 mgr db2 in
  (* archive B5 (the invalid "unknown function" annotation, Section 3.3) *)
  (match
     Manager.archive mgr ~table:db2 ~ann_tables:[ "GAnnotation" ]
       ~between:(b5.Ann.created_at, b5.Ann.created_at) ~region:(Region.of_row 0) ()
   with
  | Ok n -> checki "archived one" 1 n
  | Error e -> Alcotest.fail e);
  checkb "flag set" true (archived mgr b5);
  (* archived annotations do not propagate *)
  let anns = Manager.for_cell mgr ~table_name:"DB2_Gene" ~row:0 ~col:0 () in
  checkb "b5 not returned" true
    (not (List.exists (fun a -> Ann.equal_id a b5) anns));
  (* but are visible when asked for *)
  let anns_all =
    Manager.for_cell mgr ~table_name:"DB2_Gene" ~include_archived:true ~row:0 ~col:0 ()
  in
  checkb "b5 visible with archived" true
    (List.exists (fun a -> Ann.equal_id a b5) anns_all);
  (* restore it *)
  (match
     Manager.restore mgr ~table:db2 ~ann_tables:[ "GAnnotation" ] ~region:(Region.of_row 0) ()
   with
  | Ok n -> checkb "restored at least b5" true (n >= 1)
  | Error e -> Alcotest.fail e);
  checkb "flag cleared" false (archived mgr b5);
  ignore clock

let test_archive_time_range () =
  let bp, clock, mgr = mk_env () in
  let db1 = mk_db1 bp in
  ignore (Manager.create_annotation_table mgr ~table:db1 ~name:"c" ());
  let add text =
    match
      Manager.add_text mgr ~table:db1 ~ann_tables:[ "c" ] ~text ~author:"u"
        ~region:(Region.of_row 0) ()
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let a1 = add "first" in
  let a2 = add "second" in
  let a3 = add "third" in
  (* archive only the middle one by its timestamp *)
  (match
     Manager.archive mgr ~table:db1 ~between:(a2.Ann.created_at, a2.Ann.created_at)
       ~region:(Region.of_row 0) ()
   with
  | Ok n -> checki "one archived" 1 n
  | Error e -> Alcotest.fail e);
  checkb "a1 live" false (archived mgr a1);
  checkb "a2 archived" true (archived mgr a2);
  checkb "a3 live" false (archived mgr a3);
  ignore clock

(* ------------------------------------------------------------ ann preds *)

let test_ann_pred () =
  let mk text author category =
    Ann.make ~id:"x" ~body:(Xml.element "Annotation" [ Xml.text text ]) ~category
      ~author ~created_at:5
  in
  let a = mk "obtained from GenoBase" "system" Ann.Provenance in
  checkb "contains" true (Ann_pred.eval (Ann_pred.Contains "GenoBase") a);
  checkb "contains miss" false (Ann_pred.eval (Ann_pred.Contains "RegulonDB") a);
  checkb "author" true (Ann_pred.eval (Ann_pred.Author_is "system") a);
  checkb "category" true (Ann_pred.eval (Ann_pred.Category_is Ann.Provenance) a);
  checkb "before" true (Ann_pred.eval (Ann_pred.Added_before 6) a);
  checkb "after" false (Ann_pred.eval (Ann_pred.Added_after 5) a);
  checkb "and" true
    (Ann_pred.eval (Ann_pred.And (Ann_pred.Contains "Geno", Ann_pred.Author_is "system")) a);
  checkb "not" false (Ann_pred.eval (Ann_pred.Not Ann_pred.Any) a);
  let structured =
    Ann.make ~id:"y"
      ~body:
        (Xml.element "Annotation"
           [ Xml.element "source" [ Xml.text "RegulonDB" ] ])
      ~category:Ann.Provenance ~author:"system" ~created_at:1
  in
  checkb "xml path" true
    (Ann_pred.eval (Ann_pred.Xml_path_is ([ "source" ], "RegulonDB")) structured)

(* ------------------------------------------------------------ propagate *)

let setup_propagation () =
  let bp, clock, mgr = mk_env () in
  let db1 = mk_db1 bp in
  let db2 = mk_db2 bp in
  ignore (Manager.create_annotation_table mgr ~table:db1 ~name:"GAnnotation" ());
  (* A1: rows 1-2 cells of GID/GName in the figure; rows here *)
  let add table text region =
    match
      Manager.add_text mgr ~table ~ann_tables:[ "GAnnotation" ] ~text ~author:"u"
        ~region ()
    with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let a1 = add db1 "These genes are published in ..." (Region.Rows [ 1; 2 ]) in
  let a2 = add db1 "These genes were obtained from RegulonDB" (Region.Rows [ 0; 2 ]) in
  let a3 = add db1 "Involved in methyltransferase activity" (Region.of_cell ~row:0 ~column:"GSequence") in
  let b = annotate_db2 mgr db2 in
  ignore clock;
  (mgr, db1, db2, (a1, a2, a3), b)

let test_propagate_projection () =
  let mgr, db1, _, (_, _, a3), _ = setup_propagation () in
  let ars = Propagate.scan mgr db1 () in
  (* projecting GID drops A3 (attached to GSequence only) *)
  let projected = Propagate.project ars [ "GID" ] in
  let all =
    List.concat_map Propagate.all_annotations projected.Propagate.rows
  in
  checkb "A3 gone" true (not (List.exists (fun a -> Ann.equal_id a a3) all));
  (* PROMOTE first copies GSequence annotations onto GID, then they survive *)
  let promoted =
    Propagate.project (Propagate.promote ars ~from:[ "GSequence" ] ~to_:"GID") [ "GID" ]
  in
  let all' =
    List.concat_map Propagate.all_annotations promoted.Propagate.rows
  in
  checkb "A3 promoted" true (List.exists (fun a -> Ann.equal_id a a3) all')

let test_propagate_selection () =
  let mgr, _, db2, _, (b1, _, b3, _, b5) = setup_propagation () in
  let ars = Propagate.scan mgr db2 () in
  (* paper: selecting JW0080 reports the tuple with B1, B3 and B5 *)
  let sel =
    Propagate.select ars (Expr.Cmp (Expr.Eq, Expr.Col "GID", Expr.Lit (v "JW0080")))
  in
  checki "one tuple" 1 (Propagate.row_count sel);
  let anns = Propagate.all_annotations (List.hd sel.Propagate.rows) in
  let ids = List.sort compare (List.map (fun a -> a.Ann.id) anns) in
  Alcotest.(check (list string)) "B1 B3 B5"
    (List.sort compare [ b1.Ann.id; b3.Ann.id; b5.Ann.id ])
    ids

let test_propagate_intersection () =
  (* the paper's 3-statement example: genes common to DB1 and DB2 carry the
     annotations from BOTH tables after a single annotated INTERSECT *)
  let mgr, db1, db2, (a1, a2, a3), (b1, _, b3, _, b5) = setup_propagation () in
  let r1 = Propagate.scan mgr db1 () in
  let r2 = Propagate.scan mgr db2 () in
  let common = Propagate.intersect r1 r2 in
  checki "two common genes" 2 (Propagate.row_count common);
  let row_for gid =
    List.find
      (fun at -> Value.to_display (Tuple.get at.Propagate.tuple 0) = gid)
      common.Propagate.rows
  in
  let ids at =
    List.sort compare (List.map (fun a -> a.Ann.id) (Propagate.all_annotations at))
  in
  (* JW0080 is row 0 in both: A2 and A3 (on its GSequence cell) from DB1;
     B1, B3, B5 from DB2 *)
  Alcotest.(check (list string)) "JW0080 annotations"
    (List.sort compare [ a2.Ann.id; a3.Ann.id; b1.Ann.id; b3.Ann.id; b5.Ann.id ])
    (ids (row_for "JW0080"));
  ignore a1

let test_propagate_awhere_filter () =
  let mgr, _, db2, _, (b1, _, b3, _, _) = setup_propagation () in
  let ars = Propagate.scan mgr db2 () in
  (* AWHERE: keep tuples annotated as curated *)
  let curated = Propagate.awhere ars (Ann_pred.Contains "Curated") in
  checki "3 curated rows" 3 (Propagate.row_count curated);
  (* tuples keep all their annotations *)
  let anns = Propagate.all_annotations (List.hd curated.Propagate.rows) in
  checkb "b1 present" true (List.exists (fun a -> Ann.equal_id a b1) anns);
  checkb "b3 present" true (List.exists (fun a -> Ann.equal_id a b3) anns);
  (* FILTER: all tuples survive, only matching annotations remain *)
  let filtered = Propagate.filter_anns ars (Ann_pred.Contains "GenoBase") in
  checki "all rows" 5 (Propagate.row_count filtered);
  List.iter
    (fun at ->
      List.iter
        (fun a -> checks "only genobase" "obtained from GenoBase" (Ann.body_text a))
        (Propagate.all_annotations at))
    filtered.Propagate.rows

let test_propagate_group_by () =
  let mgr, _, db2, _, (b1, _, _, _, _) = setup_propagation () in
  let ars = Propagate.scan mgr db2 () in
  (* group on GName with a COUNT aggregate; annotations must survive onto
     the group representatives *)
  let grouped =
    Propagate.group_by ars ~keys:[ "GName" ] ~aggs:[ (Expr.Count "GID", "n") ]
  in
  checki "five groups" 5 (Propagate.row_count grouped);
  (* the mraW group's GName column keeps B1 (rows 0-2 were annotated) *)
  let mraw =
    List.find
      (fun at -> Value.to_display (Tuple.get at.Propagate.tuple 0) = "mraW")
      grouped.Propagate.rows
  in
  checkb "b1 on group" true
    (List.exists (fun a -> Ann.equal_id a b1) (Propagate.all_annotations mraw))

let test_propagate_distinct_unions_annotations () =
  let mgr, db1, _, (a1, a2, _), _ = setup_propagation () in
  let ars = Propagate.project (Propagate.scan mgr db1 ()) [ "GID" ] in
  (* duplicate the rows; distinct must merge annotations per tuple *)
  let doubled = { ars with Propagate.rows = ars.Propagate.rows @ ars.Propagate.rows } in
  let d = Propagate.distinct doubled in
  checki "four distinct" 4 (Propagate.row_count d);
  let row2 =
    List.find
      (fun at -> Value.to_display (Tuple.get at.Propagate.tuple 0) = "JW0055")
      d.Propagate.rows
  in
  (* row index 2 (JW0055) carries both A1 and A2 *)
  let ids =
    List.sort compare (List.map (fun a -> a.Ann.id) (Propagate.all_annotations row2))
  in
  Alcotest.(check (list string)) "A1+A2" (List.sort compare [ a1.Ann.id; a2.Ann.id ]) ids

(* The plain relational algebra is [Propagate] over rows with empty
   annotation sets. *)

let plain_scan table =
  Propagate.of_rows (Table.schema table) (List.map snd (Table.to_list table))

let plain_genes () =
  let bp, _, _ = mk_env () in
  plain_scan (mk_db1 bp)

let tuples (t : Propagate.t) = List.map (fun at -> at.Propagate.tuple) t.Propagate.rows

let no_annotations (t : Propagate.t) =
  List.for_all (fun at -> Array.for_all (( = ) []) at.Propagate.anns) t.Propagate.rows

let test_plain_scan_select_project () =
  let rs = plain_genes () in
  checki "scan" 4 (Propagate.row_count rs);
  let sel = Propagate.select rs (Expr.Like (Expr.Col "GSequence", "ATG%")) in
  checki "select" 3 (Propagate.row_count sel);
  let proj = Propagate.project sel [ "GID" ] in
  checki "projected arity" 1 (Schema.arity proj.Propagate.schema);
  checki "projected rows" 3 (Propagate.row_count proj);
  checkb "no annotations" true (no_annotations proj)

let test_plain_join () =
  let rs = plain_genes () in
  let a = Propagate.project rs [ "GID"; "GName" ] in
  let b = Propagate.project rs [ "GID"; "GSequence" ] in
  let j =
    Propagate.join a b ~on:(Expr.Cmp (Expr.Eq, Expr.Col "GID", Expr.Col "r_GID"))
  in
  checki "join rows" 4 (Propagate.row_count j);
  checki "join arity" 4 (Schema.arity j.Propagate.schema);
  checkb "no annotations" true (no_annotations j)

let test_plain_set_operators () =
  let rs = plain_genes () in
  let all = Propagate.project rs [ "GID" ] in
  let some =
    Propagate.project
      (Propagate.select rs (Expr.Like (Expr.Col "GSequence", "ATG%")))
      [ "GID" ]
  in
  checki "intersect" 3 (Propagate.row_count (Propagate.intersect all some));
  checki "except" 1 (Propagate.row_count (Propagate.except all some));
  checki "union" 4 (Propagate.row_count (Propagate.union all some));
  (* duplicates collapse *)
  let doubled = { all with Propagate.rows = all.Propagate.rows @ all.Propagate.rows } in
  checki "union dedups" 4 (Propagate.row_count (Propagate.union doubled doubled))

let test_plain_distinct_order_limit () =
  let names = Propagate.project (plain_genes ()) [ "GName" ] in
  let dup = { names with Propagate.rows = names.Propagate.rows @ names.Propagate.rows } in
  checki "distinct" 4 (Propagate.row_count (Propagate.distinct dup));
  let sorted = Propagate.order_by names [ ("GName", `Asc) ] in
  checks "first sorted" "fruR" (Value.to_display (Tuple.get (List.hd (tuples sorted)) 0));
  let top = Propagate.limit sorted 2 in
  checki "limit" 2 (Propagate.row_count top)

let species_schema =
  Schema.make
    [
      { Schema.name = "species"; ty = Value.TString };
      { Schema.name = "len"; ty = Value.TInt };
    ]

let test_plain_group_by () =
  let rs =
    Propagate.of_rows species_schema
      (List.map
         (fun (sp, len) -> Tuple.make [ v sp; Value.VInt len ])
         [ ("ecoli", 100); ("ecoli", 200); ("yeast", 50) ])
  in
  let g =
    Propagate.group_by rs ~keys:[ "species" ]
      ~aggs:
        [
          (Expr.Count_star, "n");
          (Expr.Sum "len", "total");
          (Expr.Avg "len", "mean");
          (Expr.Min "len", "lo");
          (Expr.Max "len", "hi");
        ]
  in
  checki "groups" 2 (Propagate.row_count g);
  let ecoli = List.find (fun r -> Value.to_display (Tuple.get r 0) = "ecoli") (tuples g) in
  checki "count" 2 (Value.as_int (Tuple.get ecoli 1));
  checki "sum" 300 (Value.as_int (Tuple.get ecoli 2));
  checkb "avg" true (Value.as_float (Tuple.get ecoli 3) = 150.0);
  checki "min" 100 (Value.as_int (Tuple.get ecoli 4));
  checki "max" 200 (Value.as_int (Tuple.get ecoli 5));
  checkb "no annotations" true (no_annotations g)

let test_plain_group_by_global () =
  let rs = plain_genes () in
  let g = Propagate.group_by rs ~keys:[] ~aggs:[ (Expr.Count_star, "n") ] in
  checki "one row" 1 (Propagate.row_count g);
  checki "count" 4 (Value.as_int (Tuple.get (List.hd (tuples g)) 0));
  (* global aggregate over empty input still yields one row *)
  let empty = Propagate.select rs (Expr.Lit (Value.VBool false)) in
  let g0 = Propagate.group_by empty ~keys:[] ~aggs:[ (Expr.Count_star, "n") ] in
  checki "count empty" 0 (Value.as_int (Tuple.get (List.hd (tuples g0)) 0))

let test_plain_extend () =
  let rs =
    Propagate.extend (plain_genes ()) ~name:"tagged" ~ty:Value.TString
      (Expr.Concat (Expr.Col "GID", Expr.Lit (v "!")))
  in
  checki "arity" 4 (Schema.arity rs.Propagate.schema);
  checkb "value" true
    (List.exists (fun r -> Value.to_display (Tuple.get r 3) = "JW0080!") (tuples rs));
  checkb "no annotations" true (no_annotations rs)

let test_plain_incompatible_sets () =
  let rs = plain_genes () in
  match Propagate.union (Propagate.project rs [ "GID" ]) rs with
  | exception Expr.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected union-compatibility error"

let plain_intersect_subset =
  let ints = QCheck.(list_of_size (Gen.int_bound 20) small_nat) in
  QCheck.Test.make ~name:"plain intersect subset of both" ~count:100
    (QCheck.pair ints ints)
    (fun (xs, ys) ->
      let schema = Schema.make [ { Schema.name = "v"; ty = Value.TInt } ] in
      let rs vs =
        Propagate.of_rows schema (List.map (fun x -> Tuple.make [ Value.VInt x ]) vs)
      in
      List.for_all
        (fun t ->
          let x = Value.as_int (Tuple.get t 0) in
          List.mem x xs && List.mem x ys)
        (tuples (Propagate.intersect (rs xs) (rs ys))))

(* Annotated group-by cases, over hand-built envelopes. *)

let ann id =
  Ann.make ~id ~body:(Xml.text id) ~category:Ann.Comment ~author:"u" ~created_at:1

let annotated schema rows =
  {
    Propagate.schema;
    rows =
      List.map
        (fun (cells, anns) -> { Propagate.tuple = Tuple.make cells; anns = Array.of_list anns })
        rows;
  }

let ids l = List.map (fun a -> a.Ann.id) l

let test_group_by_null_key () =
  let rs =
    annotated species_schema
      [
        ([ Value.VNull; Value.VInt 1 ], [ [ ann "k1" ]; [] ]);
        ([ v "ecoli"; Value.VInt 2 ], [ []; [] ]);
        ([ Value.VNull; Value.VInt 3 ], [ [ ann "k2"; ann "k1" ]; [] ]);
      ]
  in
  let g = Propagate.group_by rs ~keys:[ "species" ] ~aggs:[ (Expr.Sum "len", "s") ] in
  checki "two groups" 2 (Propagate.row_count g);
  let null_group = List.hd g.Propagate.rows in
  checkb "NULL key first" true (Value.is_null (Tuple.get null_group.Propagate.tuple 0));
  checki "NULL group sums both rows" 4 (Value.as_int (Tuple.get null_group.Propagate.tuple 1));
  Alcotest.(check (list string)) "key annotations unioned" [ "k1"; "k2" ]
    (ids null_group.Propagate.anns.(0))

let test_group_by_aggregate_annotations () =
  let rs =
    annotated species_schema
      [
        ([ v "ecoli"; Value.VInt 100 ], [ [ ann "s1" ]; [ ann "a1" ] ]);
        ([ v "yeast"; Value.VInt 50 ], [ []; [ ann "y1" ] ]);
        ([ v "ecoli"; Value.VInt 200 ], [ []; [ ann "a2"; ann "a1" ] ]);
        ([ v "ecoli"; Value.VNull ], [ []; [ ann "a3" ] ]);
      ]
  in
  let g =
    Propagate.group_by rs ~keys:[ "species" ]
      ~aggs:
        [
          (Expr.Count_star, "n");
          (Expr.Count "len", "c");
          (Expr.Sum "len", "s");
          (Expr.Avg "len", "a");
          (Expr.Min "len", "lo");
          (Expr.Max "len", "hi");
        ]
  in
  Alcotest.(check (list (list string)))
    "values"
    [
      [ "ecoli"; "3"; "2"; "300"; "150"; "100"; "200" ];
      [ "yeast"; "1"; "1"; "50"; "50"; "50"; "50" ];
    ]
    (List.map
       (fun t -> List.map Value.to_display (Array.to_list t))
       (tuples g));
  let ecoli = List.hd g.Propagate.rows and yeast = List.nth g.Propagate.rows 1 in
  Alcotest.(check (list (list string)))
    "ecoli envelopes"
    [ [ "s1" ]; []; [ "a1"; "a2"; "a3" ]; [ "a1"; "a2"; "a3" ]; [ "a1"; "a2"; "a3" ];
      [ "a1"; "a2"; "a3" ]; [ "a1"; "a2"; "a3" ] ]
    (List.map ids (Array.to_list ecoli.Propagate.anns));
  Alcotest.(check (list (list string)))
    "yeast envelopes" [ []; []; [ "y1" ]; [ "y1" ]; [ "y1" ]; [ "y1" ]; [ "y1" ] ]
    (List.map ids (Array.to_list yeast.Propagate.anns))

let test_group_by_empty_annotated () =
  let rs = annotated species_schema [] in
  let g =
    Propagate.group_by rs ~keys:[]
      ~aggs:[ (Expr.Count_star, "n"); (Expr.Sum "len", "s"); (Expr.Max "len", "hi") ]
  in
  Alcotest.(check (list (list string)))
    "one row" [ [ "0"; "NULL"; "NULL" ] ]
    (List.map (fun t -> List.map Value.to_display (Array.to_list t)) (tuples g));
  checkb "empty envelopes" true (no_annotations g);
  checki "one envelope per column" 3
    (Array.length (List.hd g.Propagate.rows).Propagate.anns)

(* ----------------------------------------------------------- provenance *)

let test_prov_record_xml_roundtrip () =
  let records =
    [
      Prov_record.make
        ~operation:(Prov_record.Copied_from { db = "RegulonDB"; table = "genes" })
        ~actor:"loader" ~at:3;
      Prov_record.make ~operation:Prov_record.Local_insert ~actor:"alice" ~at:7;
      Prov_record.make
        ~operation:(Prov_record.Generated_by { program = "BLAST"; version = "2.2.15" })
        ~actor:"system" ~at:9;
      Prov_record.make
        ~operation:(Prov_record.Overwritten_from { db = "GenoBase"; table = "g" })
        ~actor:"loader" ~at:12;
    ]
  in
  List.iter
    (fun r ->
      match Prov_record.of_xml (Prov_record.to_xml r) with
      | Ok r' -> checkb (Prov_record.describe r) true (r = r')
      | Error e -> Alcotest.fail e)
    records;
  (* malformed records are rejected *)
  checkb "bad xml rejected" true
    (Result.is_error (Prov_record.of_xml (Xml.parse "<provenance><actor>x</actor></provenance>")))

let test_prov_authorization () =
  let bp, clock, mgr = mk_env () in
  let db1 = mk_db1 bp in
  let prov = Prov_store.create mgr in
  let record actor =
    Prov_store.record prov ~table:db1 ~region:Region.Whole_table
      ~record:
        (Prov_record.make
           ~operation:(Prov_record.Copied_from { db = "RegulonDB"; table = "genes" })
           ~actor ~at:(Clock.now clock))
  in
  (* end-users may not write provenance *)
  checkb "end-user rejected" true (Result.is_error (record "alice"));
  (* system may *)
  checkb "system ok" true (Result.is_ok (record "system"));
  (* registered tools may *)
  Prov_store.register_tool prov "loader";
  checkb "tool ok" true (Result.is_ok (record "loader"))

let test_prov_source_at () =
  (* Figure 8: a value copied from S2, then updated by a program, then
     overwritten from S3 — what is its source at each time? *)
  let bp, _, mgr = mk_env () in
  let db1 = mk_db1 bp in
  let prov = Prov_store.create mgr in
  let add op at =
    match
      Prov_store.record prov ~table:db1 ~region:(Region.of_cell ~row:0 ~column:"GSequence")
        ~record:(Prov_record.make ~operation:op ~actor:"system" ~at)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  add (Prov_record.Copied_from { db = "S2"; table = "t" }) 10;
  add (Prov_record.Generated_by { program = "P1"; version = "1" }) 20;
  add (Prov_record.Overwritten_from { db = "S3"; table = "t" }) 30;
  let source_at at =
    Prov_store.source_at prov ~table_name:"DB1_Gene" ~row:0 ~col:2 ~at
  in
  (match source_at 15 with
  | Some r -> checkb "S2 at t15" true (Prov_record.source_name r = Some "S2")
  | None -> Alcotest.fail "no source at 15");
  (match source_at 25 with
  | Some r -> checkb "P1 at t25" true
      (match r.Prov_record.operation with
      | Prov_record.Generated_by { program; _ } -> program = "P1"
      | _ -> false)
  | None -> Alcotest.fail "no source at 25");
  (match source_at 99 with
  | Some r -> checkb "S3 at t99" true (Prov_record.source_name r = Some "S3")
  | None -> Alcotest.fail "no source at 99");
  checkb "nothing before t10" true (source_at 5 = None);
  (* history is chronological *)
  match Prov_store.history prov ~table:db1 ~region:(Region.of_cell ~row:0 ~column:"GSequence") with
  | Ok h ->
      checki "three records" 3 (List.length h);
      checkb "sorted" true (List.map (fun r -> r.Prov_record.at) h = [ 10; 20; 30 ])
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "bdbms_annotation"
    [
      ( "region",
        [ Alcotest.test_case "normalization" `Quick test_region_normalization ] );
      ( "ann-store",
        [
          Alcotest.test_case "schemes equivalent" `Quick test_store_schemes_equivalent;
          Alcotest.test_case "rect query" `Quick test_store_rect_query;
        ] );
      ( "manager",
        [
          Alcotest.test_case "figure 2 scenario" `Quick test_manager_figure2_scenario;
          Alcotest.test_case "multiple ann tables" `Quick test_manager_multiple_ann_tables;
          Alcotest.test_case "errors" `Quick test_manager_errors;
          Alcotest.test_case "archive/restore" `Quick test_archive_restore;
          Alcotest.test_case "archive time range" `Quick test_archive_time_range;
        ] );
      ("ann-pred", [ Alcotest.test_case "predicates" `Quick test_ann_pred ]);
      ( "propagate",
        [
          Alcotest.test_case "projection drops, promote saves" `Quick test_propagate_projection;
          Alcotest.test_case "selection keeps all anns" `Quick test_propagate_selection;
          Alcotest.test_case "intersection consolidates" `Quick test_propagate_intersection;
          Alcotest.test_case "awhere and filter" `Quick test_propagate_awhere_filter;
          Alcotest.test_case "group by" `Quick test_propagate_group_by;
          Alcotest.test_case "distinct unions" `Quick test_propagate_distinct_unions_annotations;
          Alcotest.test_case "group by NULL key" `Quick test_group_by_null_key;
          Alcotest.test_case "group by aggregate annotations" `Quick
            test_group_by_aggregate_annotations;
          Alcotest.test_case "group by empty, annotated" `Quick test_group_by_empty_annotated;
          Alcotest.test_case "plain scan/select/project" `Quick test_plain_scan_select_project;
          Alcotest.test_case "plain join" `Quick test_plain_join;
          Alcotest.test_case "plain set operators" `Quick test_plain_set_operators;
          Alcotest.test_case "plain distinct/order/limit" `Quick test_plain_distinct_order_limit;
          Alcotest.test_case "plain group by" `Quick test_plain_group_by;
          Alcotest.test_case "plain global aggregate" `Quick test_plain_group_by_global;
          Alcotest.test_case "plain extend" `Quick test_plain_extend;
          Alcotest.test_case "plain incompatible sets" `Quick test_plain_incompatible_sets;
          QCheck_alcotest.to_alcotest plain_intersect_subset;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "xml roundtrip" `Quick test_prov_record_xml_roundtrip;
          Alcotest.test_case "authorization" `Quick test_prov_authorization;
          Alcotest.test_case "source at time (fig 8)" `Quick test_prov_source_at;
        ] );
    ]
