(* Tests for bdbms_relation: values, schemas, tuples, tables, expressions,
   relational operators. *)

open Bdbms_relation
module Rle = Bdbms_util.Rle

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let v_int n = Value.VInt n
let v_str s = Value.VString s
let v_float f = Value.VFloat f

let mk_env ?(page_size = 1024) ?(capacity = 32) () =
  let d = Bdbms_storage.Disk.create ~page_size ~pool_pages:capacity () in
  Bdbms_storage.Disk.pager d

let gene_schema () =
  Schema.make
    [
      { Schema.name = "GID"; ty = Value.TString };
      { Schema.name = "GName"; ty = Value.TString };
      { Schema.name = "GSequence"; ty = Value.TDna };
    ]

(* ---------------------------------------------------------------- Value *)

let test_value_codec () =
  let values =
    [
      Value.VNull;
      v_int 42;
      v_int (-7);
      v_float 3.25;
      Value.VBool true;
      Value.VBool false;
      v_str "hello";
      v_str "";
      Value.VDna "ATGAAAGTATC";
      Value.VProtein "MKVSVPGM";
      Value.VRle (Rle.encode "LLLEEEHHH");
    ]
  in
  List.iter
    (fun v ->
      let enc = Value.encode v in
      let v', pos = Value.decode enc ~pos:0 in
      checkb (Value.to_display v) true (Value.equal v v' || (Value.is_null v && Value.is_null v'));
      checki "consumed all" (String.length enc) pos)
    values

let test_value_equal_across_seq_types () =
  checkb "rle = raw" true
    (Value.equal (Value.VRle (Rle.encode "HHEEL")) (Value.VProtein "HHEEL"));
  checkb "string = dna" true (Value.equal (v_str "ACGT") (Value.VDna "ACGT"));
  checkb "int = float" true (Value.equal (v_int 2) (v_float 2.0));
  checkb "null != null is false" true (Value.equal Value.VNull Value.VNull)

let test_value_compare () =
  checkb "null first" true (Value.compare Value.VNull (v_int 0) < 0);
  checkb "int order" true (Value.compare (v_int 1) (v_int 2) < 0);
  checkb "mixed numeric" true (Value.compare (v_int 1) (v_float 1.5) < 0);
  checkb "string order" true (Value.compare (v_str "a") (v_str "b") < 0);
  checkb "rle vs raw" true
    (Value.compare (Value.VRle (Rle.encode "AAB")) (v_str "AAC") < 0)

let test_value_types () =
  checkb "conforms" true (Value.conforms (v_int 3) Value.TInt);
  checkb "null conforms" true (Value.conforms Value.VNull Value.TDna);
  checkb "mismatch" false (Value.conforms (v_str "x") Value.TInt);
  Alcotest.check Alcotest.(option string) "parse type" (Some "DNA")
    (Option.map Value.type_name (Value.type_of_name "dna"));
  Alcotest.check Alcotest.(option string) "varchar is text" (Some "TEXT")
    (Option.map Value.type_name (Value.type_of_name "VARCHAR"))

(* --------------------------------------------------------------- Schema *)

let test_schema_basic () =
  let s = gene_schema () in
  checki "arity" 3 (Schema.arity s);
  Alcotest.check Alcotest.(option int) "find" (Some 1) (Schema.index_of s "gname");
  Alcotest.check Alcotest.(option int) "missing" None (Schema.index_of s "nope");
  checkb "mem" true (Schema.mem s "GID")

let test_schema_duplicate () =
  match
    Schema.make
      [ { Schema.name = "A"; ty = Value.TInt }; { Schema.name = "a"; ty = Value.TInt } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

let test_schema_project_concat () =
  let s = gene_schema () in
  let p = Schema.project s [ "GSequence"; "GID" ] in
  checki "projected arity" 2 (Schema.arity p);
  checks "order kept" "GSequence" (Schema.column_at p 0).Schema.name;
  let j = Schema.concat s s in
  checki "concat arity" 6 (Schema.arity j);
  (* renamed duplicates *)
  checkb "renamed" true (Schema.mem j "r_GID")

let test_schema_union_compatible () =
  let a = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let b = Schema.make [ { Schema.name = "y"; ty = Value.TInt } ] in
  let c = Schema.make [ { Schema.name = "x"; ty = Value.TString } ] in
  checkb "compatible" true (Schema.union_compatible a b);
  checkb "incompatible" false (Schema.union_compatible a c)

(* ---------------------------------------------------------------- Tuple *)

let test_tuple_codec () =
  let t = Tuple.make [ v_str "JW0080"; v_str "mraW"; Value.VDna "ATGATGG" ] in
  let t' = Tuple.decode (Tuple.encode t) in
  checkb "roundtrip" true (Tuple.equal t t')

let test_tuple_check () =
  let s = gene_schema () in
  checkb "ok" true
    (Tuple.check s (Tuple.make [ v_str "a"; v_str "b"; Value.VDna "ACGT" ]) = Ok ());
  checkb "null ok" true
    (Tuple.check s (Tuple.make [ v_str "a"; Value.VNull; Value.VNull ]) = Ok ());
  checkb "arity" true
    (Result.is_error (Tuple.check s (Tuple.make [ v_str "a" ])));
  checkb "type" true
    (Result.is_error (Tuple.check s (Tuple.make [ v_int 1; v_str "b"; Value.VDna "A" ])))

(* ---------------------------------------------------------------- Table *)

let test_table_insert_get () =
  let bp = mk_env () in
  let t = Table.create bp ~name:"Gene" (gene_schema ()) in
  let row =
    match Table.insert t (Tuple.make [ v_str "JW0080"; v_str "mraW"; Value.VDna "ATG" ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checki "first row is 0" 0 row;
  (match Table.get t row with
  | Some tuple -> checks "GID" "JW0080" (Value.to_display (Tuple.get tuple 0))
  | None -> Alcotest.fail "row missing");
  checkb "bad type rejected" true
    (Result.is_error (Table.insert t (Tuple.make [ v_int 3; v_str "x"; Value.VNull ])))

let test_table_stable_row_numbers () =
  let bp = mk_env () in
  let t = Table.create bp ~name:"T" (gene_schema ()) in
  let ins gid =
    match Table.insert t (Tuple.make [ v_str gid; v_str "n"; Value.VNull ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let r0 = ins "a" and r1 = ins "b" and r2 = ins "c" in
  checkb "delete" true (Table.delete t r1);
  checkb "r1 dead" false (Table.is_live t r1);
  (* numbering unchanged, new rows get fresh numbers *)
  let r3 = ins "d" in
  checki "r3" 3 r3;
  checki "row_count includes tombstones" 4 (Table.row_count t);
  checki "live_count" 3 (Table.live_count t);
  ignore r0;
  ignore r2

let test_table_update_cell () =
  let bp = mk_env () in
  let t = Table.create bp ~name:"T" (gene_schema ()) in
  let row =
    match Table.insert t (Tuple.make [ v_str "g"; v_str "n"; Value.VDna "AAA" ]) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  (match Table.update_cell t ~row ~col:2 (Value.VDna "CCC") with
  | Ok old -> checks "old value" "AAA" (Value.to_display old)
  | Error e -> Alcotest.fail e);
  (match Table.get t row with
  | Some tuple -> checks "new value" "CCC" (Value.to_display (Tuple.get tuple 2))
  | None -> Alcotest.fail "row missing");
  checkb "bad col" true (Result.is_error (Table.update_cell t ~row ~col:9 Value.VNull));
  checkb "bad type" true
    (Result.is_error (Table.update_cell t ~row ~col:2 (v_int 3)))

let test_table_many_rows () =
  let bp = mk_env ~page_size:512 ~capacity:8 () in
  let t = Table.create bp ~name:"Big" (gene_schema ()) in
  for i = 0 to 199 do
    match
      Table.insert t
        (Tuple.make [ v_str (Printf.sprintf "JW%04d" i); v_str "g"; Value.VDna "ACGTACGT" ])
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  checki "live" 200 (Table.live_count t);
  checkb "spans pages" true (Table.storage_pages t > 1);
  let seen = ref 0 in
  Table.iter t (fun _ _ -> incr seen);
  checki "iter sees all" 200 !seen

(* The row map against a model: inserts, relocating updates, deletes
   and resurrections over pages small enough that the map grows two
   interior levels, through a 4-frame pool (so every read is a fault);
   then a reattach from the head alone must see the same rows. *)
let test_table_row_map_model () =
  let bp = mk_env ~page_size:128 ~capacity:4 () in
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt }; { Schema.name = "v"; ty = Value.TString } ]
  in
  let t = Table.create bp ~name:"M" schema in
  let model = Hashtbl.create 64 in
  let rng = Random.State.make [| 16 |] in
  let tuple k len = Tuple.make [ v_int k; v_str (String.make len 'x') ] in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  for i = 0 to 1499 do
    let row = ok (Table.insert t (tuple i 4)) in
    checki "dense row numbers" i row;
    Hashtbl.replace model row (tuple i 4);
    if i mod 5 = 4 then begin
      let r = Random.State.int rng (i + 1) in
      match Random.State.int rng 3 with
      | 0 when Hashtbl.mem model r ->
          (* grows the record: relocates once the page is full *)
          let tu = tuple (-r) (8 + Random.State.int rng 40) in
          ok (Table.update t r tu);
          Hashtbl.replace model r tu
      | 1 ->
          checkb "delete iff live" (Hashtbl.mem model r) (Table.delete t r);
          Hashtbl.remove model r
      | _ when not (Hashtbl.mem model r) ->
          ok (Table.resurrect t r (tuple (r + 10_000) 2));
          Hashtbl.replace model r (tuple (r + 10_000) 2)
      | _ -> ()
    end
  done;
  let expect = List.sort compare (Hashtbl.fold (fun r tu acc -> (r, Tuple.encode tu) :: acc) model []) in
  let check what t =
    checki (what ^ ": row count") 1500 (Table.row_count t);
    checki (what ^ ": live count") (Hashtbl.length model) (Table.live_count t);
    let got = List.map (fun (r, tu) -> (r, Tuple.encode tu)) (Table.to_list t) in
    checkb (what ^ ": iter matches the model") true (got = expect);
    List.iter
      (fun rows ->
        let next = Table.batches ~batch_rows:rows ~row_id:"#row" t in
        let seen = ref [] in
        let rec pull () =
          match next () with
          | None -> ()
          | Some b ->
              for i = 0 to Batch.rows b - 1 do
                let tu = Batch.tuple_of b i in
                let n = Array.length tu in
                let row = match tu.(n - 1) with Value.VInt r -> r | _ -> -1 in
                let tu = Array.sub tu 0 (n - 1) in
                seen := (row, Tuple.encode tu) :: !seen
              done;
              pull ()
        in
        pull ();
        checkb
          (Printf.sprintf "%s: batches of %d match the model" what rows)
          true (List.rev !seen = expect))
      [ 1; 7; 1024 ];
    checki (what ^ ": no pin leaked") 0 (Bdbms_storage.Pager.pinned bp)
  in
  check "live" t;
  check "reattached" (Table.attach bp ~name:"M" schema (Table.head t))

(* The catalog root holds a fixed-size head per table, so its length —
   less the optimizer-statistics records (tag 18), whose histograms
   legitimately follow the data — does not move as rows are inserted,
   deleted, or relocated by updates. *)
let root_len_without_stats db =
  let blob = Bytes.to_string (Bdbms_asql.Context.encode_catalog (Bdbms.Db.context db)) in
  let u32 pos = Int32.to_int (String.get_int32_le blob pos) land 0xFFFFFFFF in
  let count = u32 8 in
  let rec go pos k stats =
    if k = count then stats
    else
      let len = u32 (pos + 1) in
      let rec_len = 1 + 4 + len + 4 in
      go (pos + rec_len) (k + 1) (if blob.[pos] = '\018' then stats + rec_len else stats)
  in
  String.length blob - go 12 0 0

let test_root_length_invariant () =
  let db = Bdbms.Db.create () in
  let exec sql = ignore (Bdbms.Db.exec_exn db sql) in
  exec "CREATE TABLE Gene (GID TEXT, GSequence TEXT)";
  let insert lo hi =
    exec
      ("INSERT INTO Gene VALUES "
      ^ String.concat ", "
          (List.init (hi - lo) (fun i ->
               Printf.sprintf "('JW%05d', 'ACGTACGTAC')" (lo + i))))
  in
  insert 0 10;
  let at10 = root_len_without_stats db in
  let rec fill n =
    if n < 10_000 then begin
      let hi = min 10_000 (n + 500) in
      insert n hi;
      fill hi
    end
  in
  fill 10;
  checki "rows" 10_000
    (Table.row_count (Catalog.find_exn (Bdbms.Db.context db).Bdbms_asql.Context.catalog "Gene"));
  checki "10 vs 10,000 rows" at10 (root_len_without_stats db);
  exec "DELETE FROM Gene WHERE GID LIKE 'JW%3'";
  checki "after deletes" at10 (root_len_without_stats db);
  let pages_before =
    Table.storage_pages (Catalog.find_exn (Bdbms.Db.context db).Bdbms_asql.Context.catalog "Gene")
  in
  exec ("UPDATE Gene SET GSequence = '" ^ String.make 200 'T' ^ "' WHERE GID LIKE 'JW%7'");
  checkb "updates relocated records" true
    (Table.storage_pages (Catalog.find_exn (Bdbms.Db.context db).Bdbms_asql.Context.catalog "Gene")
    > pages_before);
  checki "after relocating updates" at10 (root_len_without_stats db);
  Bdbms.Db.close db

(* The same invariant for annotations, dependency instances and outdated
   marks: each keeps a fixed-size head in the root (the registry's, one
   per rule, one per marked table) over its own pages.  The annotation
   store's heap page list (tag 4) still sits in the root, four bytes per
   store page, so the annotation phase subtracts exactly that. *)
let test_root_length_annotations_links_marks () =
  let module Ctx = Bdbms_asql.Context in
  let module Manager = Bdbms_annotation.Manager in
  let module Ann_store = Bdbms_annotation.Ann_store in
  let module Region = Bdbms_annotation.Region in
  let module Tracker = Bdbms_dependency.Tracker in
  let module Procedure = Bdbms_dependency.Procedure in
  let db = Bdbms.Db.create () in
  let ctx = Bdbms.Db.context db in
  let exec sql = ignore (Bdbms.Db.exec_exn db sql) in
  exec "CREATE TABLE Gene (GID TEXT, GSequence DNA)";
  exec "CREATE TABLE Protein (PName TEXT, PSequence PROTEIN, PNote TEXT)";
  let rows table n mk =
    exec
      (Printf.sprintf "INSERT INTO %s VALUES %s" table
         (String.concat ", " (List.init n mk)))
  in
  rows "Gene" 100 (fun i -> Printf.sprintf "('g%d', 'ATGGCC')" i);
  for chunk = 0 to 9 do
    rows "Protein" 1_000 (fun i -> Printf.sprintf "('p%d', 'MA', 'n')" ((chunk * 1_000) + i))
  done;
  exec "CREATE ANNOTATION TABLE notes ON Gene";
  let gene = Catalog.find_exn ctx.Ctx.catalog "Gene" in
  let annotate lo hi =
    for i = lo to hi - 1 do
      match
        Manager.add_text ctx.Ctx.ann ~table:gene ~ann_tables:[ "notes" ]
          ~text:(Printf.sprintf "curated note %d: %s" i (String.make (i mod 40) 'x'))
          ~author:"curator" ~region:(Region.of_row (i mod 100)) ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    done
  in
  let store_pages () =
    match Manager.store_of ctx.Ctx.ann ~table_name:"Gene" ~name:"notes" with
    | Some st -> Ann_store.storage_pages st
    | None -> Alcotest.fail "no notes store"
  in
  let ann_len () = root_len_without_stats db - (4 * store_pages ()) in
  annotate 0 10;
  let at10 = ann_len () in
  annotate 10 5_000;
  checki "registered" 5_000 (Manager.registry_size ctx.Ctx.ann);
  checkb "the store grew" true (store_pages () > 10);
  checki "10 vs 5,000 annotations" at10 (ann_len ());
  exec "ARCHIVE ANNOTATION FROM Gene.notes ON (SELECT * FROM Gene WHERE GID = 'g7')";
  checki "after archive" at10 (ann_len ());
  exec "RESTORE ANNOTATION FROM Gene.notes ON (SELECT * FROM Gene WHERE GID = 'g7')";
  checki "after restore" at10 (ann_len ());
  (* links: gene row (i mod 100) derives protein row i *)
  exec "CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P";
  let link lo hi =
    for i = lo to hi - 1 do
      match
        Tracker.link_rows ctx.Ctx.tracker ~rule_id:"r1" ~source_rows:[ i mod 100 ] ~target_row:i
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e
    done
  in
  link 0 10;
  let links10 = ann_len () in
  link 10 10_000;
  checki "10 vs 10,000 links" links10 (ann_len ());
  (* marks: r2 cannot re-derive PNote, so a gene update marks it *)
  ignore
    (Ctx.register_procedure ctx
       (Procedure.non_executable ~name:"Curate" ~description:"manual review" ()));
  exec "CREATE DEPENDENCY r2 FROM Protein.PSequence TO Protein.PNote USING Curate";
  for i = 0 to 9_999 do
    ignore (Tracker.link_rows ctx.Ctx.tracker ~rule_id:"r2" ~source_rows:[ i ] ~target_row:i)
  done;
  exec "UPDATE Gene SET GSequence = 'ATGAAA' WHERE GID = 'g0'";
  let marked () = List.length (Tracker.outdated_cells ctx.Ctx.tracker ~table:"Protein") in
  checki "one gene, 100 proteins marked" 100 (marked ());
  let marks100 = ann_len () in
  exec "UPDATE Gene SET GSequence = 'ATGAAA' WHERE GID LIKE 'g%'";
  checki "every protein marked" 10_000 (marked ());
  checki "100 vs 10,000 marks" marks100 (ann_len ());
  exec "VALIDATE Protein ROW 5 COLUMN PNote";
  checki "after a re-validation" marks100 (ann_len ());
  Bdbms.Db.close db

(* ----------------------------------------------------------------- Expr *)

let abc_schema =
  Schema.make
    [
      { Schema.name = "a"; ty = Value.TInt };
      { Schema.name = "b"; ty = Value.TString };
      { Schema.name = "c"; ty = Value.TFloat };
    ]

let abc_tuple = Tuple.make [ v_int 10; v_str "hello"; v_float 2.5 ]

let test_expr_eval () =
  let open Expr in
  let ev e = eval abc_schema abc_tuple e in
  checkb "col" true (Value.equal (ev (Col "a")) (v_int 10));
  checkb "arith" true (Value.equal (ev (Arith (Add, Col "a", Lit (v_int 5)))) (v_int 15));
  checkb "mixed arith" true
    (Value.equal (ev (Arith (Mul, Col "c", Lit (v_int 2)))) (v_float 5.0));
  checkb "cmp" true (Value.equal (ev (Cmp (Gt, Col "a", Lit (v_int 3)))) (Value.VBool true));
  checkb "concat" true
    (Value.equal (ev (Concat (Col "b", Lit (v_str "!")))) (v_str "hello!"))

let test_expr_pred_null_logic () =
  let open Expr in
  let schema = Schema.make [ { Schema.name = "x"; ty = Value.TInt } ] in
  let null_tuple = Tuple.make [ Value.VNull ] in
  (* NULL comparisons are not true *)
  checkb "null = 1 is false" false
    (eval_pred schema null_tuple (Cmp (Eq, Col "x", Lit (v_int 1))));
  checkb "null <> 1 is false" false
    (eval_pred schema null_tuple (Cmp (Neq, Col "x", Lit (v_int 1))));
  checkb "is null" true (eval_pred schema null_tuple (Is_null (Col "x")));
  (* three-valued AND/OR *)
  checkb "null AND false = false" false
    (eval_pred schema null_tuple
       (And (Cmp (Eq, Col "x", Lit (v_int 1)), Lit (Value.VBool false))));
  checkb "null OR true = true" true
    (eval_pred schema null_tuple
       (Or (Cmp (Eq, Col "x", Lit (v_int 1)), Lit (Value.VBool true))))

let test_expr_like () =
  checkb "exact" true (Expr.like_match ~pattern:"abc" "abc");
  checkb "pct" true (Expr.like_match ~pattern:"a%" "abcdef");
  checkb "pct middle" true (Expr.like_match ~pattern:"a%f" "abcdef");
  checkb "underscore" true (Expr.like_match ~pattern:"a_c" "abc");
  checkb "miss" false (Expr.like_match ~pattern:"a_c" "abbc");
  checkb "pct empty" true (Expr.like_match ~pattern:"%" "");
  checkb "double pct" true (Expr.like_match ~pattern:"%JW%" "xxJW0080")

let test_expr_errors () =
  let open Expr in
  (match eval abc_schema abc_tuple (Col "nope") with
  | exception Eval_error _ -> ()
  | _ -> Alcotest.fail "unknown column should fail");
  (match eval abc_schema abc_tuple (Arith (Div, Col "a", Lit (v_int 0))) with
  | exception Eval_error _ -> ()
  | _ -> Alcotest.fail "division by zero should fail");
  (match eval abc_schema abc_tuple (Arith (Add, Col "b", Lit (v_int 1))) with
  | exception Eval_error _ -> ()
  | _ -> Alcotest.fail "string arith should fail")

let test_expr_columns_used () =
  let open Expr in
  let e = And (Cmp (Eq, Col "a", Col "b"), Like (Col "a", "x%")) in
  Alcotest.check Alcotest.(list string) "columns" [ "a"; "b" ] (columns_used e)

let relation_qcheck =
  let module T = Tuple in
  let open QCheck in
  let tuple_gen =
    make
      ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%s,%f)" a b c)
      Gen.(triple int (small_string ~gen:printable) float)
  in
  [
    Test.make ~name:"tuple codec roundtrip" ~count:500 tuple_gen (fun (a, b, c) ->
        let t = T.make [ v_int a; v_str b; v_float c ] in
        T.equal t (T.decode (T.encode t)));
    Test.make ~name:"tuple compare is a total order consistent with equal" ~count:300
      (pair tuple_gen tuple_gen)
      (fun ((a1, b1, c1), (a2, b2, c2)) ->
        let t1 = T.make [ v_int a1; v_str b1; v_float c1 ] in
        let t2 = T.make [ v_int a2; v_str b2; v_float c2 ] in
        let c = T.compare t1 t2 in
        if c = 0 then T.equal t1 t2 else T.compare t2 t1 = -c);
    Test.make ~name:"group key equal iff compare equal" ~count:500
      (let value =
         Gen.(
           oneof
             [
               return Value.VNull;
               map (fun b -> Value.VBool b) bool;
               map (fun i -> Value.VInt i) (int_range (-3) 3);
               map (fun f -> Value.VFloat f)
                 (oneofl [ 0.0; -0.0; 1.0; -2.0; 1.5; Float.nan; Float.infinity ]);
               map (fun s -> Value.VString s) (oneofl [ ""; "a"; "AC" ]);
               map (fun s -> Value.VDna s) (oneofl [ "a"; "AC" ]);
             ])
       in
       make
         ~print:(fun (a, b) -> Value.to_display a ^ " / " ^ Value.to_display b)
         Gen.(pair value value))
      (fun (a, b) ->
        Value.group_key a = Value.group_key b = (Value.compare a b = 0));
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdbms_relation"
    [
      ( "value",
        [
          Alcotest.test_case "codec" `Quick test_value_codec;
          Alcotest.test_case "cross-type equality" `Quick test_value_equal_across_seq_types;
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "types" `Quick test_value_types;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "duplicates" `Quick test_schema_duplicate;
          Alcotest.test_case "project/concat" `Quick test_schema_project_concat;
          Alcotest.test_case "union compatible" `Quick test_schema_union_compatible;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "codec" `Quick test_tuple_codec;
          Alcotest.test_case "check" `Quick test_tuple_check;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert/get" `Quick test_table_insert_get;
          Alcotest.test_case "stable row numbers" `Quick test_table_stable_row_numbers;
          Alcotest.test_case "update cell" `Quick test_table_update_cell;
          Alcotest.test_case "many rows" `Quick test_table_many_rows;
          Alcotest.test_case "row map vs model" `Quick test_table_row_map_model;
          Alcotest.test_case "root length invariant" `Quick test_root_length_invariant;
          Alcotest.test_case "root length: annotations, links, marks" `Quick
            test_root_length_annotations_links_marks;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "null logic" `Quick test_expr_pred_null_logic;
          Alcotest.test_case "like" `Quick test_expr_like;
          Alcotest.test_case "errors" `Quick test_expr_errors;
          Alcotest.test_case "columns used" `Quick test_expr_columns_used;
        ] );
      ("relation-properties", q relation_qcheck);
    ]
