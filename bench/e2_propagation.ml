(* E2 — Annotation propagation (paper Section 3.4's 3-statement example).

   Without DBMS support, retrieving the genes common to DB1_Gene and
   DB2_Gene *with their annotations* takes three statements over explicit
   annotation columns: a data-only INTERSECT, then two joins to collect
   and consolidate each side's annotation columns.  In A-SQL it is a
   single annotated INTERSECT.  Expected shape: one statement instead of
   three, fewer intermediate tuples, comparable or better runtime, and
   identical answers. *)

module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Table = Bdbms_relation.Table
module Expr = Bdbms_relation.Expr
module Manager = Bdbms_annotation.Manager
module Region = Bdbms_annotation.Region
module Propagate = Bdbms_annotation.Propagate
module Prng = Bdbms_util.Prng
module Clock = Bdbms_util.Clock
module Workload = Bdbms_bio.Workload
open Bench_util

let v s = Value.VString s

(* schema WITH annotation columns, as in the paper's Figure 3 *)
let fig3_schema () =
  Schema.make
    [
      { Schema.name = "GID"; ty = Value.TString };
      { Schema.name = "GName"; ty = Value.TString };
      { Schema.name = "GSequence"; ty = Value.TString };
      { Schema.name = "Ann_GID"; ty = Value.TString };
      { Schema.name = "Ann_GName"; ty = Value.TString };
      { Schema.name = "Ann_GSequence"; ty = Value.TString };
    ]

let plain_schema () =
  Schema.make
    [
      { Schema.name = "GID"; ty = Value.TString };
      { Schema.name = "GName"; ty = Value.TString };
      { Schema.name = "GSequence"; ty = Value.TString };
    ]

(* Build both representations of the same annotated data:
   (a) Figure-3 tables with annotation columns, (b) plain tables + the
   annotation manager.  Half the genes are shared between DB1 and DB2. *)
let build ~n ~seed =
  let rng = Prng.create seed in
  let shared = Workload.genes rng ~n:(n / 2) ~codons:6 () in
  let own1 =
    Workload.genes (Prng.create (seed + 1)) ~n:(n / 2) ~codons:6 ~id_prefix:"JX" ()
  in
  let own2 =
    Workload.genes (Prng.create (seed + 2)) ~n:(n / 2) ~codons:6 ~id_prefix:"JY" ()
  in
  let db1_rows = shared @ own1 and db2_rows = shared @ own2 in
  let disk, bp = mk_pool ~page_size:4096 () in
  let clock = Clock.create () in
  let mgr = Manager.create bp clock in
  (* (a) Figure-3 style *)
  let mk_fig3 name rows tag =
    let t = Table.create bp ~name:(name ^ "_f3") (fig3_schema ()) in
    List.iteri
      (fun i g ->
        (* one row-level annotation on every 4th row, column annotation via
           the same id on GSequence (mirrors B3) *)
        let ann = if i mod 4 = 0 then tag ^ string_of_int i else "" in
        let seq_ann = tag ^ "_col" in
        ignore
          (Table.insert t
             (Tuple.make
                [
                  v g.Workload.gid; v g.Workload.gname; v g.Workload.gsequence;
                  v ann; v ann; v (if ann = "" then seq_ann else ann ^ "," ^ seq_ann);
                ])))
      rows;
    t
  in
  let f3_db1 = mk_fig3 "DB1" db1_rows "A" in
  let f3_db2 = mk_fig3 "DB2" db2_rows "B" in
  (* (b) bdbms-style *)
  let mk_plain name rows tag =
    let t = Table.create bp ~name (plain_schema ()) in
    List.iter
      (fun g ->
        ignore
          (Table.insert t
             (Tuple.make [ v g.Workload.gid; v g.Workload.gname; v g.Workload.gsequence ])))
      rows;
    ignore (Manager.create_annotation_table mgr ~table:t ~name:"GAnnotation" ());
    List.iteri
      (fun i _ ->
        if i mod 4 = 0 then
          ignore
            (Manager.add_text mgr ~table:t ~ann_tables:[ "GAnnotation" ]
               ~text:(tag ^ string_of_int i) ~author:"u" ~region:(Region.of_row i) ()))
      rows;
    ignore
      (Manager.add_text mgr ~table:t ~ann_tables:[ "GAnnotation" ] ~text:(tag ^ "_col")
         ~author:"u" ~region:(Region.of_column "GSequence") ());
    t
  in
  let p_db1 = mk_plain "DB1_Gene" db1_rows "A" in
  let p_db2 = mk_plain "DB2_Gene" db2_rows "B" in
  ignore disk;
  (mgr, f3_db1, f3_db2, p_db1, p_db2)

(* A Figure-3 table as plain rows: its annotations are ordinary columns. *)
let plain_scan table =
  Propagate.of_rows (Table.schema table) (List.map snd (Table.to_list table))

(* the paper's steps (a)-(c) over the Figure-3 tables *)
let manual_three_statements f3_db1 f3_db2 =
  let data_cols = [ "GID"; "GName"; "GSequence" ] in
  (* (a) data-only intersection *)
  let r1 =
    Propagate.intersect
      (Propagate.project (plain_scan f3_db1) data_cols)
      (Propagate.project (plain_scan f3_db2) data_cols)
  in
  (* (b) join back with DB1 to recover its annotation columns *)
  let r2 =
    Propagate.project
      (Propagate.join r1 (plain_scan f3_db1)
         ~on:(Expr.Cmp (Expr.Eq, Expr.Col "GID", Expr.Col "r_GID")))
      [ "GID"; "GName"; "GSequence"; "Ann_GID"; "Ann_GName"; "Ann_GSequence" ]
  in
  (* (c) join with DB2 and concatenate both sides' annotation columns *)
  let joined =
    Propagate.join r2 (plain_scan f3_db2)
      ~on:(Expr.Cmp (Expr.Eq, Expr.Col "GID", Expr.Col "r_GID"))
  in
  let r3 =
    List.fold_left
      (fun acc (a, b, out) ->
        Propagate.extend acc ~name:out ~ty:Value.TString
          (Expr.Concat (Expr.Concat (Expr.Col a, Expr.Lit (v ",")), Expr.Col b)))
      joined
      [
        ("Ann_GID", "r_Ann_GID", "U_GID");
        ("Ann_GName", "r_Ann_GName", "U_GName");
        ("Ann_GSequence", "r_Ann_GSequence", "U_GSequence");
      ]
    |> fun rs ->
    Propagate.project rs
      [ "GID"; "GName"; "GSequence"; "U_GID"; "U_GName"; "U_GSequence" ]
  in
  (r1, r2, r3)

let asql_single_statement mgr p_db1 p_db2 =
  Propagate.intersect
    (Propagate.scan mgr p_db1 ())
    (Propagate.scan mgr p_db2 ())

let run () =
  let rows_out =
    List.map
      (fun n ->
        let mgr, f3_db1, f3_db2, p_db1, p_db2 = build ~n ~seed:23 in
        let (r1, r2, r3), manual_us =
          time_us (fun () -> manual_three_statements f3_db1 f3_db2)
        in
        let manual_intermediate = Propagate.row_count r1 + Propagate.row_count r2 in
        let asql_result, asql_us =
          time_us (fun () -> asql_single_statement mgr p_db1 p_db2)
        in
        (* both answers have the same common-gene set *)
        assert (Propagate.row_count r3 = Propagate.row_count asql_result);
        [
          fmt_i n;
          "3";
          "1";
          fmt_i manual_intermediate;
          "0";
          fmt_f (manual_us /. 1000.0);
          fmt_f (asql_us /. 1000.0);
          fmt_i (Propagate.row_count asql_result);
        ])
      [ 200; 800; 2000 ]
  in
  print_table
    ~title:
      "E2. Annotation propagation: manual 3-statement SQL (Fig 3 columns) vs one A-SQL INTERSECT"
    ~headers:
      [
        "genes/table"; "stmts manual"; "stmts A-SQL"; "interm. tuples manual";
        "interm. tuples A-SQL"; "manual ms"; "A-SQL ms"; "common genes";
      ]
    ~rows:rows_out
