(* E8 — Dependency tracking overheads (paper Section 5, Figure 10).

   (a) Outdated-bitmap storage: raw bitmap vs the paper's proposed
       RLE-compressed form, for clustered vs scattered outdated cells
       (clustered marks — the common case when one gene's subtree goes
       stale — compress very well).
   (b) Invalidation cascade throughput: updates/second through the
       gene → protein (executable re-derivation) → function (mark) chains
       at several batch sizes. *)

module Prng = Bdbms_util.Prng
module Value = Bdbms_relation.Value
module Schema = Bdbms_relation.Schema
module Tuple = Bdbms_relation.Tuple
module Table = Bdbms_relation.Table
module Catalog = Bdbms_relation.Catalog
module Bitmap = Bdbms_util.Bitmap
module Tracker = Bdbms_dependency.Tracker
module Rule = Bdbms_dependency.Rule
module Translate = Bdbms_bio.Translate
module Procedure = Bdbms_dependency.Procedure
module Dna = Bdbms_bio.Dna
open Bench_util

let bitmap_rows () =
  let mk rows cols fill_fn =
    let b = Bitmap.create ~rows ~cols in
    fill_fn b;
    (Bitmap.raw_size_bytes b, Bitmap.compressed_size_bytes b, Bitmap.count_set b)
  in
  List.map
    (fun (name, rows, fill) ->
      let raw, compressed, set = mk rows 8 fill in
      [
        name; fmt_i (rows * 8); fmt_i set; fmt_i raw; fmt_i compressed;
        fmt_f1 (float_of_int raw /. float_of_int compressed);
      ])
    [
      ( "clustered 5%", 20000,
        fun b ->
          for row = 9500 to 10499 do
            Bitmap.set_row b ~row true
          done );
      ( "scattered 5%", 20000,
        fun b ->
          let rng = Prng.create 73 in
          for _ = 1 to 8000 do
            Bitmap.set b ~row:(Prng.int rng 20000) ~col:(Prng.int rng 8) true
          done );
      ("all clean", 20000, fun _ -> ());
      ( "one column", 20000,
        fun b -> Bitmap.set_col b ~col:3 true );
    ]

(* gene -> protein chains *)
let build_chains n =
  let _, bp = mk_pool ~page_size:4096 ~capacity:8192 () in
  let catalog = Catalog.create bp in
  let gene =
    Result.get_ok
      (Catalog.create_table catalog ~name:"Gene"
         (Schema.make
            [
              { Schema.name = "GID"; ty = Value.TString };
              { Schema.name = "GSequence"; ty = Value.TDna };
            ]))
  in
  let protein =
    Result.get_ok
      (Catalog.create_table catalog ~name:"Protein"
         (Schema.make
            [
              { Schema.name = "GID"; ty = Value.TString };
              { Schema.name = "PSequence"; ty = Value.TProtein };
              { Schema.name = "PFunction"; ty = Value.TString };
            ]))
  in
  let tracker = Tracker.create catalog in
  let p = Translate.procedure () in
  let lab = Procedure.non_executable ~name:"Lab" () in
  ignore
    (Tracker.add_rule tracker
       (Rule.make ~id:"r1"
          ~sources:[ Rule.attr "Gene" "GSequence" ]
          ~target:(Rule.attr "Protein" "PSequence") p));
  ignore
    (Tracker.add_rule tracker
       (Rule.make ~id:"r2"
          ~sources:[ Rule.attr "Protein" "PSequence" ]
          ~target:(Rule.attr "Protein" "PFunction") lab));
  let rng = Prng.create 79 in
  for i = 0 to n - 1 do
    let dna = Dna.random_gene rng ~codons:12 in
    let prot = Result.get_ok (Translate.translate dna) in
    let g =
      Result.get_ok
        (Table.insert gene
           (Tuple.make [ Value.VString (Printf.sprintf "JW%04d" i); Value.VDna dna ]))
    in
    let pr =
      Result.get_ok
        (Table.insert protein
           (Tuple.make
              [
                Value.VString (Printf.sprintf "JW%04d" i); Value.VProtein prot;
                Value.VString "assayed";
              ]))
    in
    ignore (Tracker.link_rows tracker ~rule_id:"r1" ~source_rows:[ g ] ~target_row:pr);
    ignore (Tracker.link_rows tracker ~rule_id:"r2" ~source_rows:[ pr ] ~target_row:pr)
  done;
  (catalog, gene, tracker)

(* The tracker's cell writer: the bare table write, since these tables
   carry no index or statistics. *)
let write_cell catalog (c : Bdbms_dependency.Dep_graph.cell) value =
  Result.map ignore
    (Table.update_cell (Catalog.find_exn catalog c.table) ~row:c.row ~col:c.col value)

let cascade_rows () =
  List.map
    (fun (n, batch) ->
      let catalog, gene, tracker = build_chains n in
      let rng = Prng.create 83 in
      let reports, us =
        time_us (fun () ->
            List.init batch (fun _ ->
                let row = Prng.int rng n in
                let dna = Dna.random_gene rng ~codons:12 in
                ignore (Table.update_cell gene ~row ~col:1 (Value.VDna dna));
                Tracker.on_cell_update tracker ~write:(write_cell catalog) ~table:"Gene"
                  ~row ~col:1))
      in
      let recomputed =
        List.fold_left (fun acc r -> acc + List.length r.Tracker.recomputed) 0 reports
      in
      let marked =
        List.fold_left (fun acc r -> acc + List.length r.Tracker.marked) 0 reports
      in
      [
        fmt_i n; fmt_i batch; fmt_i recomputed; fmt_i marked;
        fmt_f (us /. float_of_int batch /. 1000.0);
        fmt_f1 (float_of_int batch /. (us /. 1e6));
      ])
    [ (1000, 10); (1000, 100); (1000, 500); (5000, 100) ]

let run () =
  print_table
    ~title:
      "E8a. Outdated bitmaps: raw vs RLE-compressed bytes (20000-row x 8-col table, Fig 10)"
    ~headers:[ "pattern"; "cells"; "set bits"; "raw B"; "RLE B"; "compression x" ]
    ~rows:(bitmap_rows ());
  print_table
    ~title:
      "E8b. Invalidation cascades: gene edits re-derive PSequence (tool P) and mark PFunction"
    ~headers:
      [ "chains"; "updates"; "recomputed"; "marked"; "ms/update"; "updates/s" ]
    ~rows:(cascade_rows ())
