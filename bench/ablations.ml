(* Ablations over the design choices called out in DESIGN.md §5:
   buffer-pool eviction policy, the SBC-tree's 3-sided structure, and the
   page size driving the SBC storage ratio. *)

module Prng = Bdbms_util.Prng
module Pager = Bdbms_storage.Pager
module Disk = Bdbms_storage.Disk
module Btree = Bdbms_index.Btree
module Key_codec = Bdbms_index.Key_codec
module Stats = Bdbms_obs.Stats
module Sbc_tree = Bdbms_sbc.Sbc_tree
module String_btree = Bdbms_sbc.String_btree
module Workload = Bdbms_bio.Workload
open Bench_util

(* (1) Eviction policy: physical reads under a pool much smaller than the
   working set, on a skewed B+-tree probe workload. *)
let pool_policy_rows () =
  List.map
    (fun (policy, name) ->
      let disk = Disk.create ~page_size:512 ~pool_pages:16 ~policy () in
      let bp = Disk.pager disk in
      let t = Btree.create bp in
      for i = 0 to 4999 do
        Btree.insert t ~key:(Key_codec.of_int i) ~value:i
      done;
      let rng = Prng.create 97 in
      Stats.reset (Disk.stats disk);
      (* 80% of probes hit 20% of the key space *)
      for _ = 1 to 3000 do
        let k =
          if Prng.int rng 10 < 8 then Prng.int rng 1000 else Prng.int rng 5000
        in
        ignore (Btree.search t (Key_codec.of_int k))
      done;
      let s = Stats.snapshot (Disk.stats disk) in
      [
        name; fmt_i s.Stats.reads; fmt_i s.Stats.hits;
        fmt_f
          (100.0
          *. float_of_int s.Stats.hits
          /. float_of_int (max 1 (s.Stats.hits + s.Stats.reads)));
      ])
    [ (Pager.Lru, "LRU"); (Pager.Clock, "Clock") ]

(* (2) 3-sided structure on vs off: candidate filtering cost for
   single-run (high first-run-length selectivity) patterns. *)
let three_sided_rows () =
  let texts = Workload.structures (Prng.create 101) ~n:30 ~len:600 ~mean_run:8.0 in
  let disk_on, bp_on = mk_pool () in
  let disk_off, bp_off = mk_pool () in
  let on = Sbc_tree.create ~with_three_sided:true bp_on in
  let off = Sbc_tree.create ~with_three_sided:false bp_off in
  List.iter (fun s -> ignore (Sbc_tree.insert on s)) texts;
  List.iter (fun s -> ignore (Sbc_tree.insert off s)) texts;
  let patterns = [ "HHHHHHHHHHHH"; "EEEEEEEEEEEEEEEE"; "LLLLLLLL" ] in
  List.map
    (fun p ->
      let r_on, io_on =
        measure_accesses disk_on (fun () -> Sbc_tree.substring_search_3sided on p)
      in
      let r_off, io_off =
        measure_accesses disk_off (fun () -> Sbc_tree.substring_search off p)
      in
      assert (List.length r_on = List.length r_off);
      [ Printf.sprintf "%S" p; fmt_i (List.length r_on); fmt_i io_on; fmt_i io_off ])
    patterns

(* (3) Page size vs the E3 storage ratio. *)
let page_size_rows () =
  let texts = Workload.structures (Prng.create 103) ~n:20 ~len:600 ~mean_run:8.0 in
  List.map
    (fun page_size ->
      let d1 = Disk.create ~page_size ~pool_pages:4096 () in
      let d2 = Disk.create ~page_size ~pool_pages:4096 () in
      let bp1 = Disk.pager d1 in
      let bp2 = Disk.pager d2 in
      let sbc = Sbc_tree.create ~with_three_sided:false bp1 in
      let strb = String_btree.create bp2 in
      List.iter (fun s -> ignore (Sbc_tree.insert sbc s)) texts;
      List.iter (fun s -> ignore (String_btree.insert strb s)) texts;
      [
        fmt_i page_size;
        fmt_i (Sbc_tree.total_pages sbc);
        fmt_i (String_btree.total_pages strb);
        fmt_f1
          (float_of_int (String_btree.total_pages strb)
          /. float_of_int (max 1 (Sbc_tree.total_pages sbc)));
      ])
    [ 512; 1024; 4096 ]

(* (4) Secondary index vs scan for point selections through full A-SQL. *)
let index_rows () =
  let mk with_index n =
    let db = Bdbms.Db.create () in
    ignore (Bdbms.Db.exec_exn db "CREATE TABLE G (GID TEXT, v INT)");
    for i = 0 to n - 1 do
      ignore
        (Bdbms.Db.exec_exn db (Printf.sprintf "INSERT INTO G VALUES ('g%05d', %d)" i i))
    done;
    if with_index then ignore (Bdbms.Db.exec_exn db "CREATE INDEX gid_idx ON G (GID)");
    db
  in
  List.concat_map
    (fun n ->
      let scan_db = mk false n and idx_db = mk true n in
      let cost db =
        let before = Bdbms.Db.io_stats db in
        let rng = Prng.create 113 in
        for _ = 1 to 100 do
          ignore
            (Bdbms.Db.exec_exn db
               (Printf.sprintf "SELECT v FROM G WHERE GID = 'g%05d'" (Prng.int rng n)))
        done;
        let s = Stats.diff ~after:(Bdbms.Db.io_stats db) ~before in
        (s.Stats.reads + s.Stats.writes + s.Stats.hits) / 100
      in
      [ [ fmt_i n; fmt_i (cost scan_db); fmt_i (cost idx_db) ] ])
    [ 2000; 10000 ]

let run () =
  print_table
    ~title:"A1. Buffer-pool eviction policy (capacity 16, skewed probes over 5000 keys)"
    ~headers:[ "policy"; "physical reads"; "hits"; "hit rate %" ]
    ~rows:(pool_policy_rows ());
  print_table
    ~title:"A2. SBC-tree 3-sided structure ON vs OFF: accesses per single-run query"
    ~headers:[ "pattern"; "matches"; "acc (3-sided)"; "acc (scan+filter)" ]
    ~rows:(three_sided_rows ());
  print_table
    ~title:"A3. Page size vs SBC storage reduction (mean run 8)"
    ~headers:[ "page B"; "SBC pages"; "StrB pages"; "reduction x" ]
    ~rows:(page_size_rows ());
  print_table
    ~title:"A4. Point SELECT via secondary B+-tree index vs table scan (100 queries, full A-SQL path)"
    ~headers:[ "rows"; "scan acc/q"; "indexed acc/q" ]
    ~rows:(index_rows ())
