(* E11 — Durability costs: WAL append/commit throughput, checkpoint cost,
   and crash-recovery replay time as the database grows.

   Not a paper experiment: the authors' prototype sat on PostgreSQL and
   inherited durability for free (Section 2's architecture), so the paper
   never measures it.  Our reproduction owns the storage engine, so the
   write-ahead log, checkpointing, and recovery added for the ROADMAP's
   production north star are measured here instead.  Expected shape:
   appends are buffered (cheap); group-flushed commits amortize the
   fsync; checkpoint and recovery cost grow linearly with dirty pages /
   logged records. *)

module Disk = Bdbms_storage.Disk
module Page = Bdbms_storage.Page
module Stats = Bdbms_obs.Stats
open Bench_util

let page_size = 1024

let tmp_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdbms_e11_%d.db" (Unix.getpid ()))

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

(* [n] page writes in commit groups of [group], against a fresh durable
   disk; returns (append+commit µs, checkpoint µs, recovery µs, stats). *)
let run_one ~n ~group =
  let path = tmp_path () in
  cleanup path;
  (* a large auto-checkpoint budget so the full log survives to be
     replayed — the default 4 MiB would truncate it mid-run *)
  let d = Disk.open_file ~page_size ~wal_autocheckpoint:(256 * 1024 * 1024) path in
  let ids = Array.init n (fun _ -> Disk.alloc d) in
  Disk.checkpoint d;
  let page = Page.create ~size:page_size () in
  Page.set_bytes page ~pos:0 (String.make 64 'x');
  let (), wal_us =
    time_us (fun () ->
        Array.iteri
          (fun i id ->
            Disk.write d id page;
            if (i + 1) mod group = 0 then Disk.commit d)
          ids;
        Disk.commit d)
  in
  let wal_bytes = Disk.wal_size d in
  let (), ckpt_us = time_us (fun () -> Disk.checkpoint d) in
  (* build a WAL of n committed writes again, then crash and reopen *)
  Array.iteri
    (fun i id ->
      Disk.write d id page;
      if (i + 1) mod group = 0 then Disk.commit d)
    ids;
  Disk.commit d;
  let stats = Stats.snapshot (Disk.stats d) in
  Disk.abandon d;
  let reopened, rec_us = time_us (fun () -> Disk.open_file ~page_size path) in
  let recovered =
    match Disk.recovery_info reopened with
    | Some o -> o.Bdbms_storage.Recovery.applied
    | None -> 0
  in
  Disk.close reopened;
  cleanup path;
  (wal_us, wal_bytes, ckpt_us, rec_us, recovered, stats)

(* The durable catalog (PR 3) snapshots every manager's metadata through
   the WAL on each commit, and reopening bootstraps the full engine from
   page 0.  Measure both sides on a metadata-heavy database: the
   per-commit catalog write, and the cold reopen (WAL replay + catalog
   restore). *)
let catalog_overhead () =
  let path = tmp_path () ^ ".cat" in
  cleanup path;
  let db = Bdbms.Db.create ~page_size ~path () in
  let e sql = ignore (Bdbms.Db.exec_exn db sql) in
  for i = 0 to 7 do
    e (Printf.sprintf "CREATE TABLE T%d (k TEXT, seq DNA)" i);
    e (Printf.sprintf "CREATE ANNOTATION TABLE notes%d ON T%d" i i);
    e (Printf.sprintf "INSERT INTO T%d VALUES ('r%d', 'ATGATG')" i i);
    e (Printf.sprintf "CREATE USER u%d" i);
    e (Printf.sprintf "GRANT SELECT ON T%d TO u%d" i i)
  done;
  e "CREATE DEPENDENCY r1 FROM T0.seq TO T1.seq USING P";
  let commits = 64 in
  let ctx = Bdbms.Db.context db in
  let (), persist_us =
    time_us (fun () ->
        for _ = 1 to commits do
          Bdbms_asql.Context.persist_catalog ctx
        done)
  in
  Bdbms.Db.close db;
  let reopened = ref None in
  let (), boot_us = time_us (fun () -> reopened := Some (Bdbms.Db.create ~page_size ~path ())) in
  let db2 = Option.get !reopened in
  let records = Bdbms.Db.catalog_records db2 in
  Bdbms.Db.close db2;
  cleanup path;
  print_table
    ~title:
      "E11b. Durable catalog: per-commit snapshot vs cold self-bootstrap \
       (8 tables + annotations + grants + 1 dependency)"
    ~headers:
      [ "catalog records"; "catalog write us/commit"; "reopen+bootstrap us" ]
    ~rows:
      [
        [
          fmt_i records;
          fmt_f (persist_us /. float_of_int commits);
          fmt_f boot_us;
        ];
      ];
  Printf.printf
    "BENCH_catalog {\"records\": %d, \"persist_us_per_commit\": %.2f, \
     \"bootstrap_us\": %.2f}\n"
    records
    (persist_us /. float_of_int commits)
    boot_us

let run () =
  let group = 32 in
  let sizes = [ 256; 1024; 4096 ] in
  let results =
    List.map
      (fun n ->
        let wal_us, wal_bytes, ckpt_us, rec_us, recovered, stats =
          run_one ~n ~group
        in
        (n, wal_us, wal_bytes, ckpt_us, rec_us, recovered, stats))
      sizes
  in
  let rows =
    List.map
      (fun (n, wal_us, wal_bytes, ckpt_us, rec_us, recovered, _) ->
        [
          fmt_i n;
          fmt_f (wal_us /. float_of_int n);
          fmt_f1 (float_of_int wal_bytes /. 1024.);
          fmt_f (ckpt_us /. float_of_int n);
          fmt_f (rec_us /. float_of_int (max 1 recovered));
          fmt_i recovered;
        ])
      results
  in
  print_table
    ~title:
      (Printf.sprintf
         "E11. Durability: WAL / checkpoint / recovery (%d-byte pages, commit \
          every %d writes)"
         page_size group)
    ~headers:
      [
        "pages"; "wal append+commit us/page"; "wal KiB"; "checkpoint us/page";
        "recovery us/record"; "records replayed";
      ]
    ~rows;
  (* machine-readable summary on the largest size *)
  (match List.rev results with
  | (n, wal_us, _, ckpt_us, rec_us, recovered, stats) :: _ ->
      Printf.printf
        "BENCH_recovery {\"pages\": %d, \"wal_append_us_per_page\": %.2f, \
         \"checkpoint_us_per_page\": %.2f, \"recovery_us_per_record\": %.2f, \
         \"records_replayed\": %d, \"wal_flushes\": %d}\n"
        n (wal_us /. float_of_int n)
        (ckpt_us /. float_of_int n)
        (rec_us /. float_of_int (max 1 recovered))
        recovered stats.Stats.wal_flushes
  | [] -> ());
  catalog_overhead ()
