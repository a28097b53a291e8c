(* E13 — Demand paging: scan and index-probe a durable table ten times
   the buffer pool.

   Not a paper experiment: the authors inherited PostgreSQL's buffer
   manager (Section 2).  Our reproduction owns the pager; this experiment
   pins its bounded-memory claim — a table an order of magnitude larger
   than the frame table remains fully scannable and probeable — and
   ablates the two eviction policies (LRU vs Clock second-chance) on
   hit rate, page-ins, and steal write-backs.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util
module Stats = Bdbms_obs.Stats
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Prng = Bdbms_util.Prng

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Bdbms.Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E13: %s -- for: %s" e sql)

let tmp_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdbms_e13_%s_%d.db" tag (Unix.getpid ()))

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

type measurement = {
  m_pages : int;
  m_scan_us : float;
  m_probe_us : float;
  m_hit_rate : float;
  m_page_ins : int;
  m_evictions : int;
  m_writebacks : int;
  m_forced : int;
}

let pool = 32
let probes = if quick then 100 else 500

(* Build a durable table at least 10x the pool, then measure one full
   sequential scan and [probes] random indexed point lookups. *)
let measure policy tag =
  let path = tmp_path tag in
  cleanup path;
  let db = Bdbms.Db.create ~page_size:512 ~pool_pages:pool ~policy ~path () in
  let disk = (Bdbms.Db.context db).Bdbms_asql.Context.disk in
  exec db "CREATE TABLE T (k TEXT, v INT)";
  let rows = ref 0 in
  while Disk.page_count disk < 10 * pool && !rows < 100_000 do
    let vals =
      List.init 500 (fun j ->
          Printf.sprintf "('key%05d', %d)" (!rows + j) (!rows + j))
      |> String.concat ", "
    in
    exec db (Printf.sprintf "INSERT INTO T VALUES %s" vals);
    rows := !rows + 500
  done;
  exec db "CREATE INDEX tk ON T (k)";
  (match Bdbms.Db.commit db with Ok () -> () | Error e -> failwith e);
  let before = Bdbms.Db.io_stats db in
  let scan, scan_us = time_us (fun () -> exec db "SELECT k FROM T") in
  ignore scan;
  let probe_rng = Prng.create 13 in
  let (), probe_us =
    time_us (fun () ->
        for _ = 1 to probes do
          exec db
            (Printf.sprintf "SELECT v FROM T WHERE k = 'key%05d'"
               (Prng.int probe_rng !rows))
        done)
  in
  let s = Stats.diff ~after:(Bdbms.Db.io_stats db) ~before in
  let accesses = s.Stats.hits + s.Stats.reads in
  let m =
    {
      m_pages = Disk.page_count disk;
      m_scan_us = scan_us;
      m_probe_us = probe_us;
      m_hit_rate = float_of_int s.Stats.hits /. float_of_int (max 1 accesses);
      m_page_ins = s.Stats.page_ins;
      m_evictions = s.Stats.evictions;
      m_writebacks = s.Stats.writebacks;
      m_forced = s.Stats.wal_forced_flushes;
    }
  in
  assert (Disk.resident disk <= pool);
  Bdbms.Db.close db;
  cleanup path;
  m

let run () =
  let lru = measure Pager.Lru "lru" in
  let clock = measure Pager.Clock "clock" in
  let row name (m : measurement) =
    [
      name;
      fmt_i m.m_pages;
      fmt_f m.m_scan_us;
      fmt_f m.m_probe_us;
      Printf.sprintf "%.3f" m.m_hit_rate;
      fmt_i m.m_page_ins;
      fmt_i m.m_evictions;
      fmt_i m.m_writebacks;
      fmt_i m.m_forced;
    ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E13. Demand paging: scan + %d indexed probes, table 10x a %d-frame \
          pool (512 B pages)"
         probes pool)
    ~headers:
      [
        "policy"; "pages"; "scan us"; "probe us"; "hit rate"; "page-ins";
        "evictions"; "write-backs"; "forced flushes";
      ]
    ~rows:[ row "LRU" lru; row "Clock" clock ];
  Printf.printf
    "BENCH_paging {\"pool_pages\": %d, \"table_pages\": %d, \"probes\": %d, \
     \"lru_hit_rate\": %.3f, \"clock_hit_rate\": %.3f, \"lru_scan_us\": %.1f, \
     \"clock_scan_us\": %.1f, \"lru_probe_us\": %.1f, \"clock_probe_us\": \
     %.1f, \"lru_writebacks\": %d, \"clock_writebacks\": %d, \
     \"lru_page_ins\": %d, \"clock_page_ins\": %d}\n"
    pool lru.m_pages probes lru.m_hit_rate clock.m_hit_rate lru.m_scan_us
    clock.m_scan_us lru.m_probe_us clock.m_probe_us lru.m_writebacks
    clock.m_writebacks lru.m_page_ins clock.m_page_ins
