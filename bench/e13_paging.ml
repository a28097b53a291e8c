(* E13 — Demand paging: scan and index-probe a durable table ten times
   the buffer pool.

   Not a paper experiment: the authors inherited PostgreSQL's buffer
   manager (Section 2).  Our reproduction owns the pager; this experiment
   pins its bounded-memory claim — a table an order of magnitude larger
   than the frame table remains fully scannable and probeable — and
   ablates the two eviction policies (LRU vs Clock second-chance) on
   hit rate, page-ins, and steal write-backs.

   A second row prices one page-in: a durable file of 4 KiB pages more
   than ten times a 16-frame pool, read cyclically so every access
   faults, reporting microseconds and major-heap words per page-in and
   the CRC-32's microseconds per 4 KiB.  Timings are reported, not
   guarded; the major words are deterministic and guarded at 0 — a
   page-in reads into a recycled frame and allocates no major block.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util
module Stats = Bdbms_obs.Stats
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Page = Bdbms_storage.Page
module Crc32 = Bdbms_util.Crc32
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
  (match Bdbms.Db.commit db with
  | Ok () -> ()
  | Error e -> failwith (Bdbms.Db.error_message e));
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

type page_in = { pi_us : float; pi_major_words : int; pi_crc_4k_us : float }

let pi_pool = 16
let pi_pages = 200
let pi_rounds = if quick then 50 else 200

let measure_page_in () =
  let path = tmp_path "pagein" in
  cleanup path;
  let d = Disk.open_file ~page_size:4096 ~pool_pages:pi_pool path in
  let ids = Array.init pi_pages (fun _ -> Disk.alloc d) in
  let rng = Prng.create 7 in
  Array.iter
    (fun id ->
      Disk.with_page_mut d id (fun p ->
          for k = 0 to Page.size p - 1 do
            Page.set_byte p k (Prng.int rng 256)
          done))
    ids;
  Disk.checkpoint d;
  let sweep () = Array.iter (fun id -> Disk.with_page d id ignore) ids in
  sweep ();
  (* start the meter from an empty minor heap, so no set-up block is
     promoted into the count *)
  Gc.minor ();
  let before = Stats.snapshot (Disk.stats d) in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let (), us = time_us (fun () -> for _ = 1 to pi_rounds do sweep () done) in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  let page_ins = (Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before).Stats.page_ins in
  assert (page_ins = pi_rounds * pi_pages);
  Disk.close d;
  cleanup path;
  let page = Bytes.init 4096 (fun _ -> Char.chr (Prng.int rng 256)) in
  let crcs = 20_000 in
  let sink = ref 0 in
  let (), crc_us =
    time_us (fun () ->
        for _ = 1 to crcs do
          sink := !sink lxor Crc32.bytes page
        done)
  in
  ignore (Sys.opaque_identity !sink);
  {
    pi_us = us /. float_of_int page_ins;
    pi_major_words = Float.to_int (Float.round (major /. float_of_int page_ins));
    pi_crc_4k_us = crc_us /. float_of_int crcs;
  }

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
  let pi = measure_page_in () in
  print_table
    ~title:
      (Printf.sprintf
         "E13b. One page-in: %d 4 KiB pages read cyclically through %d frames \
          (%d page-ins; CRC-32 kernel: %s)"
         pi_pages pi_pool (pi_rounds * pi_pages)
         (if Crc32.folded then "folded (PCLMULQDQ)" else "slicing-by-8"))
    ~headers:[ "us/page-in"; "major words/page-in"; "CRC us/4 KiB" ]
    ~rows:
      [ [ fmt_f pi.pi_us; fmt_i pi.pi_major_words; fmt_f pi.pi_crc_4k_us ] ];
  if pi.pi_major_words <> 0 then
    failwith
      (Printf.sprintf "E13b: a page-in allocated %d major words (want 0)"
         pi.pi_major_words);
  Printf.printf
    "BENCH_paging {\"pool_pages\": %d, \"table_pages\": %d, \"probes\": %d, \
     \"lru_hit_rate\": %.3f, \"clock_hit_rate\": %.3f, \"lru_scan_us\": %.1f, \
     \"clock_scan_us\": %.1f, \"lru_probe_us\": %.1f, \"clock_probe_us\": \
     %.1f, \"lru_writebacks\": %d, \"clock_writebacks\": %d, \
     \"lru_page_ins\": %d, \"clock_page_ins\": %d, \"page_in_us\": %.2f, \
     \"page_in_major_words\": %d, \"crc_4k_us\": %.2f}\n"
    pool lru.m_pages probes lru.m_hit_rate clock.m_hit_rate lru.m_scan_us
    clock.m_scan_us lru.m_probe_us clock.m_probe_us lru.m_writebacks
    clock.m_writebacks lru.m_page_ins clock.m_page_ins pi.pi_us
    pi.pi_major_words pi.pi_crc_4k_us
