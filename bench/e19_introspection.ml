(* E19 — Introspection overhead: what observability-as-data costs.

   Not a paper experiment: it guards the engineering claims of the
   sys.* subsystem (DESIGN.md §14).  Two measurements:

   - scan: a [SELECT * FROM sys.metrics] materializes the view from live
     counters on every execution.  We time it against a full scan of a
     real heap table loaded with the same number of rows, and fail if
     the virtual scan costs more than 10x the base scan — virtual views
     read in-memory counters, so they should be in the same ballpark as
     a small table scan, not an order of magnitude past it;

   - qlog: the sampled JSONL query log records a counter bump per
     statement and formats a line only when the sample counter fires.
     We time an E12-style workload with the sink unset and with a 1%%
     sampling sink installed, as back-to-back pairs of loops (the order
     alternating from pair to pair), and fail if the median paired ratio
     says the sampled configuration costs more than 5%% per statement —
     so query-log creep that taxes every statement breaks `make check`,
     while load that slows one loop of a pair moves one ratio, not the
     verdict.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util
module Qlog = Bdbms_obs.Qlog
module Executor = Bdbms_asql.Executor
module Propagate = Bdbms_annotation.Propagate

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Bdbms.Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E19: %s -- for: %s" e sql)

let row_count db sql =
  match Bdbms.Db.exec db sql with
  | Ok (Executor.Rows rs) -> List.length rs.Propagate.rows
  | Ok _ -> failwith (Printf.sprintf "E19: not a rowset: %s" sql)
  | Error e -> failwith (Printf.sprintf "E19: %s -- for: %s" e sql)

(* best-of-3 wall time: the scan guard compares two short loops, so take
   the least-disturbed run of each rather than averaging scheduler noise
   in *)
let best_us f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let (), us = time_us f in
    if us < !best then best := us
  done;
  !best

(* E19b's loop pairs: many short pairs, so load that slows a few loops
   moves a few ratios, not the median; odd, so the median is one pair's
   ratio *)
let qlog_pairs = 81

let median l =
  let a = Array.of_list (List.sort compare l) in
  a.(Array.length a / 2)

(* E14's fixture shape: enough statements to amortize per-rep jitter *)
let mk_db n =
  let db = Bdbms.Db.create ~page_size:4096 ~pool_pages:4096 () in
  let st = Random.State.make [| 0xe1; 0x90 |] in
  exec db "CREATE TABLE T1 (id INT, k INT, v TEXT)";
  let batch = 1000 in
  let rec go i =
    if i < n then begin
      let hi = min n (i + batch) in
      let vals =
        List.init (hi - i) (fun j ->
            let i = i + j in
            Printf.sprintf "(%d, %d, 's%d')" i (Random.State.int st n) (i mod 7))
        |> String.concat ", "
      in
      exec db (Printf.sprintf "INSERT INTO T1 VALUES %s" vals);
      go hi
    end
  in
  go 0;
  db

let workload =
  [
    "SELECT * FROM T1 WHERE k < 50";
    "SELECT k, COUNT(*) AS n FROM T1 GROUP BY k HAVING n > 1";
    "SELECT id, k FROM T1 ORDER BY k LIMIT 10";
    "SELECT count(*) AS n FROM T1";
  ]

let run_workload db reps =
  for _ = 1 to reps do
    List.iter (exec db) workload
  done

let run () =
  (* ------------------------- E19a: sys.* scan vs base-table scan *)
  let db = mk_db (if quick then 500 else 2000) in
  (* a heap table with exactly as many rows as sys.metrics renders *)
  let metric_rows = row_count db "SELECT * FROM sys.metrics" in
  exec db "CREATE TABLE probe (id INT, name TEXT, val INT)";
  let vals =
    List.init metric_rows (fun i ->
        Printf.sprintf "(%d, 'metric_name_%d', %d)" i i (i * 17))
    |> String.concat ", "
  in
  exec db (Printf.sprintf "INSERT INTO probe VALUES %s" vals);
  let scan_reps = if quick then 200 else 1000 in
  let scan_us sql =
    ignore (row_count db sql) (* warm: decode cache, plan path *);
    best_us (fun () ->
        for _ = 1 to scan_reps do
          ignore (row_count db sql)
        done)
    /. float_of_int scan_reps
  in
  let base_us = scan_us "SELECT * FROM probe" in
  let metrics_us = scan_us "SELECT * FROM sys.metrics" in
  let tables_us = scan_us "SELECT * FROM sys.tables" in
  let hist_us = scan_us "SELECT * FROM sys.histograms" in
  let ratio = metrics_us /. base_us in
  print_table
    ~title:
      (Printf.sprintf
         "E19a. Virtual sys.* scan vs heap scan of the same %d rows"
         metric_rows)
    ~headers:[ "scan"; "us/scan" ]
    ~rows:
      [
        [ Printf.sprintf "probe (heap, %d rows)" metric_rows; fmt_f base_us ];
        [ "sys.metrics"; fmt_f metrics_us ];
        [ "sys.tables"; fmt_f tables_us ];
        [ "sys.histograms"; fmt_f hist_us ];
      ];
  Printf.printf "\nsys.metrics / heap scan ratio: %.2fx (budget 10x)\n" ratio;

  (* --------------------- E19b: statement cost with 1%% qlog sampling *)
  let n = if quick then 1000 else 5000 in
  let reps = if quick then 5 else 10 in
  let stmts = reps * List.length workload in
  let db = mk_db n in
  run_workload db 2 (* warm both ways *);
  let qlog = Bdbms.Db.qlog db in
  let logged = ref 0 in
  let bytes = ref 0 in
  let timed sampled =
    if sampled then begin
      Qlog.set_sample_every qlog 100;
      Qlog.set_sink qlog
        (Some
           (fun line ->
             incr logged;
             bytes := !bytes + String.length line))
    end;
    let (), us = time_us (fun () -> run_workload db reps) in
    Qlog.set_sink qlog None;
    Qlog.set_sample_every qlog 1;
    us
  in
  let pair i =
    if i mod 2 = 0 then
      let off = timed false in
      (off, timed true)
    else
      let on = timed true in
      (timed false, on)
  in
  let pairs = List.init qlog_pairs pair in
  let stmt_off_us = median (List.map fst pairs) /. float_of_int stmts in
  let stmt_on_us = median (List.map snd pairs) /. float_of_int stmts in
  let overhead_pct =
    Float.max 0.0
      ((median (List.map (fun (off, on) -> on /. off) pairs) -. 1.0) *. 100.0)
  in

  print_table
    ~title:
      (Printf.sprintf
         "E19b. E12-style workload (%d rows, %d statements): query log off \
          vs 1/100 sampling"
         n stmts)
    ~headers:[ "configuration"; Printf.sprintf "us/statement (median of %d)" qlog_pairs ]
    ~rows:
      [
        [ "qlog off (production default)"; fmt_f stmt_off_us ];
        [ "qlog sampling 1/100"; fmt_f stmt_on_us ];
      ];
  Printf.printf
    "\n%d lines (%d bytes) written over %d sampled runs; median paired \
     overhead %.2f%% (budget 5%%)\n"
    !logged !bytes qlog_pairs overhead_pct;

  Printf.printf
    "BENCH_introspection {\"metric_rows\": %d, \"heap_scan_us\": %.2f, \
     \"sys_metrics_scan_us\": %.2f, \"sys_tables_scan_us\": %.2f, \
     \"sys_histograms_scan_us\": %.2f, \"scan_ratio\": %.2f, \
     \"stmt_us_qlog_off\": %.2f, \"stmt_us_qlog_sampled\": %.2f, \
     \"qlog_overhead_pct\": %.2f}\n"
    metric_rows base_us metrics_us tables_us hist_us ratio stmt_off_us
    stmt_on_us overhead_pct;
  if ratio > 10.0 then
    failwith
      (Printf.sprintf
         "E19: sys.metrics scan %.2fx the equivalent heap scan exceeds the \
          10x budget"
         ratio);
  if overhead_pct > 5.0 then
    failwith
      (Printf.sprintf
         "E19: 1%%-sampled query log overhead %.2f%% exceeds the 5%% budget"
         overhead_pct)
