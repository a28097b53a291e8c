(* E17 — Fault-tolerance machinery overhead: the disabled path must be
   (nearly) free.

   Not a paper experiment: the authors inherited PostgreSQL's statement
   timeouts and error handling (Section 2).  Our reproduction added the
   request-lifecycle layer itself — cooperative cancellation checkpoints
   in every executor pipeline, transient-I/O retry wrappers around every
   stable-storage operation, and the degraded-mode probe at statement
   entry — and all of it sits on the hot path of every statement, armed
   or not.

   This experiment measures what that machinery costs when it is doing
   nothing (the common case: no deadline armed, I/O healthy):

   - E17a: the E16 scan / filter / join / aggregate workloads with no
     deadline versus a 10-minute deadline armed.  Disarmed, the
     checkpoint wrappers are skipped at pipeline construction (one
     branch); armed, every operator boundary counts pulls and polls the
     token every 64 tuples / every batch.
   - E17b: durable INSERT throughput with the retry wrappers in place
     (they always are) — the number printed is the all-in write path
     cost including WAL flush, for the record alongside E11.

   Guard: the armed aggregate workload — the checkpoint-densest shape —
   must stay within 5% of the disarmed run (ratio >= 0.95), so the
   cancellation layer cannot quietly tax every statement.  The verdict is
   the median of [guard_pairs] paired ratios on the biggest table, each
   pair a disarmed and an armed best-of-3 back to back, the order
   alternating from pair to pair: load that slows one run moves one
   ratio, not the verdict.  Fails loudly (exit 1) otherwise.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Bdbms.Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E17: %s -- for: %s" e sql)

let best_us db sql =
  let run () =
    let (), us = time_us (fun () -> exec db sql) in
    us
  in
  let a = run () in
  let b = run () in
  let c = run () in
  Float.min a (Float.min b c)

(* Never-firing deadline: long enough that a run can't trip it, so the
   measurement exercises the armed checkpoints, not an abort. *)
let armed_ms = 600_000.

let timeout_us db timeout sql =
  Bdbms.Db.set_stmt_timeout_ms db timeout;
  Gc.compact ();
  let us = best_us db sql in
  Bdbms.Db.set_stmt_timeout_ms db None;
  us

(* odd, so the median is one pair's ratio *)
let guard_pairs = 41

let median l =
  let a = Array.of_list (List.sort compare l) in
  a.(Array.length a / 2)

(* disarmed/armed throughput ratio, median over alternating pairs *)
let paired_ratio db sql =
  let pair i =
    if i mod 2 = 0 then
      let off = timeout_us db None sql in
      off /. Float.max 1.0 (timeout_us db (Some armed_ms) sql)
    else
      let on_ = timeout_us db (Some armed_ms) sql in
      timeout_us db None sql /. Float.max 1.0 on_
  in
  median (List.init guard_pairs pair)

let mk_db n =
  let db = Bdbms.Db.create ~page_size:4096 ~pool_pages:8192 () in
  let st = Random.State.make [| 0xe1; 0x7f |] in
  exec db "CREATE TABLE T1 (id INT, k INT, v TEXT)";
  exec db "CREATE TABLE T2 (id INT, k INT, w TEXT)";
  let insert table mkrow =
    let batch = 1000 in
    let rec go i =
      if i < n then begin
        let hi = min n (i + batch) in
        let vals =
          List.init (hi - i) (fun j -> mkrow (i + j)) |> String.concat ", "
        in
        exec db (Printf.sprintf "INSERT INTO %s VALUES %s" table vals);
        go hi
      end
    in
    go 0
  in
  insert "T1" (fun i ->
      Printf.sprintf "(%d, %d, 's%d')" i (Random.State.int st n) (i mod 7));
  insert "T2" (fun i ->
      Printf.sprintf "(%d, %d, 's%d')" i (Random.State.int st n) (i mod 5));
  db

let workloads n =
  [
    ("scan", "SELECT * FROM T1");
    ("filter", Printf.sprintf "SELECT id, k FROM T1 WHERE k < %d" (n / 10));
    ("join", "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.k = b.k");
    ( "aggregate",
      Printf.sprintf "SELECT COUNT(*), SUM(k), AVG(k) FROM T1 WHERE k < %d"
        (n / 20) );
  ]

let run () =
  let sizes = if quick then [ 1000; 10_000 ] else [ 1000; 10_000; 100_000 ] in
  let biggest = List.nth sizes (List.length sizes - 1) in
  let guard = ref Float.nan in
  let results =
    List.concat_map
      (fun n ->
        let db = mk_db n in
        let rows =
          List.map
            (fun (name, sql) ->
              let off_us = timeout_us db None sql in
              let on_us = timeout_us db (Some armed_ms) sql in
              if n = biggest && name = "aggregate" then
                guard := paired_ratio db sql;
              (n, name, off_us, on_us))
            (workloads n)
        in
        Bdbms.Db.close db;
        rows)
      sizes
  in
  print_table
    ~title:
      (Printf.sprintf
         "E17a. Statement-deadline machinery, %d..%d rows (best of 3, hot \
          pool)"
         (List.hd sizes) biggest)
    ~headers:
      [ "rows"; "workload"; "no deadline us"; "armed deadline us"; "ratio" ]
    ~rows:
      (List.map
         (fun (n, name, off, on_) ->
           [
             fmt_i n;
             name;
             fmt_f off;
             fmt_f on_;
             fmt_f (off /. Float.max 1.0 on_);
           ])
         results);

  (* -------- E17b: the write path with its always-on retry wrappers --- *)
  let writes = if quick then 500 else 5_000 in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_e17_%d.db" (Unix.getpid ()))
  in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ];
  let db = Bdbms.Db.create ~path () in
  exec db "CREATE TABLE W (n INT)";
  let (), total_us =
    time_us (fun () ->
        for i = 1 to writes do
          exec db (Printf.sprintf "INSERT INTO W VALUES (%d)" i)
        done)
  in
  Bdbms.Db.close db;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ];
  Printf.printf
    "\nE17b. Durable autocommit INSERTs through the retry-wrapped write \
     path: %d writes, %.1f us/write\n"
    writes (total_us /. float_of_int writes);

  let ratio = !guard in
  Printf.printf
    "BENCH_resilience {\"rows\": %d, \"aggregate_armed_ratio\": %.3f, \
     \"insert_us\": %.1f}\n"
    biggest ratio
    (total_us /. float_of_int writes);

  (* ------------------------------------------------------------ guard *)
  if ratio < 0.95 then begin
    Printf.eprintf
      "E17 GUARD FAILED: armed statement deadline costs more than 5%% on \
       the %d-row aggregate (median paired disarmed/armed throughput \
       ratio %.3f over %d pairs, need >= 0.95)\n"
      biggest ratio guard_pairs;
    exit 1
  end;
  Printf.printf
    "E17 guard: armed-deadline overhead within 5%% on the %d-row \
     aggregate (median paired ratio %.3f over %d pairs)\n"
    biggest ratio guard_pairs
