(* E16 — Vectorized batch execution: the batched engine vs the naive oracle.

   Not a paper experiment: the authors' prototype inherited PostgreSQL's
   executor (Section 2), so the paper never measures plain relational
   speed.  Our reproduction owns the query engine: every plain SELECT
   runs batch-at-a-time over column vectors with selection vectors
   ([Db.set_exec_mode db `Batch], the default), and the materialize-
   everything naive engine stays as the semantic oracle.  This experiment
   times the batch engine on five operator shapes:

   - scan:       SELECT * (page-at-a-time decode into column batches)
   - filter:     a selective WHERE (compiled predicate over a selection
                 vector, no per-row closure dispatch)
   - join:       an equi-join (batched hash join, columnar probe side)
   - text-join:  a hash join on a unique TEXT key, one side filtered to
                 2%, then GROUP BY (E20 scan's join template: every key
                 is a new dictionary string, and most probe rows miss)
   - aggregate:  selective scan -> filter -> ungrouped aggregates (the
                 acceptance workload: the batch engine folds over column
                 vectors without materializing tuples)
   - group-by:   GROUP BY a column with 7 distinct values (the batch
                 group-by keys rows without boxing them)
   - computed-top-k: a computed column, ORDER BY it, LIMIT 10 (the
                 column is appended to each batch, a bounded heap keeps
                 the top rows)
   - nl-join:    a non-equi join, 10^3 x 10^2 rows (block nested-loop
                 join, the step filter above it); smallest size only
   - ann-join:   the equi-join with ANNOTATION(notes) on one side, 10^3
                 rows per side (the batched hash join, envelopes attached
                 to the joined rows only); smallest size only

   Scan, filter, the aggregates, computed-top-k and ann-join are also
   timed on the naive oracle; the plain joins are batch-only, because the oracle
   materializes the full cross product first (ann-join pays that once,
   at 10^3 rows per side).  The aggregate workload at the largest size is also
   rendered under EXPLAIN ANALYZE, so the batch time is attributable
   per operator (the scan node reports batches=...).

   Guards: the batch engine must not be slower than the naive oracle on
   the aggregate, group-by and computed-top-k workloads at the largest
   size, nor on ann-join — if it is, the experiment fails loudly (exit
   1) with the measured ratio, so a regression in the batch path cannot
   hide behind a green test suite.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Bdbms.Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E16: %s -- for: %s" e sql)

let render db sql =
  match Bdbms.Db.exec db sql with
  | Ok outcome -> Bdbms_asql.Executor.render outcome
  | Error e -> failwith (Printf.sprintf "E16: %s -- for: %s" e sql)

(* Best of three runs: the tables are hot in the buffer pool after the
   first, so this measures the execution engine, not first-touch I/O. *)
let best_us db sql =
  let run () =
    let (), us = time_us (fun () -> exec db sql) in
    us
  in
  let a = run () in
  let b = run () in
  let c = run () in
  Float.min a (Float.min b c)

let mode_us db mode sql =
  Bdbms.Db.set_exec_mode db mode;
  (* start each measurement from a settled heap so the scan/join
     workloads' large materialized results don't tax their neighbours *)
  Gc.compact ();
  let us = best_us db sql in
  Bdbms.Db.set_exec_mode db `Batch;
  us

(* Same shape as E12's corpus: two joinable tables, [k] uniform over
   [0..n-1] so the equi-join output stays ~n rows at every scale. *)
let mk_db n =
  let db = Bdbms.Db.create ~page_size:4096 ~pool_pages:8192 () in
  let st = Random.State.make [| 0xe1; 0x6b |] in
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
  (* gene/protein-shaped pair keyed by a unique TEXT id *)
  exec db "CREATE TABLE G (gid TEXT, gc INT)";
  exec db "CREATE TABLE P (gid TEXT, fam INT)";
  insert "G" (fun i -> Printf.sprintf "('G%07d', %d)" i (30 + Random.State.int st 40));
  insert "P" (fun i -> Printf.sprintf "('G%07d', %d)" (i * 7919 mod n) (i mod 50));
  db

(* The annotation the ann-join workload propagates: one note on every
   cell of ~10% of T1's rows. *)
let annotate db n =
  exec db "CREATE ANNOTATION TABLE notes ON T1";
  exec db
    (Printf.sprintf
       "ADD ANNOTATION TO T1.notes VALUE 'checked' ON (SELECT * FROM T1 WHERE k < %d)"
       (n / 10))

(* The operator shapes as (name, sql, also on naive), parameterized by
   table size so the filter and the acceptance aggregate stay ~10% / ~5%
   selective at any n. *)
let workloads ~smallest n =
  [
    ("scan", "SELECT * FROM T1", true);
    ("filter", Printf.sprintf "SELECT id, k FROM T1 WHERE k < %d" (n / 10), true);
    ("join", "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.k = b.k", false);
    ( "text-join",
      "SELECT g.gc, COUNT(*) AS n FROM G g, P p WHERE g.gid = p.gid AND p.fam = 7 \
       GROUP BY g.gc",
      false );
    ( "aggregate",
      Printf.sprintf "SELECT COUNT(*), SUM(k), AVG(k) FROM T1 WHERE k < %d"
        (n / 20),
      true );
    ("group-by", "SELECT v, COUNT(*) AS n, SUM(k) AS s FROM T1 GROUP BY v", true);
    ( "computed-top-k",
      "SELECT id, k * 2 + id AS score FROM T1 ORDER BY score DESC LIMIT 10",
      true );
  ]
  @
  if smallest then
    [ ( "nl-join",
        "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.id < b.id AND b.id < 100",
        false );
      ( "ann-join",
        "SELECT a.id, b.id FROM T1 a ANNOTATION(notes), T2 b WHERE a.k = b.k",
        true ) ]
  else []

let run () =
  let sizes = if quick then [ 1000; 10_000 ] else [ 1000; 10_000; 100_000 ] in
  let biggest = List.nth sizes (List.length sizes - 1) in
  let results =
    (* (n, name, naive_us option, batch_us) in sweep order *)
    List.concat_map
      (fun n ->
        let db = mk_db n in
        let smallest = n = List.hd sizes in
        if smallest then annotate db n;
        let rows =
          List.map
            (fun (name, sql, on_naive) ->
              let naive_us =
                if on_naive then Some (mode_us db `Naive sql) else None
              in
              (n, name, naive_us, mode_us db `Batch sql))
            (workloads ~smallest n)
        in
        Bdbms.Db.close db;
        rows)
      sizes
  in
  print_table
    ~title:
      (Printf.sprintf
         "E16a. Batch engine vs naive oracle, %d..%d rows (best of 3, hot pool)"
         (List.hd sizes) biggest)
    ~headers:[ "rows"; "workload"; "naive us"; "batch us"; "speedup" ]
    ~rows:
      (List.map
         (fun (n, name, nu, bu) ->
           match nu with
           | Some nu ->
               [ fmt_i n; name; fmt_f nu; fmt_f bu; fmt_f1 (nu /. Float.max 1.0 bu) ]
           | None -> [ fmt_i n; name; "-"; fmt_f bu; "-" ])
         results);

  (* ---------------- per-operator attribution at the largest size ----- *)
  let db = mk_db biggest in
  let agg_sql =
    let _, sql, _ =
      List.find (fun (w, _, _) -> w = "aggregate") (workloads ~smallest:false biggest)
    in
    sql
  in
  exec db agg_sql;
  (* warm the pool before metering *)
  Printf.printf
    "\nE16b. EXPLAIN ANALYZE, selective scan-filter-aggregate over %d rows \
     (scan node reports batches=)\n%s\n"
    biggest
    (render db ("EXPLAIN ANALYZE " ^ agg_sql));
  Bdbms.Db.close db;

  let at n name =
    List.find_map
      (fun (n', w, nu, bu) -> if n' = n && w = name then Some (nu, bu) else None)
      results
    |> Option.get
  in
  let speedup ?(n = biggest) name =
    match at n name with
    | Some nu, bu -> nu /. Float.max 1.0 bu
    | None, _ -> assert false
  in
  let scan_r = speedup "scan"
  and filter_r = speedup "filter"
  and agg_r = speedup "aggregate"
  and group_r = speedup "group-by"
  and topk_r = speedup "computed-top-k"
  and ann_r = speedup ~n:(List.hd sizes) "ann-join" in
  Printf.printf
    "BENCH_batch {\"rows\": %d, \"scan_speedup\": %.2f, \
     \"filter_speedup\": %.2f, \"aggregate_speedup\": %.2f, \
     \"group_by_speedup\": %.2f, \"computed_top_k_speedup\": %.2f, \
     \"join_us\": %.1f, \"text_join_us\": %.1f, \"nl_join_us\": %.1f, \
     \"ann_join_speedup\": %.2f}\n"
    biggest scan_r filter_r agg_r group_r topk_r
    (snd (at biggest "join"))
    (snd (at biggest "text-join"))
    (snd (at (List.hd sizes) "nl-join"))
    ann_r;

  (* ------------------------------------------------------------ guard *)
  let guarded =
    [
      (biggest, "aggregate", agg_r);
      (biggest, "group-by", group_r);
      (biggest, "computed-top-k", topk_r);
      (List.hd sizes, "annotated hash join", ann_r);
    ]
  in
  List.iter
    (fun (n, name, r) ->
      if r < 1.0 then begin
        Printf.eprintf
          "E16 GUARD FAILED: batch engine slower than the naive oracle on the \
           %d-row %s (naive/batch time ratio %.2fx, need >= 1.0x)\n"
          n name r;
        exit 1
      end)
    guarded;
  Printf.printf "E16 guard: batch >= naive throughput on %s\n"
    (String.concat ", "
       (List.map
          (fun (n, name, r) -> Printf.sprintf "the %d-row %s (%.2fx)" n name r)
          guarded))
