(* E12 — Pipelined query engine: hash-join throughput, lazy annotation
   attachment, and bounded-heap top-k.

   Not a paper experiment: the authors' prototype inherited PostgreSQL's
   executor (Section 2), so the paper never measures plain relational
   speed.  Our reproduction owns the query engine; this experiment pins
   the streaming planner's three wins against the naive
   materialize-everything evaluator it replaced (still reachable via
   [Db.set_exec_mode db `Naive] as the differential-testing oracle):

   - equi-joins: hash join (O(n)) vs the naive cross-product-then-filter
     (O(n^2) in both time and materialized tuples).  The naive side is
     measured only up to 1000 rows/side — at 10^4 it would materialize
     10^8 intermediate tuples — and its quadratic cost is extrapolated
     to the 10^4 point where the hash join is measured directly;
   - plain scans: with lazy annotation attachment a SELECT that never
     mentions annotations decodes bare tuples (zero per-cell annotation
     arrays), vs the naive path's envelope per row;
   - ORDER BY ... LIMIT k: bounded-heap top-k vs sorting the full result.

   E12d splits a point lookup by accession — the E20 [lookup] shape: a
   durable 5,000-gene table with a B+-tree on [gid], a 4,096-page pool —
   into its row-independent steps: parse, plan, index probe and the
   read-only commit.  Timings are reported, not guarded; the probe's
   minor words are deterministic and guarded: a probe allocates per node
   and per value, never per entry in a node.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util
module Stats = Bdbms_obs.Stats

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Bdbms.Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E12: %s -- for: %s" e sql)

let rows_us db sql =
  let (), us = time_us (fun () -> exec db sql) in
  us

(* Two joinable tables with [n] rows each; [k] is uniform over [0..n-1],
   so the equi-join output stays ~n rows at every scale (the measured
   cost is the join algorithm, not result explosion). *)
let mk_db n =
  let db = Bdbms.Db.create ~page_size:4096 ~pool_pages:4096 () in
  let st = Random.State.make [| 0xe1; 0x2b |] in
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

let join_sql = "SELECT a.id, b.id FROM T1 a, T2 b WHERE a.k = b.k"

(* ------------------------------------------------------ point lookup *)

module Db = Bdbms.Db
module Parser = Bdbms_asql.Parser
module Executor = Bdbms_asql.Executor
module Context = Bdbms_asql.Context
module Btree = Bdbms_index.Btree

let lookup_rows = 5000
let lookup_stmts = if quick then 2000 else 20_000

(* what one probe of the height-2 [gene_gid] tree may allocate: 126
   words in-page, 3,100–3,600 when a probe decoded each node it visited *)
let probe_words_bound = 200

type lookup = {
  parse_us : float;
  plan_us : float;
  probe_us : float;
  probe_words : int;  (** the most any one probe allocated *)
  commit_us : float;
  stmt_us : float;
}

let lookup_split () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_e12_lookup_%d.db" (Unix.getpid ()))
  in
  let cleanup () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".wal" ]
  in
  cleanup ();
  let db = Db.create ~page_size:4096 ~pool_pages:4096 ~path () in
  let gid i = Printf.sprintf "JW%04d" (i + 1) in
  exec db "CREATE TABLE gene (gid TEXT, gname TEXT, gc INT, len INT)";
  for b = 0 to (lookup_rows / 250) - 1 do
    List.init 250 (fun j ->
        let i = (b * 250) + j in
        Printf.sprintf "('%s', 'yaa%c', %d, %d)" (gid i) (Char.chr (97 + (i mod 26)))
          (40 + (i mod 20)) (300 + (i * 7 mod 2000)))
    |> String.concat ", "
    |> Printf.sprintf "INSERT INTO gene VALUES %s"
    |> exec db
  done;
  exec db "CREATE INDEX gene_gid ON gene (gid)";
  exec db "ANALYZE";
  let sql_of i = Printf.sprintf "SELECT gid, gname, gc, len FROM gene WHERE gid = '%s'" (gid i) in
  (* the first lookup builds the tree *)
  exec db (sql_of 0);
  let ctx = Db.context db in
  let tree =
    match Context.indexes_on ctx ~table:"gene" with
    | [ { Context.tree = Some tree; _ } ] -> tree
    | _ -> failwith "E12d: gene_gid was not built"
  in
  let rng = Bdbms_util.Prng.create 1 in
  let parse = ref 0.0 and plan = ref 0.0 and probe = ref 0.0 and words = ref 0 in
  let commit = ref 0.0 and stmt = ref 0.0 in
  let ok = function Ok x -> x | Error _ -> failwith "E12d: lookup failed" in
  for _ = 1 to lookup_stmts do
    let i = Bdbms_util.Prng.int rng lookup_rows in
    let sql = sql_of i in
    let parsed, us = time_us (fun () -> Parser.parse sql) in
    parse := !parse +. us;
    let st = ok parsed in
    let q = match st with Bdbms_asql.Ast.Query q -> q | _ -> assert false in
    let (_ : Bdbms_asql.Analyze.node), us =
      time_us (fun () -> Executor.explain_query ctx ~user:"admin" q)
    in
    plan := !plan +. us;
    let key = Option.get (Bdbms_relation.Value.hash_key (Bdbms_relation.Value.VString (gid i))) in
    let w0 = Gc.minor_words () in
    let rows = Btree.search tree key in
    let w1 = Gc.minor_words () in
    if List.length rows <> 1 then failwith ("E12d: probe missed " ^ gid i);
    words := max !words (int_of_float (w1 -. w0));
    let (_ : int list), us = time_us (fun () -> Btree.search tree key) in
    probe := !probe +. us;
    let (_ : Executor.outcome), us =
      time_us (fun () -> ok (Db.statement db ~user:"admin" ~sql st))
    in
    stmt := !stmt +. us;
    let (), us = time_us (fun () -> ok (Db.commit db)) in
    commit := !commit +. us
  done;
  if Btree.height tree <> 2 then failwith "E12d: expected a height-2 gene_gid";
  Db.close db;
  cleanup ();
  let per x = !x /. float_of_int lookup_stmts in
  { parse_us = per parse; plan_us = per plan; probe_us = per probe; probe_words = !words;
    commit_us = per commit; stmt_us = per stmt }

let stats_diff db f =
  let before = Bdbms.Db.io_stats db in
  f ();
  Stats.diff ~after:(Bdbms.Db.io_stats db) ~before

let run () =
  (* -------------------------------------------------- join throughput *)
  let hash_sizes = if quick then [ 100; 1000; 10_000 ] else [ 100; 1000; 10_000; 30_000 ] in
  let naive_cap = 1000 in
  let measured =
    List.map
      (fun n ->
        let db = mk_db n in
        let hash_us = rows_us db join_sql in
        let naive_us =
          if n > naive_cap then None
          else begin
            Bdbms.Db.set_exec_mode db `Naive;
            let us = rows_us db join_sql in
            Bdbms.Db.set_exec_mode db `Batch;
            Some us
          end
        in
        (n, hash_us, naive_us))
      hash_sizes
  in
  let rows =
    List.map
      (fun (n, hash_us, naive_us) ->
        let naive_s, speedup_s =
          match naive_us with
          | Some nu -> (fmt_f nu, fmt_f1 (nu /. Float.max 1.0 hash_us))
          | None -> ("(infeasible)", "-")
        in
        [ fmt_i n; fmt_f hash_us; naive_s; speedup_s ])
      measured
  in
  print_table
    ~title:
      (Printf.sprintf
         "E12a. Equi-join, %d..%d rows/side (naive capped at %d: its \
          cross-product is quadratic)"
         (List.hd hash_sizes)
         (List.nth hash_sizes (List.length hash_sizes - 1))
         naive_cap)
    ~headers:[ "rows/side"; "hash join us"; "naive join us"; "speedup" ]
    ~rows;
  let naive_at cap =
    List.find_map
      (fun (n, _, naive) -> if n = cap then naive else None)
      measured
  in
  let hash_at n =
    List.find_map
      (fun (m, hash, _) -> if m = n then Some hash else None)
      measured
  in
  let speedup_1000 =
    match (naive_at 1000, hash_at 1000) with
    | Some nu, Some hu -> nu /. Float.max 1.0 hu
    | _ -> 0.0
  in
  (* quadratic extrapolation of the naive evaluator to the 10^4 point
     where the hash join is measured directly *)
  let est_speedup_10k =
    match (naive_at 1000, hash_at 10_000) with
    | Some nu, Some hu -> nu *. 100.0 /. Float.max 1.0 hu
    | _ -> 0.0
  in

  (* --------------------------------- lazy annotation attachment (scan) *)
  let scan_n = if quick then 2000 else 10_000 in
  let db = mk_db scan_n in
  exec db "CREATE ANNOTATION TABLE notes ON T1";
  exec db
    "ADD ANNOTATION TO T1.notes VALUE 'curated' ON (SELECT * FROM T1 WHERE id < 100)";
  let plain_us = ref 0.0 and ann_us = ref 0.0 in
  let d_plain =
    stats_diff db (fun () -> plain_us := rows_us db "SELECT * FROM T1")
  in
  let d_ann =
    stats_diff db (fun () ->
        ann_us := rows_us db "SELECT * FROM T1 ANNOTATION(notes)")
  in
  print_table
    ~title:
      (Printf.sprintf
         "E12b. Scan of %d rows: plain (lazy, bare tuples) vs annotated \
          (envelope per row)"
         scan_n)
    ~headers:[ "query"; "us"; "annotation envelopes" ]
    ~rows:
      [
        [ "SELECT *"; fmt_f !plain_us; fmt_i d_plain.Stats.ann_envelopes ];
        [
          "SELECT * ANNOTATION(notes)";
          fmt_f !ann_us;
          fmt_i d_ann.Stats.ann_envelopes;
        ];
      ];

  (* ------------------------------------------- top-k vs full sort *)
  let topk_n = if quick then 10_000 else 50_000 in
  let db = mk_db topk_n in
  let topk_sql = "SELECT id, k FROM T1 ORDER BY k LIMIT 10" in
  let topk_us = rows_us db topk_sql in
  Bdbms.Db.set_exec_mode db `Naive;
  let sort_us = rows_us db topk_sql in
  Bdbms.Db.set_exec_mode db `Batch;
  print_table
    ~title:
      (Printf.sprintf "E12c. ORDER BY k LIMIT 10 over %d rows" topk_n)
    ~headers:[ "strategy"; "us" ]
    ~rows:
      [
        [ "bounded-heap top-k"; fmt_f topk_us ];
        [ "naive full sort"; fmt_f sort_us ];
      ];

  (* ------------------------------------------------------ point lookup *)
  let lk = lookup_split () in
  print_table
    ~title:
      (Printf.sprintf
         "E12d. Point lookup by gid on %d genes (B+-tree, 4096-page pool, durable), \
          mean of %d statements"
         lookup_rows lookup_stmts)
    ~headers:[ "step"; "us"; "minor words" ]
    ~rows:
      [
        [ "parse"; fmt_f lk.parse_us; "-" ];
        [ "plan (EXPLAIN)"; fmt_f lk.plan_us; "-" ];
        [ "B+-tree probe"; fmt_f lk.probe_us; fmt_i lk.probe_words ];
        [ "read-only commit"; fmt_f lk.commit_us; "-" ];
        [ "Db.statement (plan + execute)"; fmt_f lk.stmt_us; "-" ];
      ];
  if lk.probe_words > probe_words_bound then
    failwith
      (Printf.sprintf "E12d: a B+-tree probe allocated %d minor words (bound %d)"
         lk.probe_words probe_words_bound);

  Printf.printf
    "BENCH_query {\"join_rows_per_side\": 10000, \"hash_join_us\": %.1f, \
     \"naive_join_us_at_1000\": %.1f, \"speedup_at_1000\": %.1f, \
     \"est_speedup_at_10000\": %.1f, \"plain_scan_us\": %.1f, \
     \"annotated_scan_us\": %.1f, \"plain_scan_envelopes\": %d, \
     \"topk_us\": %.1f, \"full_sort_us\": %.1f, \"lookup_stmt_us\": %.1f, \
     \"btree_probe_us\": %.2f, \"btree_probe_words\": %d, \
     \"readonly_commit_us\": %.2f}\n"
    (Option.value (hash_at 10_000) ~default:0.0)
    (Option.value (naive_at 1000) ~default:0.0)
    speedup_1000 est_speedup_10k !plain_us !ann_us
    d_plain.Stats.ann_envelopes topk_us sort_us lk.stmt_us lk.probe_us lk.probe_words
    lk.commit_us
