(* E18 — Cost-based join ordering from ANALYZE statistics.

   Not a paper experiment: the authors' prototype inherited PostgreSQL's
   optimizer (Section 2), so the paper never measures join ordering.
   This reproduction grew its own: ANALYZE collects per-table/per-column
   statistics (HLL distinct sketches, equi-depth histograms, MCV lists),
   and the planner uses them for a greedy bottom-up join order in place
   of the FROM-order left-deep default.

   Workload: a skewed 3-table multi-join written in its worst FROM
   order.  [a] and [b] share a 5-value join key, so a JOIN b is ~n^2/5
   rows; [c] carries a highly selective filter (c.sel = 0 matches ~10
   rows) and joins [b] on a unique id.  FROM order (a, b, c) builds the
   huge a-b intermediate first; the statistics order starts from the
   filtered [c], keeping every intermediate tiny.

   The same query runs on the same data before ANALYZE (heuristic
   estimates -> FROM order) and after (stats -> cost-based order), best
   of three each, on the default batch engine.

   Guard: the analyzed plan must be >= 2x faster on the multi-join —
   the acceptance bar for the statistics subsystem.  Exit 1 otherwise.

   Pass --quick for the reduced size used by `make bench-quick`. *)

open Bench_util

let quick = Array.exists (String.equal "--quick") Sys.argv

let exec db sql =
  match Bdbms.Db.exec db sql with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "E18: %s -- for: %s" e sql)

let render db sql =
  match Bdbms.Db.exec db sql with
  | Ok outcome -> Bdbms_asql.Executor.render outcome
  | Error e -> failwith (Printf.sprintf "E18: %s -- for: %s" e sql)

let best_us db sql =
  let run () =
    let (), us = time_us (fun () -> exec db sql) in
    us
  in
  let a = run () in
  let b = run () in
  let c = run () in
  Float.min a (Float.min b c)

(* [a]: n rows, k skewed over 5 values; [b]: n rows, unique id, same k
   domain; [c]: n rows keyed by b.id, sel = 0 on ~10 of them. *)
let mk_db n =
  let db = Bdbms.Db.create ~page_size:4096 ~pool_pages:8192 () in
  exec db "CREATE TABLE a (k INT, pad TEXT)";
  exec db "CREATE TABLE b (id INT, k INT)";
  exec db "CREATE TABLE c (b_id INT, sel INT)";
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
  insert "a" (fun i -> Printf.sprintf "(%d, 'p%d')" (i mod 5) (i mod 97));
  insert "b" (fun i -> Printf.sprintf "(%d, %d)" i (i mod 5));
  insert "c" (fun i ->
      Printf.sprintf "(%d, %d)" i (if i mod (max 1 (n / 10)) = 0 then 0 else 1));
  db

let query =
  "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.id = c.b_id AND c.sel \
   = 0"

let run () =
  let n = if quick then 2000 else 5000 in
  let db = mk_db n in
  (* FROM order: never analyzed, heuristic estimates keep the left-deep
     a -> b -> c order *)
  let from_us = best_us db query in
  let from_plan = render db ("EXPLAIN " ^ query) in
  exec db "ANALYZE";
  let stats_us = best_us db query in
  let stats_plan = render db ("EXPLAIN " ^ query) in
  let speedup = from_us /. Float.max 1.0 stats_us in
  print_table
    ~title:
      (Printf.sprintf
         "E18. Cost-based join order vs FROM order, 3-table skewed join, %d \
          rows/table (best of 3)"
         n)
    ~headers:[ "plan"; "us"; "speedup" ]
    ~rows:
      [
        [ "FROM order (heuristic)"; fmt_f from_us; "1.0" ];
        [ "stats order (ANALYZE)"; fmt_f stats_us; fmt_f1 speedup ];
      ];
  Printf.printf "\n-- FROM-order plan (est src=heuristic):\n%s\n" from_plan;
  Printf.printf "-- statistics plan (est src=stats):\n%s\n" stats_plan;
  let s = Bdbms.Db.io_stats db in
  Printf.printf
    "BENCH_optimizer {\"rows\": %d, \"from_us\": %.0f, \"stats_us\": %.0f, \
     \"speedup\": %.2f, \"stats_analyzed\": %d, \"plans_reordered\": %d}\n"
    n from_us stats_us speedup s.Bdbms_obs.Stats.stats_analyzed
    s.Bdbms_obs.Stats.plans_reordered;
  Bdbms.Db.close db;

  (* ------------------------------------------------------------ guard *)
  if speedup < 2.0 then begin
    Printf.eprintf
      "E18 GUARD FAILED: statistics join order only %.2fx over FROM order \
       on the %d-row multi-join (need >= 2.0x)\n"
      speedup n;
    exit 1
  end;
  Printf.printf
    "E18 guard: stats order >= 2x over FROM order on the multi-join (%.1fx)\n"
    speedup
