(* E15 — Multi-session throughput: transactions per second and commit
   latency as concurrent client sessions scale, over the snapshot-
   isolation engine with group commit.

   Not a paper experiment: the authors inherited PostgreSQL's process-
   per-connection server and MVCC (Section 2).  Our reproduction owns
   both; this experiment pins the group-commit claim — adding writer
   sessions amortizes WAL fsyncs (flushes per committed transaction
   drops below 1) instead of serializing on the log — and reports the
   conflict rate of first-writer-wins when every session writes a
   private table (expected: zero).  A read-only row guards the commit
   path: autocommit SELECTs leave the catalog unchanged, so they must
   swap no root, write no page and flush no log (exactly zero each).  A
   write row guards the commit's cost against table size: a table's rows
   live in its own pages and the catalog root keeps a fixed-size head per
   table, so a 50-row INSERT commit at 20k rows must write no more than
   2 pages more than one at 2k rows.  A metadata row does the same for
   annotations and dependency links, which live in their own pages
   behind fixed-size heads: a one-annotation commit at 2,000 annotations
   and a LINK commit at 10k links must each write no more than 2 pages
   more than at 100 annotations and 1k links.

   Sessions here drive the engine through the in-process Session API —
   the same code path the socket front end uses, minus the kernel
   round-trips, so the numbers isolate the concurrency substrate.

   Pass --quick for the reduced sizes used by `make bench-quick`. *)

open Bench_util
module Stats = Bdbms_obs.Stats
module Engine = Bdbms_server.Engine
module Session = Bdbms_server.Session

let quick = Array.exists (String.equal "--quick") Sys.argv

let tmp_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "bdbms_e15_%s_%d.db" tag (Unix.getpid ()))

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

let txns_per_client = if quick then 20 else 80

type measurement = {
  m_clients : int;
  m_commits : int;
  m_conflicts : int;
  m_tps : float;
  m_mean_commit_us : float;
  m_flushes_per_commit : float;
}

(* [clients] writer sessions each commit [txns_per_client] small
   transactions into a private table; wall-clock covers the whole race. *)
let measure clients =
  let path = tmp_path (string_of_int clients) in
  cleanup path;
  let e = Engine.create ~pool_pages:512 ~path () in
  for c = 0 to clients - 1 do
    match Engine.execute e (Printf.sprintf "CREATE TABLE t%d (n INT)" c) with
    | Ok _ -> ()
    | Error err -> failwith ("E15: " ^ Engine.error_message err)
  done;
  let before = Bdbms.Db.io_stats (Engine.db e) in
  let commit_us = Array.make clients 0.0 in
  let commits = Array.make clients 0 in
  let worker c () =
    match Session.create e ~user:"admin" with
    | Error err -> failwith ("E15: " ^ Engine.error_message err)
    | Ok s ->
        for k = 1 to txns_per_client do
          ignore (Session.execute s "BEGIN");
          ignore
            (Session.execute s
               (Printf.sprintf "INSERT INTO t%d VALUES (%d)" c k));
          let start = Unix.gettimeofday () in
          (match Session.execute s "COMMIT" with
          | Ok (Session.Committed _) -> commits.(c) <- commits.(c) + 1
          | Ok _ | Error _ -> ());
          commit_us.(c) <-
            commit_us.(c) +. ((Unix.gettimeofday () -. start) *. 1e6)
        done;
        Session.close s
  in
  let start = Unix.gettimeofday () in
  let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. start in
  let after = Bdbms.Db.io_stats (Engine.db e) in
  let total_commits = Array.fold_left ( + ) 0 commits in
  let flushes = after.Stats.wal_flushes - before.Stats.wal_flushes in
  let conflicts =
    after.Stats.commit_conflicts - before.Stats.commit_conflicts
  in
  Engine.close e;
  cleanup path;
  {
    m_clients = clients;
    m_commits = total_commits;
    m_conflicts = conflicts;
    m_tps = float_of_int total_commits /. elapsed;
    m_mean_commit_us =
      Array.fold_left ( +. ) 0.0 commit_us /. float_of_int total_commits;
    m_flushes_per_commit =
      float_of_int flushes /. float_of_int total_commits;
  }

let reads_per_session = if quick then 50 else 200

(* Read-only row: [reads_per_session] autocommit SELECTs through one
   Session.  A read leaves the catalog's change epoch where the last
   commit recorded it, so each statement must encode no catalog, write
   no page, flush no log and swap no root: (catalog encodes, root swaps,
   page writes, WAL flushes) per statement. *)
let measure_reads () =
  let path = tmp_path "reads" in
  cleanup path;
  let e = Engine.create ~pool_pages:512 ~path () in
  List.iter
    (fun sql ->
      match Engine.execute e sql with
      | Ok _ -> ()
      | Error err -> failwith ("E15: " ^ Engine.error_message err))
    [
      "CREATE TABLE g (acc TEXT, len INT)";
      "INSERT INTO g VALUES ('a1', 10), ('a2', 20), ('a3', 30)";
    ];
  let before = Bdbms.Db.io_stats (Engine.db e) in
  (match Session.create e ~user:"admin" with
  | Error err -> failwith ("E15: " ^ Engine.error_message err)
  | Ok s ->
      for k = 1 to reads_per_session do
        match
          Session.execute s
            (Printf.sprintf "SELECT len FROM g WHERE acc = 'a%d'" (1 + (k mod 3)))
        with
        | Ok _ -> ()
        | Error err -> failwith ("E15: " ^ Engine.error_message err)
      done;
      Session.close s);
  let after = Bdbms.Db.io_stats (Engine.db e) in
  Engine.close e;
  cleanup path;
  let per f = float_of_int (f after - f before) /. float_of_int reads_per_session in
  ( per (fun s -> s.Stats.catalog_encodes),
    per (fun s -> s.Stats.root_swaps),
    per (fun s -> s.Stats.writes),
    per (fun s -> s.Stats.wal_flushes) )

let ingest_points = [ 2_000; 20_000 ]
let commits_per_point = 10

(* Write row: grow one gene-shaped table by 50-row autocommit INSERTs
   and, at each of [ingest_points] rows, time nothing but count what
   [commits_per_point] more such commits write: pages written per commit
   and root-swap bytes per commit (root swaps x the catalog blob's
   length — each swap rewrites the whole blob into the other slot's
   chain). *)
let measure_ingest () =
  let path = tmp_path "ingest" in
  cleanup path;
  let e = Engine.create ~pool_pages:512 ~path () in
  let exec sql =
    match Engine.execute e sql with
    | Ok _ -> ()
    | Error err -> failwith ("E15: " ^ Engine.error_message err)
  in
  exec "CREATE TABLE gene (gid TEXT, gname TEXT, seq TEXT, gc INT, len INT)";
  let rows = ref 0 in
  let insert_50 () =
    exec
      ("INSERT INTO gene VALUES "
      ^ String.concat ", "
          (List.init 50 (fun i ->
               let n = !rows + i in
               Printf.sprintf "('JW%05d', 'gen%c', 'ATG%sTAA', %d, %d)" n
                 (Char.chr (Char.code 'A' + (n mod 26)))
                 (String.make (30 + (n mod 40)) "ACGT".[n mod 4])
                 (n mod 100) (36 + (n mod 40)))));
    rows := !rows + 50
  in
  let points =
    List.map
      (fun target ->
        while !rows < target do insert_50 () done;
        let db = Engine.db e in
        let before = Bdbms.Db.io_stats db in
        for _ = 1 to commits_per_point do insert_50 () done;
        let after = Bdbms.Db.io_stats db in
        let per f =
          float_of_int (f after - f before) /. float_of_int commits_per_point
        in
        let blob =
          Bytes.length
            (Bdbms_asql.Context.encode_catalog (Bdbms.Db.context db))
        in
        ( target,
          per (fun s -> s.Stats.writes),
          per (fun s -> s.Stats.root_swaps) *. float_of_int blob ))
      ingest_points
  in
  Engine.close e;
  cleanup path;
  points

let ann_points = [ 100; 2_000 ]
let link_points = [ 1_000; 10_000 ]

(* Metadata row: count what [commits_per_point] one-annotation
   autocommits write at each of [ann_points] annotations, then what as
   many LINK autocommits write at each of [link_points] links — pages
   written and root-swap bytes per commit, as in the write row.  The
   links up to each point are made in bulk through the tracker and
   committed by the first measured statement's commit, outside the
   count. *)
let measure_meta () =
  let path = tmp_path "meta" in
  cleanup path;
  let e = Engine.create ~pool_pages:512 ~path () in
  let exec sql =
    match Engine.execute e sql with
    | Ok _ -> ()
    | Error err -> failwith ("E15: " ^ Engine.error_message err)
  in
  let nlinks = List.nth link_points 1 + (2 * commits_per_point) in
  exec "CREATE TABLE gene (gid TEXT, seq DNA)";
  exec "CREATE TABLE protein (pid TEXT, pseq PROTEIN)";
  for chunk = 0 to (nlinks / 500) do
    let values f = String.concat ", " (List.init 500 (fun i -> f ((chunk * 500) + i))) in
    exec ("INSERT INTO gene VALUES " ^ values (Printf.sprintf "('g%d', 'ATGGCC')"));
    exec ("INSERT INTO protein VALUES " ^ values (Printf.sprintf "('p%d', 'MA')"))
  done;
  exec "CREATE TABLE site (k INT)";
  exec
    ("INSERT INTO site VALUES " ^ String.concat ", " (List.init 100 (Printf.sprintf "(%d)")));
  exec "CREATE ANNOTATION TABLE notes ON site";
  exec "CREATE DEPENDENCY r1 FROM gene.seq TO protein.pseq USING P";
  let db = Engine.db e in
  let count make =
    let before = Bdbms.Db.io_stats db in
    for _ = 1 to commits_per_point do exec (make ()) done;
    let after = Bdbms.Db.io_stats db in
    let per f = float_of_int (f after - f before) /. float_of_int commits_per_point in
    let blob = Bytes.length (Bdbms_asql.Context.encode_catalog (Bdbms.Db.context db)) in
    (per (fun s -> s.Stats.writes), per (fun s -> s.Stats.root_swaps) *. float_of_int blob)
  in
  let anns = ref 0 in
  let annotate () =
    incr anns;
    Printf.sprintf
      "ADD ANNOTATION TO site.notes VALUE 'curated note %d' ON (SELECT * FROM site WHERE k = %d)"
      !anns (!anns mod 100)
  in
  let ann_rows =
    List.map
      (fun target ->
        while !anns < target do exec (annotate ()) done;
        let w, b = count annotate in
        ("annotations", target, w, b))
      ann_points
  in
  let links = ref 0 in
  let link () =
    let i = !links in
    incr links;
    Printf.sprintf "LINK DEPENDENCY r1 FROM (%d) TO %d" i i
  in
  let tracker = (Bdbms.Db.context db).Bdbms_asql.Context.tracker in
  let link_rows =
    List.map
      (fun target ->
        while !links < target do
          (match
             Bdbms_dependency.Tracker.link_rows tracker ~rule_id:"r1" ~source_rows:[ !links ]
               ~target_row:!links
           with
          | Ok () -> ()
          | Error err -> failwith ("E15: " ^ err));
          incr links
        done;
        (* commit the bulk links before counting *)
        exec (link ());
        let w, b = count link in
        ("links", target, w, b))
      link_points
  in
  Engine.close e;
  cleanup path;
  ann_rows @ link_rows

let run () =
  print_endline "\n=== E15: multi-session throughput (group commit) ===";
  Printf.printf
    "(%d txns per client, one private table each; disjoint writers, so \
     conflicts should be 0)\n"
    txns_per_client;
  let ms = List.map measure [ 1; 2; 4; 8 ] in
  print_table ~title:"throughput and commit latency vs client count"
    ~headers:
      [
        "clients";
        "commits";
        "conflicts";
        "txn/s";
        "mean commit us";
        "wal flushes/commit";
      ]
    ~rows:
      (List.map
         (fun m ->
           [
             string_of_int m.m_clients;
             string_of_int m.m_commits;
             string_of_int m.m_conflicts;
             fmt_f m.m_tps;
             fmt_f m.m_mean_commit_us;
             fmt_f m.m_flushes_per_commit;
           ])
         ms);
  let solo = List.hd ms and packed = List.nth ms 3 in
  Printf.printf
    "group commit amortization: %.2f flushes/commit at 1 client vs %.2f \
     at 8 clients\n"
    solo.m_flushes_per_commit packed.m_flushes_per_commit;
  let encodes, swaps, writes, flushes = measure_reads () in
  print_table ~title:"read-only autocommit statements (one session)"
    ~headers:
      [
        "selects";
        "catalog encodes/stmt";
        "root swaps/stmt";
        "page writes/stmt";
        "wal flushes/stmt";
      ]
    ~rows:
      [
        [
          string_of_int reads_per_session;
          fmt_f encodes;
          fmt_f swaps;
          fmt_f writes;
          fmt_f flushes;
        ];
      ];
  if encodes <> 0.0 || swaps <> 0.0 || writes <> 0.0 || flushes <> 0.0 then
    failwith
      (Printf.sprintf
         "E15: read-only statements wrote (%.2f catalog encodes, %.2f root \
          swaps, %.2f page writes, %.2f wal flushes per statement)"
         encodes swaps writes flushes);
  let points = measure_ingest () in
  print_table
    ~title:"50-row INSERT commits (autocommit) as the table grows"
    ~headers:[ "rows"; "commits"; "pages written/commit"; "root-swap bytes/commit" ]
    ~rows:
      (List.map
         (fun (n, writes, bytes) ->
           [ string_of_int n; string_of_int commits_per_point; fmt_f writes; fmt_f1 bytes ])
         points);
  (match points with
  | [ (_, small, _); (_, large, _) ] when large > small +. 2.0 ->
      failwith
        (Printf.sprintf
           "E15: commit cost grows with the table (%.2f pages per commit at \
            %d rows vs %.2f at %d)"
           large (List.nth ingest_points 1) small (List.hd ingest_points))
  | _ -> ());
  let meta = measure_meta () in
  print_table
    ~title:"one-annotation and LINK commits (autocommit) as they accumulate"
    ~headers:[ "kind"; "count"; "commits"; "pages written/commit"; "root-swap bytes/commit" ]
    ~rows:
      (List.map
         (fun (kind, n, writes, bytes) ->
           [ kind; string_of_int n; string_of_int commits_per_point; fmt_f writes; fmt_f1 bytes ])
         meta);
  List.iter
    (fun kind ->
      match List.filter (fun (k, _, _, _) -> k = kind) meta with
      | [ (_, n0, small, _); (_, n1, large, _) ] when large > small +. 2.0 ->
          failwith
            (Printf.sprintf
               "E15: commit cost grows with the %s (%.2f pages per commit at %d vs \
                %.2f at %d)"
               kind large n1 small n0)
      | _ -> ())
    [ "annotations"; "links" ];
  List.iter
    (fun m ->
      if m.m_commits <> m.m_clients * txns_per_client then
        failwith
          (Printf.sprintf "E15: lost commits at %d clients (%d/%d)"
             m.m_clients m.m_commits
             (m.m_clients * txns_per_client));
      if m.m_conflicts <> 0 then
        failwith
          (Printf.sprintf
             "E15: disjoint writers conflicted at %d clients (%d)"
             m.m_clients m.m_conflicts))
    ms
