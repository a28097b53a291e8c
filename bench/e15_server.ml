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
   swap no root, write no page and flush no log (exactly zero each).

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
   Session.  An unchanged catalog is compared in place, not rewritten,
   so each statement must write no page, flush no log and swap no root:
   (root swaps, page writes, WAL flushes) per statement. *)
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
  ( per (fun s -> s.Stats.root_swaps),
    per (fun s -> s.Stats.writes),
    per (fun s -> s.Stats.wal_flushes) )

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
  let swaps, writes, flushes = measure_reads () in
  print_table ~title:"read-only autocommit statements (one session)"
    ~headers:[ "selects"; "root swaps/stmt"; "page writes/stmt"; "wal flushes/stmt" ]
    ~rows:
      [
        [
          string_of_int reads_per_session;
          fmt_f swaps;
          fmt_f writes;
          fmt_f flushes;
        ];
      ];
  if swaps <> 0.0 || writes <> 0.0 || flushes <> 0.0 then
    failwith
      (Printf.sprintf
         "E15: read-only statements wrote (%.2f root swaps, %.2f page \
          writes, %.2f wal flushes per statement)"
         swaps writes flushes);
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
