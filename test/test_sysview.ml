(* Tests for the introspection subsystem: sys.* virtual system tables
   (schema, content, full ASQL surface, read-only enforcement, privileged
   ACL), the structured query log with trace ids, the live-session
   provider over a server engine, and the Prometheus HTTP endpoint.

   The differential group runs each sys.* query under all three SELECT
   engines (naive is the oracle; batch transparently falls back for
   virtual scans) and demands byte-identical renderings. *)

open Bdbms
module Context = Bdbms_asql.Context
module Executor = Bdbms_asql.Executor
module Qlog = Bdbms_obs.Qlog
module Obs = Bdbms_obs.Obs
module Stats = Bdbms_obs.Stats
module Engine = Bdbms_server.Engine
module Session = Bdbms_server.Session
module Http = Bdbms_server.Http

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let exec_err db ?user sql =
  match Db.exec db ?user sql with
  | Ok _ -> Alcotest.fail (sql ^ ": expected an error")
  | Error e -> e

(* a small database with real tables, stats, and a little history *)
let workload_db () =
  let db = Db.create () in
  List.iter
    (fun sql -> ignore (Db.exec_exn db sql))
    [
      "CREATE TABLE genes (gid INT, name TEXT, len INT)";
      "INSERT INTO genes VALUES (1, 'thrA', 2463)";
      "INSERT INTO genes VALUES (2, 'thrB', 933)";
      "INSERT INTO genes VALUES (3, 'dnaK', 1917)";
      "CREATE TABLE species (sid INT, sname TEXT)";
      "INSERT INTO species VALUES (1, 'coli')";
      "ANALYZE genes";
    ];
  db

(* ------------------------------------------------ differential engines *)

let render_mode db mode sql =
  let saved = Db.exec_mode db in
  Db.set_exec_mode db mode;
  Fun.protect
    ~finally:(fun () -> Db.set_exec_mode db saved)
    (fun () -> Db.render_exn db sql)

let test_differential () =
  let db = workload_db () in
  List.iter
    (fun sql ->
      let oracle = render_mode db `Naive sql in
      checks ("tuple agrees: " ^ sql) oracle (render_mode db `Tuple sql);
      checks ("batch agrees: " ^ sql) oracle (render_mode db `Batch sql))
    [
      "SELECT name FROM sys.tables ORDER BY name";
      "SELECT name, rows, analyzed FROM sys.tables WHERE rows > 1 ORDER BY name";
      "SELECT name, kind FROM sys.metrics WHERE kind = 'gauge' ORDER BY name";
      "SELECT count(*) FROM sys.metrics WHERE kind = 'counter'";
      "SELECT name FROM sys.histograms ORDER BY name";
      "SELECT m.name FROM sys.metrics m, sys.histograms h \
       WHERE m.name = h.name ORDER BY m.name";
      "SELECT state, count(*) FROM sys.sessions GROUP BY state";
      "SELECT t.name, m.value FROM sys.tables t, sys.metrics m \
       WHERE m.name = 'writes' ORDER BY t.name";
    ];
  Db.close db

let test_batch_fallback_counted () =
  let db = workload_db () in
  Db.set_exec_mode db `Batch;
  let before = (Db.io_stats db).Stats.batch_fallbacks in
  ignore (Db.render_exn db "SELECT name FROM sys.tables ORDER BY name");
  let after = (Db.io_stats db).Stats.batch_fallbacks in
  checkb "virtual scan fell back to the tuple engine" true (after > before);
  Db.close db

(* ------------------------------------------------------------ content *)

let test_sys_tables_content () =
  let db = workload_db () in
  let out =
    Db.render_exn db
      "SELECT name, rows, analyzed FROM sys.tables ORDER BY name"
  in
  checkb "genes row present, analyzed" true
    (contains ~needle:"genes | 3 | true" out);
  checkb "species row present, not analyzed" true
    (contains ~needle:"species | 1 | false" out);
  checkb "sys views are not self-listed" false (contains ~needle:"sys." out);
  Db.close db

(* [Stats.pp], [sys.metrics] and [Db.metrics] render one slot list.  On a
   quiescent durable handle every slot appears in all three, and counters
   the sys.metrics SELECT cannot bump before its plan-time snapshot read
   the same value everywhere. *)
let test_all_outputs_agree () =
  let path = Filename.temp_file "bdbms_sysview" ".db" in
  Sys.remove path;
  let db = Db.create ~path () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () ->
      List.iter
        (fun sql -> ignore (Db.exec_exn db sql))
        [
          "CREATE TABLE genes (gid INT, name TEXT)";
          "INSERT INTO genes VALUES (1, 'thrA'), (2, 'thrB')";
          "ANALYZE genes";
        ];
      let s = Db.io_stats db in
      let pp = Format.asprintf "%a" Stats.pp s in
      let prom = Db.metrics db in
      let view =
        Db.render_exn db "SELECT name, kind, value FROM sys.metrics"
        |> String.split_on_char '\n'
        |> List.filter_map (fun line ->
               match String.split_on_char '|' line with
               | [ n; k; v ] -> (
                   match int_of_string_opt (String.trim v) with
                   | Some v -> Some (String.trim n, (String.trim k, v))
                   | None -> None)
               | _ -> None)
      in
      checki "sys.metrics lists each slot once" (Array.length Stats.slots)
        (List.length view);
      List.iter
        (fun ((slot : Stats.slot), v) ->
          let name = slot.Stats.name in
          let kind, prom_name =
            match slot.Stats.kind with
            | Stats.Counter -> ("counter", "bdbms_" ^ name ^ "_total")
            | Stats.Gauge -> ("gauge", "bdbms_" ^ name)
          in
          checkb (name ^ " in Stats.pp") true
            (contains ~needle:(Printf.sprintf "%s=%d" name v) pp);
          checkb (name ^ " in Db.metrics") true
            (contains ~needle:(Printf.sprintf "\n%s %d\n" prom_name v) prom);
          checkb (name ^ " typed in Db.metrics") true
            (contains ~needle:(Printf.sprintf "# TYPE %s %s\n" prom_name kind) prom);
          match List.assoc_opt name view with
          | None -> Alcotest.failf "%s missing from sys.metrics" name
          | Some (k, v') ->
              checks (name ^ " kind in sys.metrics") kind k;
              if
                List.mem name
                  [ "writes"; "wal_appends"; "commit_conflicts"; "stats_analyzed" ]
              then checki (name ^ " equal in sys.metrics") v v')
        (Stats.to_list s);
      checkb "some writes happened" true (s.Stats.writes > 0);
      checkb "peak_pinned is a gauge" true
        (contains ~needle:"# TYPE bdbms_peak_pinned gauge" prom))

let test_sys_slow_queries_ring () =
  let db = workload_db () in
  Db.set_slow_ms db (Some 0.);
  ignore (Db.exec_exn db "SELECT * FROM genes");
  ignore (Db.exec_exn db "SELECT count(*) FROM species");
  let out =
    Db.render_exn db
      "SELECT user, rows, ok, sql FROM sys.slow_queries ORDER BY seq"
  in
  checkb "first slow entry recorded" true
    (contains ~needle:"SELECT * FROM genes" out);
  checkb "row count captured" true (contains ~needle:"admin | 3 | true" out);
  checkb "trace ids are assigned locally" true
    (not
       (contains ~needle:"| 0 | true"
          (Db.render_exn db
             "SELECT trace_id, ok FROM sys.slow_queries ORDER BY seq LIMIT 1")));
  Db.close db

let test_sys_traces_view () =
  let db = workload_db () in
  Db.set_tracing db true;
  ignore (Db.exec_exn db "SELECT * FROM genes WHERE len > 1000");
  let out =
    Db.render_exn db
      "SELECT name, count(*) FROM sys.traces GROUP BY name ORDER BY name"
  in
  checkb "execute spans visible" true (contains ~needle:"execute" out);
  checkb "parse spans visible" true (contains ~needle:"parse" out);
  Db.close db

let test_describe_sys () =
  let db = workload_db () in
  let out = Db.render_exn db "DESCRIBE sys.slow_queries" in
  List.iter
    (fun col -> checkb ("describe lists " ^ col) true (contains ~needle:col out))
    [ "seq"; "user"; "session"; "dur_ns"; "rows"; "trace_id"; "ok"; "sql" ];
  let err = exec_err db "DESCRIBE sys.nonsense" in
  checkb "unknown sys view is a typed error" true
    (contains ~needle:"unknown system view" err);
  Db.close db

(* ------------------------------------------------- writes are refused *)

let test_sys_read_only () =
  let db = workload_db () in
  List.iter
    (fun sql ->
      let e = exec_err db sql in
      checkb (sql ^ " refused") true
        (contains ~needle:"read-only system view" e))
    [
      "INSERT INTO sys.metrics VALUES (1)";
      "UPDATE sys.tables SET rows = 0";
      "DELETE FROM sys.slow_queries";
      "DROP TABLE sys.metrics";
      "CREATE INDEX sysidx ON sys.metrics (name)";
      "ANALYZE sys.metrics";
    ];
  (* a plain ANALYZE walks the catalog only: sys views are skipped *)
  ignore (Db.exec_exn db "ANALYZE");
  ignore (Db.exec_exn db "SELECT * FROM genes");
  Db.close db

(* ------------------------------------------------- privileged views *)

let test_privileged_acl () =
  let db = workload_db () in
  ignore (Db.exec_exn db "CREATE USER curator");
  (* non-privileged views are open *)
  ignore (Db.exec_exn db ~user:"curator" "SELECT name FROM sys.metrics");
  ignore (Db.exec_exn db ~user:"curator" "SELECT name FROM sys.tables");
  (* privileged ones need an explicit grant even outside strict mode *)
  List.iter
    (fun view ->
      let e = exec_err db ~user:"curator" ("SELECT * FROM " ^ view) in
      checkb (view ^ " denied") true (contains ~needle:"privileged" e))
    [ "sys.sessions"; "sys.slow_queries" ];
  ignore (Db.exec_exn db "GRANT SELECT ON sys.sessions TO curator");
  ignore (Db.exec_exn db ~user:"curator" "SELECT * FROM sys.sessions");
  let e = exec_err db ~user:"curator" "SELECT * FROM sys.slow_queries" in
  checkb "grant is per-view" true (contains ~needle:"privileged" e);
  Db.close db

(* ------------------------------------------------------- query log *)

let test_qlog_sampling_and_trace_ids () =
  let db = workload_db () in
  let qlog = Db.qlog db in
  let lines = ref [] in
  Qlog.set_sink qlog (Some (fun l -> lines := l :: !lines));
  Qlog.set_sample_every qlog 3;
  let base = Qlog.sampled qlog in
  for i = 1 to 7 do
    ignore
      (Db.exec_exn db
         (Printf.sprintf "SELECT sname FROM species WHERE sid = %d" i))
  done;
  Qlog.set_sink qlog None;
  (* counter-based: 7 statements at 1-in-3 sample 3 of them (the seq
     counter continued from the workload, so only the delta is fixed) *)
  let sampled = Qlog.sampled qlog - base in
  checkb "deterministic 1-in-3 sampling" true (sampled >= 2 && sampled <= 3);
  List.iter
    (fun l ->
      checkb "JSONL has a user field" true (contains ~needle:"\"user\":\"admin\"" l;);
      checkb "JSONL has a trace id" true (contains ~needle:"\"trace_id\":" l))
    !lines;
  Db.close db

(* ------------------------------------------- server: sessions + wire *)

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_sysview_%d_%d.db" (Unix.getpid ()) !n)

let with_engine f =
  let path = tmp_path () in
  let e = Engine.create ~path () in
  Fun.protect
    ~finally:(fun () ->
      (try Engine.close e with _ -> ());
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".wal" ])
    (fun () -> f e)

let srender what = function
  | Ok (Session.Outcome o) -> Executor.render o
  | Ok _ -> ""
  | Error e -> Alcotest.fail (what ^ ": " ^ Engine.error_message e)

let test_server_sessions_view () =
  with_engine (fun e ->
      (* install the provider the way Server.create does *)
      let ctx = Db.context (Engine.db e) in
      ctx.Context.sys_providers <-
        [ ("sys.sessions", fun () -> Session.sys_rows e) ];
      let s1 = Result.get_ok (Session.create e ~user:"admin") in
      let s2 = Result.get_ok (Session.create e ~user:"admin") in
      let out =
        srender "sessions" (Session.execute s1 "SELECT id, user, state FROM sys.sessions ORDER BY id")
      in
      checkb "both sessions listed" true
        (contains ~needle:"idle" out
        && contains ~needle:(string_of_int (Session.id s2)) out);
      (* the querying session reports its own in-flight statement *)
      let out =
        srender "stmt"
          (Session.execute s1 "SELECT stmt FROM sys.sessions WHERE stmt <> ''")
      in
      checkb "in-flight statement visible" true
        (contains ~needle:"FROM sys.sessions" out);
      (* inside a transaction the provider rides the snapshot context *)
      ignore (Result.get_ok (Session.execute s1 "BEGIN"));
      let out =
        srender "txn view"
          (Session.execute s1 "SELECT state FROM sys.sessions ORDER BY id")
      in
      checkb "txn state visible from the snapshot" true
        (contains ~needle:"txn" out);
      ignore (Result.get_ok (Session.execute s1 "COMMIT"));
      Session.close s2;
      let out =
        srender "after close"
          (Session.execute s1 "SELECT count(*) FROM sys.sessions")
      in
      checkb "closed session dropped from the view" true
        (contains ~needle:"1" out);
      Session.close s1)

let test_server_trace_ids () =
  with_engine (fun e ->
      let db = Engine.db e in
      Db.set_slow_ms db (Some 0.);
      let s = Result.get_ok (Session.create e ~user:"admin") in
      ignore
        (Result.get_ok
           (Session.execute s ~trace_id:424242 "CREATE TABLE t (id INT)"));
      (* the wire trace id lands in the query log... *)
      let entries = Qlog.slow (Db.qlog db) in
      checkb "qlog entry carries the wire trace id" true
        (List.exists (fun en -> en.Qlog.q_trace_id = 424242) entries);
      checkb "qlog entry carries the session id" true
        (List.exists (fun en -> en.Qlog.q_session = Session.id s) entries);
      (* ...in sys.slow_queries... *)
      let out =
        srender "slow"
          (Session.execute s
             "SELECT trace_id FROM sys.slow_queries ORDER BY seq")
      in
      checkb "sys.slow_queries shows the wire trace id" true
        (contains ~needle:"424242" out);
      (* ...and on the statement's spans (slow-ms arms tracing) *)
      let spans = Bdbms_obs.Trace.spans (Db.obs db).Obs.trace in
      checkb "a span is tagged with the wire trace id" true
        (List.exists
           (fun (v : Bdbms_obs.Trace.view) -> v.Bdbms_obs.Trace.trace_id = 424242)
           spans);
      (* transaction statements are attributed too *)
      ignore (Result.get_ok (Session.execute s "BEGIN"));
      ignore
        (Result.get_ok
           (Session.execute s ~trace_id:777 "INSERT INTO t VALUES (1)"));
      ignore (Result.get_ok (Session.execute s "COMMIT"));
      checkb "txn statement recorded under its trace id" true
        (List.exists
           (fun en -> en.Qlog.q_trace_id = 777)
           (Qlog.slow (Db.qlog db)));
      Session.close s)

(* ------------------------------------------------------- HTTP endpoint *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let test_http_endpoint () =
  let degraded = ref None in
  let h =
    Http.serve ~host:"127.0.0.1" ~port:0
      ~metrics:(fun () ->
        "# HELP bdbms_up 1 when serving\n# TYPE bdbms_up gauge\nbdbms_up 1\n")
      ~health:(fun () -> !degraded)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Http.stop h)
    (fun () ->
      let port = Http.bound_port h in
      let m = http_get port "/metrics" in
      checkb "metrics 200" true (contains ~needle:"200 OK" m);
      checkb "prometheus content type" true
        (contains ~needle:"text/plain; version=0.0.4" m);
      checkb "HELP line served" true (contains ~needle:"# HELP bdbms_up" m);
      checkb "TYPE line served" true (contains ~needle:"# TYPE bdbms_up gauge" m);
      let ok = http_get port "/healthz" in
      checkb "healthz 200 while healthy" true (contains ~needle:"200 OK" ok);
      degraded := Some "disk on fire";
      let bad = http_get port "/healthz" in
      checkb "healthz 503 while degraded" true
        (contains ~needle:"503 Service Unavailable" bad);
      checkb "degraded reason surfaced" true
        (contains ~needle:"disk on fire" bad);
      degraded := None;
      let nf = http_get port "/wrong" in
      checkb "404 elsewhere" true (contains ~needle:"404 Not Found" nf))

let test_http_under_load () =
  with_engine (fun e ->
      let h =
        Http.serve ~host:"127.0.0.1" ~port:0
          ~metrics:(fun () -> Db.metrics (Engine.db e))
          ~health:(fun () -> Db.degraded (Engine.db e))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Http.stop h)
        (fun () ->
          let port = Http.bound_port h in
          ignore (Engine.execute e "CREATE TABLE load (id INT)");
          let writer =
            Thread.create
              (fun () ->
                for i = 1 to 50 do
                  ignore
                    (Engine.execute e
                       (Printf.sprintf "INSERT INTO load VALUES (%d)" i))
                done)
              ()
          in
          (* scrape concurrently with the write load: every response must
             be a complete, well-formed exposition *)
          for _ = 1 to 10 do
            let m = http_get port "/metrics" in
            checkb "scrape under load is complete" true
              (contains ~needle:"200 OK" m
              && contains ~needle:"bdbms_stmt_ns_count" m)
          done;
          Thread.join writer;
          checki "writes all landed" 50
            (int_of_string
               (String.trim
                  (List.nth
                     (String.split_on_char '\n'
                        (Executor.render
                           (Result.get_ok
                              (match
                                 Engine.execute e "SELECT count(*) FROM load"
                               with
                              | Ok o -> Ok o
                              | Error err ->
                                  Alcotest.fail (Engine.error_message err)))))
                     1)))))

let () =
  Alcotest.run "bdbms_sysview"
    [
      ( "differential",
        [
          Alcotest.test_case "naive = tuple = batch on sys views" `Quick
            test_differential;
          Alcotest.test_case "batch fallback is counted" `Quick
            test_batch_fallback_counted;
        ] );
      ( "content",
        [
          Alcotest.test_case "sys.tables rows/analyzed" `Quick
            test_sys_tables_content;
          Alcotest.test_case "all outputs agree" `Quick test_all_outputs_agree;
          Alcotest.test_case "sys.slow_queries ring" `Quick
            test_sys_slow_queries_ring;
          Alcotest.test_case "sys.traces spans" `Quick test_sys_traces_view;
          Alcotest.test_case "describe sys views" `Quick test_describe_sys;
        ] );
      ( "immutability",
        [ Alcotest.test_case "writes refused, analyze skips" `Quick test_sys_read_only ] );
      ( "acl",
        [ Alcotest.test_case "privileged views need a grant" `Quick test_privileged_acl ] );
      ( "qlog",
        [
          Alcotest.test_case "sampling and trace ids" `Quick
            test_qlog_sampling_and_trace_ids;
        ] );
      ( "server",
        [
          Alcotest.test_case "sys.sessions is live" `Quick
            test_server_sessions_view;
          Alcotest.test_case "wire trace ids land everywhere" `Quick
            test_server_trace_ids;
        ] );
      ( "http",
        [
          Alcotest.test_case "scrape endpoint" `Quick test_http_endpoint;
          Alcotest.test_case "scrape under write load" `Quick
            test_http_under_load;
        ] );
    ]
