(* Tests for the multi-session server subsystem: the wire-protocol codec
   (property-tested frame round-trips plus malformed-frame rejection),
   snapshot-isolated transactions on the engine, the session layer,
   advisory file locking, buffer-pool backpressure, and a socket-level
   concurrency test whose final state must match a serial oracle
   replayed in global commit order.

   The fuzz group — randomized interleaved sessions checked against the
   oracle, plus crash injection at commit through the existing Fault
   harness — runs when BDBMS_FUZZ_SERVER=1 (`make fuzz-server`). *)

open Bdbms
module Prng = Bdbms_util.Prng
module Stats = Bdbms_obs.Stats
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Fault = Bdbms_storage.Fault
module Backend = Bdbms_storage.Backend
module Context = Bdbms_asql.Context
module Executor = Bdbms_asql.Executor
module P = Bdbms_server.Protocol
module Engine = Bdbms_server.Engine
module Session = Bdbms_server.Session
module Server = Bdbms_server.Server
module Client = Bdbms_server.Client
module Version_store = Bdbms_server.Version_store
module Obs = Bdbms_obs.Obs
module Qlog = Bdbms_obs.Qlog
module Metrics = Bdbms_obs.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_server_%d_%d.db" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal"; path ^ ".sock" ]

let with_engine ?page_size ?pool_pages ?snapshot_pool_pages f =
  let path = tmp_path () in
  let e = Engine.create ?page_size ?pool_pages ?snapshot_pool_pages ~path () in
  Fun.protect
    ~finally:(fun () ->
      (try Engine.close e with _ -> ());
      cleanup path)
    (fun () -> f e)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ Engine.error_message e)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let exec e sql = ignore (ok sql (Engine.execute e sql))
let render e sql = Executor.render (ok sql (Engine.execute e sql))
let trender txn sql = Executor.render (ok sql (Engine.txn_exec txn sql))

(* --------------------------------------------------- protocol: codec *)

let raw_string =
  (* payloads are raw bytes: exercise NUL and the high half too *)
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 80))

let request_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun user -> P.Hello { user }) raw_string;
        map (fun sql -> P.Query { sql; timeout_ms = None; trace_id = 0 }) raw_string;
        map2
          (fun sql ms -> P.Query { sql; timeout_ms = Some ms; trace_id = 0 })
          raw_string (int_bound 1_000_000);
        (* traced queries ride the 0x05 frame, with and without deadline *)
        map2
          (fun sql tid -> P.Query { sql; timeout_ms = None; trace_id = tid + 1 })
          raw_string (int_bound 1_000_000_000);
        map3
          (fun sql ms tid ->
            P.Query { sql; timeout_ms = Some ms; trace_id = tid + 1 })
          raw_string (int_bound 1_000_000) (int_bound 1_000_000_000);
        map (fun name -> P.Control { name }) raw_string;
      ])

let all_codes =
  [|
    P.E_internal;
    P.E_exec;
    P.E_conflict;
    P.E_busy;
    P.E_auth;
    P.E_proto;
    P.E_timeout;
    P.E_degraded;
  |]

let response_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun session proto -> P.Hello_ok { session; proto = proto + 1 })
          (int_bound 1_000_000) (int_bound 100);
        map (fun rendered -> P.Rows { rendered }) raw_string;
        map2
          (fun affected verb -> P.Count { affected; verb })
          (int_bound 1_000_000) raw_string;
        map (fun text -> P.Message { text }) raw_string;
        map (fun seq -> P.Committed { seq }) (int_bound 1_000_000);
        map2
          (fun i message -> P.Error_resp { code = all_codes.(i); message })
          (int_bound (Array.length all_codes - 1))
          raw_string;
      ])

let arb_request = QCheck.make ~print:(fun _ -> "<request>") request_gen
let arb_response = QCheck.make ~print:(fun _ -> "<response>") response_gen

(* decode must return the frame and consume exactly its bytes, with or
   without trailing data; every proper prefix must ask for more *)
let roundtrips encode decode v =
  let b = encode v in
  let n = Bytes.length b in
  let exact = decode b = P.Frame (v, n) in
  let with_trailing =
    let b2 = Bytes.cat b (Bytes.of_string "junk") in
    decode b2 = P.Frame (v, n)
  in
  let prefixes_need_more = ref true in
  for cut = 0 to n - 1 do
    if decode (Bytes.sub b 0 cut) <> P.Need_more then
      prefixes_need_more := false
  done;
  exact && with_trailing && !prefixes_need_more

let protocol_qcheck =
  [
    QCheck.Test.make ~name:"request frames round-trip" ~count:300 arb_request
      (roundtrips P.encode_request P.decode_request);
    QCheck.Test.make ~name:"response frames round-trip" ~count:300
      arb_response
      (roundtrips P.encode_response P.decode_response);
  ]

let frame_of ~len ~tag payload =
  let b = Bytes.create (4 + 1 + String.length payload) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_uint8 b 4 tag;
  Bytes.blit_string payload 0 b 5 (String.length payload);
  b

let is_invalid = function P.Invalid _ -> true | _ -> false

let test_malformed_frames () =
  (* zero length: the prefix must be >= 1 (tag byte) *)
  checkb "zero length rejected" true
    (is_invalid (P.decode_request (frame_of ~len:0 ~tag:0x01 "")));
  (* oversized length must be rejected before any payload allocation *)
  checkb "oversized rejected" true
    (is_invalid (P.decode_request (frame_of ~len:(P.max_frame + 1) ~tag:0x01 "")));
  checkb "unknown request tag" true
    (is_invalid (P.decode_request (frame_of ~len:1 ~tag:0x42 "")));
  checkb "unknown response tag" true
    (is_invalid (P.decode_response (frame_of ~len:1 ~tag:0x42 "")));
  checkb "bad error code byte" true
    (is_invalid (P.decode_response (frame_of ~len:2 ~tag:0xE0 "\x09")));
  (* short buffers are incomplete, not invalid *)
  checkb "empty buffer" true (P.decode_request Bytes.empty = P.Need_more);
  checkb "partial header" true
    (P.decode_request (Bytes.of_string "\x00\x00") = P.Need_more);
  checkb "max_frame itself is allowed in the prefix" true
    (P.decode_request (Bytes.of_string "\x01\x00\x00\x00") = P.Need_more)

(* ------------------------------------------------- engine: snapshots *)

let test_snapshot_isolation () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      exec e "INSERT INTO t VALUES (1)";
      let r = ok "BEGIN" (Engine.begin_txn e ()) in
      let before = trender r "SELECT * FROM t" in
      (* a writer commits underneath the open snapshot *)
      exec e "INSERT INTO t VALUES (2)";
      checks "snapshot is stable" before (trender r "SELECT * FROM t");
      checki "read-only commit is free" 0 (ok "commit" (Engine.commit_txn r));
      let r2 = ok "BEGIN" (Engine.begin_txn e ()) in
      checkb "new snapshot sees the write" true
        (trender r2 "SELECT * FROM t" <> before);
      Engine.rollback_txn r2)

(* A snapshot reads the row map as of its horizon: 1,000 rows inserted,
   a record relocated by a growing update and a row deleted after BEGIN
   leave its rows and row count unchanged, and its own (disjoint) write
   still replays onto the canonical engine at commit. *)
let test_snapshot_row_map_horizon () =
  with_engine (fun e ->
      exec e "CREATE TABLE g (k INT, v TEXT)";
      exec e "CREATE TABLE w (n INT)";
      exec e
        ("INSERT INTO g VALUES "
        ^ String.concat ", " (List.init 50 (fun i -> Printf.sprintf "(%d, 'v%d')" i i)));
      let txn = ok "BEGIN" (Engine.begin_txn e ()) in
      let rows = trender txn "SELECT * FROM g" in
      let count = trender txn "SELECT COUNT(*) FROM g" in
      for chunk = 0 to 19 do
        exec e
          ("INSERT INTO g VALUES "
          ^ String.concat ", "
              (List.init 50 (fun i ->
                   let k = 50 + (chunk * 50) + i in
                   Printf.sprintf "(%d, 'v%d')" k k)))
      done;
      exec e ("UPDATE g SET v = '" ^ String.make 300 'x' ^ "' WHERE k = 3");
      exec e "DELETE FROM g WHERE k = 5";
      checks "snapshot rows unchanged" rows (trender txn "SELECT * FROM g");
      checks "snapshot row count unchanged" count
        (trender txn "SELECT COUNT(*) FROM g");
      ignore (ok "txn insert" (Engine.txn_exec txn "INSERT INTO w VALUES (7)"));
      checkb "commit replays" true (ok "commit" (Engine.commit_txn txn) > 0);
      checks "replayed write landed" "n\n7\n(1 rows)" (render e "SELECT * FROM w");
      let after = ok "BEGIN" (Engine.begin_txn e ()) in
      checks "new snapshot counts every commit" (render e "SELECT COUNT(*) FROM g")
        (trender after "SELECT COUNT(*) FROM g");
      checkb "1,049 live rows" true
        (contains (trender after "SELECT COUNT(*) FROM g") "1049");
      checkb "relocated row visible" true
        (contains
           (trender after "SELECT v FROM g WHERE k = 3")
           (String.make 300 'x'));
      checkb "deleted row gone" true
        (contains (trender after "SELECT * FROM g WHERE k = 5") "(0 rows)");
      Engine.rollback_txn after)

(* Annotations, dependency instances and outdated marks live in pages
   mutated in place, like rows: a snapshot reads them as of its horizon
   through its overlay.  A snapshot begun before concurrent ADD
   ANNOTATION, ARCHIVE and LINK keeps the old registry and instances
   (LINK is DDL, so its own write then conflicts), and a transaction that
   does all three itself replays them onto the canonical engine. *)
let test_snapshot_annotations_links_horizon () =
  with_engine ~page_size:512 (fun e ->
      exec e "CREATE TABLE g (k INT, s DNA)";
      exec e "CREATE TABLE p (n TEXT, ps PROTEIN)";
      exec e "INSERT INTO g VALUES (0, 'ATGGCC'), (1, 'ATGGCC'), (2, 'ATGGCC')";
      exec e "INSERT INTO p VALUES ('p0', 'MA'), ('p1', 'MA'), ('p2', 'MA')";
      exec e "CREATE ANNOTATION TABLE notes ON g";
      exec e "ADD ANNOTATION TO g.notes VALUE 'first' ON (SELECT s FROM g WHERE k = 0)";
      exec e "CREATE DEPENDENCY r1 FROM g.s TO p.ps USING P";
      exec e "LINK DEPENDENCY r1 FROM (0) TO 0";
      let annotated = "SELECT * FROM g ANNOTATION(notes)" in
      let old = ok "BEGIN" (Engine.begin_txn e ()) in
      let before = trender old annotated in
      (* enough annotations that the registry grows new pages *)
      for i = 1 to 60 do
        exec e
          (Printf.sprintf "ADD ANNOTATION TO g.notes VALUE 'note %d' ON (SELECT s FROM g WHERE k = %d)"
             i (i mod 3))
      done;
      exec e "ARCHIVE ANNOTATION FROM g.notes ON (SELECT * FROM g WHERE k = 0)";
      exec e "LINK DEPENDENCY r1 FROM (1) TO 1";
      checkb "the canonical engine moved on" true (render e annotated <> before);
      checks "snapshot annotations unchanged" before (trender old annotated);
      (* the snapshot has no instance 1 -> 1: updating gene 1 leaves
         protein 1 as it was *)
      ignore (ok "old update" (Engine.txn_exec old "UPDATE g SET s = 'ATGTGG' WHERE k = 1"));
      checks "no link at the horizon" "ps\nMA\n(1 rows)"
        (trender old "SELECT ps FROM p WHERE n = 'p1'");
      ignore (ok "old update 0" (Engine.txn_exec old "UPDATE g SET s = 'ATGTGG' WHERE k = 0"));
      checks "the older link still derives" "ps\nMW\n(1 rows)"
        (trender old "SELECT ps FROM p WHERE n = 'p0'");
      (match Engine.commit_txn old with
      | Error (Engine.Conflict _) -> ()
      | Ok _ -> Alcotest.fail "a write concurrent with LINK must conflict"
      | Error err -> Alcotest.fail (Engine.error_message err));
      (* one transaction annotates, archives and links; commit replays *)
      let txn = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore
        (ok "txn add"
           (Engine.txn_exec txn
              "ADD ANNOTATION TO g.notes VALUE 'from the txn' ON (SELECT s FROM g WHERE k = 2)"));
      ignore
        (ok "txn archive"
           (Engine.txn_exec txn "ARCHIVE ANNOTATION FROM g.notes ON (SELECT * FROM g WHERE k = 1)"));
      ignore (ok "txn link" (Engine.txn_exec txn "LINK DEPENDENCY r1 FROM (2) TO 2"));
      let in_txn = trender txn annotated in
      checkb "commit replays" true (ok "commit" (Engine.commit_txn txn) > 0);
      checks "replayed annotations match the snapshot's" in_txn (render e annotated);
      checkb "the txn's note landed" true (contains (render e annotated) "from the txn");
      checkb "archived notes are gone" false (contains (render e annotated) "note 1\n");
      exec e "UPDATE g SET s = 'ATGTGG' WHERE k = 2";
      checks "the replayed link derives" "ps\nMW\n(1 rows)"
        (render e "SELECT ps FROM p WHERE n = 'p2'");
      let fresh = ok "BEGIN" (Engine.begin_txn e ()) in
      checks "a new snapshot sees every commit" (render e annotated) (trender fresh annotated);
      Engine.rollback_txn fresh)

let test_read_own_writes () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      let w = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore (ok "insert" (Engine.txn_exec w "INSERT INTO t VALUES (7)"));
      checkb "txn sees its own write" true
        (trender w "SELECT * FROM t" <> render e "SELECT * FROM t");
      let seq = ok "commit" (Engine.commit_txn w) in
      checkb "write txn gets a commit seq" true (seq > 0);
      checkb "canonical sees it after commit" true
        (String.length (render e "SELECT * FROM t") > 0
        && render e "SELECT * FROM t" <> "id\n(0 rows)")

  )

let test_first_writer_wins () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      let t1 = ok "BEGIN" (Engine.begin_txn e ()) in
      let t2 = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore (ok "t1 insert" (Engine.txn_exec t1 "INSERT INTO t VALUES (1)"));
      ignore (ok "t2 insert" (Engine.txn_exec t2 "INSERT INTO t VALUES (2)"));
      (match Engine.commit_txn t1 with
      | Ok seq -> checkb "first writer commits" true (seq > 0)
      | Error err -> Alcotest.fail (Engine.error_message err));
      (match Engine.commit_txn t2 with
      | Ok _ -> Alcotest.fail "second writer must conflict"
      | Error err ->
          checkb "conflict error" true
            (match err with Engine.Conflict _ -> true | _ -> false);
          checkb "conflict is retryable" true (P.code_retryable P.E_conflict));
      checki "conflict counted" 1 (Db.io_stats (Engine.db e)).Stats.commit_conflicts;
      (* the loser retries on a fresh snapshot and succeeds *)
      let t3 = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore (ok "retry insert" (Engine.txn_exec t3 "INSERT INTO t VALUES (2)"));
      checkb "retry commits" true (ok "retry" (Engine.commit_txn t3) > 0))

let test_disjoint_writers_no_conflict () =
  with_engine (fun e ->
      exec e "CREATE TABLE a (id INT)";
      exec e "CREATE TABLE b (id INT)";
      let t1 = ok "BEGIN" (Engine.begin_txn e ()) in
      let t2 = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore (ok "t1" (Engine.txn_exec t1 "INSERT INTO a VALUES (1)"));
      ignore (ok "t2" (Engine.txn_exec t2 "INSERT INTO b VALUES (1)"));
      checkb "t1 commits" true (ok "t1 commit" (Engine.commit_txn t1) > 0);
      checkb "t2 commits too (disjoint tables)" true
        (ok "t2 commit" (Engine.commit_txn t2) > 0);
      checki "no conflicts" 0 (Db.io_stats (Engine.db e)).Stats.commit_conflicts)

let test_rollback_discards () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      let empty = render e "SELECT * FROM t" in
      let w = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore (ok "insert" (Engine.txn_exec w "INSERT INTO t VALUES (1)"));
      Engine.rollback_txn w;
      checks "rollback discards the write" empty (render e "SELECT * FROM t");
      checkb "txn finished" true (not (Engine.txn_active w)))

let test_failed_txn_refuses_commit () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      let w = ok "BEGIN" (Engine.begin_txn e ()) in
      (match Engine.txn_exec w "INSERT INTO nonexistent VALUES (1)" with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error _ -> ());
      (match Engine.txn_exec w "INSERT INTO t VALUES (1)" with
      | Ok _ -> Alcotest.fail "aborted txn must refuse statements"
      | Error _ -> ());
      (match Engine.commit_txn w with
      | Ok _ -> Alcotest.fail "aborted txn must refuse commit"
      | Error _ -> ());
      (* engine unharmed *)
      exec e "INSERT INTO t VALUES (1)")

(* --------------------------------------- satellite: pool backpressure *)

(* Run [k] with pages [ids] of pool [bp] pinned. *)
let rec pinned bp ids k =
  match ids with
  | [] -> k ()
  | id :: rest -> Pager.with_page bp id (fun _ -> pinned bp rest k)

(* Pin every canonical frame, then push a query through a session: the
   engine must answer a retryable [Busy], and the session must survive
   to run the same query once the pool frees up. *)
let test_pool_backpressure () =
  with_engine ~page_size:256 ~pool_pages:4 (fun e ->
      exec e "CREATE TABLE t (id INT, s TEXT)";
      for i = 1 to 60 do
        exec e (Printf.sprintf "INSERT INTO t VALUES (%d, 'row%d')" i i)
      done;
      let sess =
        match Session.create e ~user:"admin" with
        | Ok s -> s
        | Error err -> Alcotest.fail (Engine.error_message err)
      in
      let bp = Disk.pager (Db.context (Engine.db e)).Context.disk in
      pinned bp [ 0; 1; 2; 3 ] (fun () ->
          match Session.execute sess "SELECT * FROM t" with
          | Ok _ -> Alcotest.fail "expected Busy with all frames pinned"
          | Error err ->
              checkb "busy error" true
                (match err with Engine.Busy _ -> true | _ -> false);
              checkb "busy is retryable" true (P.code_retryable P.E_busy));
      (match Session.execute sess "SELECT * FROM t" with
      | Ok _ -> ()
      | Error err ->
          Alcotest.fail ("session did not survive: " ^ Engine.error_message err));
      Session.close sess)

(* ------------------------------------------- satellite: file locking *)

let test_second_open_locked () =
  let path = tmp_path () in
  let db = Db.create ~path () in
  (match Db.create ~path () with
  | exception Backend.Locked l -> checks "lock names the path" path l.path
  | db2 ->
      Db.close db2;
      Alcotest.fail "expected Backend.Locked");
  Db.close db;
  (* releasing the first handle releases the lock *)
  let db3 = Db.create ~path () in
  Db.close db3;
  cleanup path

let test_engine_holds_lock () =
  let path = tmp_path () in
  let e = Engine.create ~path () in
  (match Db.create ~path () with
  | exception Backend.Locked _ -> ()
  | db2 ->
      Db.close db2;
      Alcotest.fail "expected Backend.Locked against a running engine");
  Engine.close e;
  cleanup path

(* --------------------------------------------------------- sessions *)

let test_session_auth () =
  with_engine (fun e ->
      (match Session.create e ~user:"mallory" with
      | Ok s ->
          Session.close s;
          Alcotest.fail "unknown user must be rejected"
      | Error _ -> ());
      exec e "CREATE USER alice";
      match Session.create e ~user:"alice" with
      | Ok s ->
          checks "session user" "alice" (Session.user s);
          Session.close s
      | Error err -> Alcotest.fail (Engine.error_message err))

let test_session_txn_control () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      let s =
        match Session.create e ~user:"admin" with
        | Ok s -> s
        | Error err -> Alcotest.fail (Engine.error_message err)
      in
      let run sql =
        match Session.execute s sql with
        | Ok r -> r
        | Error err -> Alcotest.fail (sql ^ ": " ^ Engine.error_message err)
      in
      checkb "BEGIN WORK" true (run "begin work;" = Session.Began);
      checkb "double BEGIN rejected" true
        (match Session.execute s "BEGIN" with Error _ -> true | Ok _ -> false);
      ignore (run "INSERT INTO t VALUES (1)");
      (match run "COMMIT TRANSACTION" with
      | Session.Committed seq -> checkb "committed" true (seq > 0)
      | _ -> Alcotest.fail "expected Committed");
      checkb "START TRANSACTION" true (run "start transaction" = Session.Began);
      checkb "ABORT" true (run "abort" = Session.Rolled_back);
      checkb "txn closed" true (not (Session.in_txn s));
      (* autocommit outside a txn *)
      (match run "SELECT * FROM t" with
      | Session.Outcome _ -> ()
      | _ -> Alcotest.fail "expected an outcome");
      Session.close s)

let test_session_conflict_keeps_session () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (id INT)";
      let s1, s2 =
        match (Session.create e ~user:"admin", Session.create e ~user:"admin") with
        | Ok a, Ok b -> (a, b)
        | _ -> Alcotest.fail "session create"
      in
      ignore (Session.execute s1 "BEGIN");
      ignore (Session.execute s2 "BEGIN");
      ignore (Session.execute s1 "INSERT INTO t VALUES (1)");
      ignore (Session.execute s2 "INSERT INTO t VALUES (2)");
      (match Session.execute s1 "COMMIT" with
      | Ok (Session.Committed _) -> ()
      | _ -> Alcotest.fail "first committer must win");
      (match Session.execute s2 "COMMIT" with
      | Error err ->
          checkb "loser conflicts" true
            (match err with Engine.Conflict _ -> true | _ -> false)
      | Ok _ -> Alcotest.fail "second committer must lose");
      checkb "loser's txn is closed" true (not (Session.in_txn s2));
      (* the losing session keeps working *)
      (match Session.execute s2 "INSERT INTO t VALUES (2)" with
      | Ok _ -> ()
      | Error err -> Alcotest.fail (Engine.error_message err));
      checki "sessions counted" 2 (Db.io_stats (Engine.db e)).Stats.sessions_opened;
      Session.close s1;
      Session.close s2)

(* --------------------------------------- sockets: concurrent clients *)

let hello_ok c ~user =
  match Client.hello c ~user with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("hello: " ^ e)

let query_ok c sql =
  match Client.query c sql with
  | P.Error_resp { message; _ } -> Alcotest.fail (sql ^ ": " ^ message)
  | r -> r

let rendered_of = function
  | P.Rows { rendered } -> rendered
  | P.Message { text } -> text
  | P.Count { affected; verb } -> Printf.sprintf "%d %s" affected verb
  | _ -> Alcotest.fail "expected rows"

(* N writer clients race ;-txns into one shared table (plus a private
   table each) while M reader clients check snapshot stability; the
   final state must equal a serial oracle replaying the acknowledged
   transactions in commit-seq order. *)
let test_concurrent_clients () =
  let path = tmp_path () in
  let sock = path ^ ".sock" in
  let engine = Engine.create ~pool_pages:256 ~path () in
  let server = Server.create engine in
  Server.listen_unix server sock;
  let n_writers = 4 and n_readers = 4 and txns_per_writer = 6 in
  let setup = Client.connect_unix sock in
  hello_ok setup ~user:"admin";
  ignore (query_ok setup "CREATE TABLE shared (w INT, n INT)");
  for w = 0 to n_writers - 1 do
    ignore (query_ok setup (Printf.sprintf "CREATE TABLE w%d (n INT)" w))
  done;
  Client.close setup;
  let committed = Array.make n_writers [] in
  let failures = ref [] in
  let fail_mu = Mutex.create () in
  let note msg = Mutex.protect fail_mu (fun () -> failures := msg :: !failures) in
  let writer w () =
    let c = Client.connect_unix sock in
    (match Client.hello c ~user:"admin" with
    | Error e -> note ("writer hello: " ^ e)
    | Ok _ ->
        for k = 0 to txns_per_writer - 1 do
          let stmts =
            [
              Printf.sprintf "INSERT INTO shared VALUES (%d, %d)" w k;
              Printf.sprintf "INSERT INTO w%d VALUES (%d)" w k;
            ]
          in
          let rec attempt tries =
            if tries > 100 then note "writer starved out"
            else
              match Client.query c "BEGIN" with
              | P.Error_resp { message; _ } -> note ("begin: " ^ message)
              | _ -> (
                  let stmt_failed =
                    List.exists
                      (fun s ->
                        match Client.query c s with
                        | P.Error_resp { code; message } ->
                            if not (P.code_retryable code) then
                              note (s ^ ": " ^ message);
                            true
                        | _ -> false)
                      stmts
                  in
                  if stmt_failed then begin
                    ignore (Client.query c "ROLLBACK");
                    attempt (tries + 1)
                  end
                  else
                    match Client.query c "COMMIT" with
                    | P.Committed { seq } ->
                        committed.(w) <- (seq, stmts) :: committed.(w)
                    | P.Error_resp { code; _ } when P.code_retryable code ->
                        attempt (tries + 1)
                    | P.Error_resp { message; _ } -> note ("commit: " ^ message)
                    | _ -> note "unexpected commit reply")
          in
          attempt 0
        done);
    Client.close c
  in
  let reader _ () =
    let c = Client.connect_unix sock in
    (match Client.hello c ~user:"admin" with
    | Error e -> note ("reader hello: " ^ e)
    | Ok _ ->
        for _ = 1 to 8 do
          ignore (Client.query c "BEGIN");
          let s1 = rendered_of (Client.query c "SELECT * FROM shared") in
          Thread.yield ();
          let s2 = rendered_of (Client.query c "SELECT * FROM shared") in
          if s1 <> s2 then note "reader snapshot moved inside a transaction";
          ignore (Client.query c "COMMIT")
        done);
    Client.close c
  in
  let threads =
    List.init n_writers (fun w -> Thread.create (writer w) ())
    @ List.init n_readers (fun r -> Thread.create (reader r) ())
  in
  List.iter Thread.join threads;
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.fail (String.concat "; " msgs));
  (* serial oracle: replay acknowledged txns in commit order *)
  let all =
    Array.to_list committed |> List.concat
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  checki "every txn acknowledged" (n_writers * txns_per_writer)
    (List.length all);
  let oracle = Db.create () in
  ignore (Db.exec_exn oracle "CREATE TABLE shared (w INT, n INT)");
  for w = 0 to n_writers - 1 do
    ignore (Db.exec_exn oracle (Printf.sprintf "CREATE TABLE w%d (n INT)" w))
  done;
  List.iter
    (fun (_, stmts) -> List.iter (fun s -> ignore (Db.exec_exn oracle s)) stmts)
    all;
  let c = Client.connect_unix sock in
  hello_ok c ~user:"admin";
  let compare_table sql =
    let server_view = rendered_of (query_ok c sql) in
    let oracle_view =
      Executor.render
        (match Db.exec oracle sql with
        | Ok o -> o
        | Error e -> Alcotest.fail e)
    in
    checks sql oracle_view server_view
  in
  compare_table "SELECT * FROM shared";
  for w = 0 to n_writers - 1 do
    compare_table (Printf.sprintf "SELECT * FROM w%d" w)
  done;
  Client.close c;
  let s = Db.io_stats (Engine.db engine) in
  checkb "sessions counted" true (s.Stats.sessions_opened >= n_writers + n_readers);
  checkb "frames counted" true (s.Stats.frames_rx > 0 && s.Stats.frames_tx > 0);
  checkb "group commit ran" true (s.Stats.group_commits > 0);
  Server.stop server;
  Engine.close engine;
  cleanup path

(* ------------------------------------------- resilience over the wire *)

let with_server ?idle_timeout_s ?page_size ?pool_pages f =
  let path = tmp_path () in
  let sock = path ^ ".sock" in
  let engine = Engine.create ?page_size ?pool_pages ~path () in
  let server = Server.create ?idle_timeout_s engine in
  Server.listen_unix server sock;
  Fun.protect
    ~finally:(fun () ->
      (try Server.stop server with _ -> ());
      (try Engine.close engine with _ -> ());
      cleanup path)
    (fun () -> f ~engine ~server ~sock)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* Frames are a byte stream, not datagrams: a server must reassemble a
   frame dribbled one byte at a time across many [read]s. *)
let test_byte_at_a_time () =
  with_server (fun ~engine ~server:_ ~sock ->
      exec engine "CREATE TABLE bt (n INT)";
      let fd = raw_connect sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let dribble req =
            let b = P.encode_request req in
            Bytes.iteri
              (fun i _ ->
                ignore (Unix.write fd b i 1);
                if i land 3 = 0 then Thread.yield ())
              b
          in
          dribble (P.Hello { user = "admin" });
          (match P.recv_response fd with
          | Some (P.Hello_ok _) -> ()
          | _ -> Alcotest.fail "expected Hello_ok");
          dribble
            (P.Query { sql = "INSERT INTO bt VALUES (1)"; timeout_ms = None; trace_id = 0 });
          (match P.recv_response fd with
          | Some (P.Count { affected = 1; _ }) -> ()
          | _ -> Alcotest.fail "expected Count 1");
          (* the deadline-carrying 0x04 frame survives dribbling too *)
          dribble
            (P.Query { sql = "SELECT * FROM bt"; timeout_ms = Some 60_000; trace_id = 0 });
          match P.recv_response fd with
          | Some (P.Rows _) -> ()
          | _ -> Alcotest.fail "expected Rows"))

(* A client that stops mid-frame (slow loris) must be reaped by the idle
   timeout: its open transaction rolls back, and the engine keeps
   serving other clients — no wedged session, no leaked lock. *)
let test_midframe_stall_reaped () =
  with_server ~idle_timeout_s:0.2 (fun ~engine ~server:_ ~sock ->
      exec engine "CREATE TABLE lor (n INT)";
      let fd = raw_connect sock in
      let send req =
        let b = P.encode_request req in
        ignore (Unix.write fd b 0 (Bytes.length b))
      in
      send (P.Hello { user = "admin" });
      (match P.recv_response fd with
      | Some (P.Hello_ok _) -> ()
      | _ -> Alcotest.fail "expected Hello_ok");
      send (P.Query { sql = "BEGIN"; timeout_ms = None; trace_id = 0 });
      ignore (P.recv_response fd);
      send (P.Query { sql = "INSERT INTO lor VALUES (1)"; timeout_ms = None; trace_id = 0 });
      ignore (P.recv_response fd);
      (* now stall: two bytes of a frame header, then silence *)
      ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
      let reaped =
        match P.recv_response fd with
        | None -> true (* server closed the connection *)
        | Some _ -> false
        | exception (P.Protocol_error _ | Unix.Unix_error _ | End_of_file) ->
            true
      in
      checkb "stalled connection reaped" true reaped;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* the reaped session's transaction rolled back; the engine serves *)
      let c = Client.connect_unix sock in
      hello_ok c ~user:"admin";
      checks "stalled txn rolled back" "n\n(0 rows)"
        (String.trim (rendered_of (query_ok c "SELECT * FROM lor")));
      ignore (query_ok c "INSERT INTO lor VALUES (2)");
      Client.close c)

(* Deadline expiry over the wire: the error frame carries [E_timeout]
   (not retryable — the same deadline would blow again), the statement
   rolled back, and the session survives. *)
let test_wire_timeout_roundtrip () =
  with_server (fun ~engine ~server:_ ~sock ->
      exec engine "CREATE TABLE wt (n INT)";
      exec engine "INSERT INTO wt VALUES (1)";
      let c = Client.connect_unix sock in
      hello_ok c ~user:"admin";
      (* a 0ms deadline cancels at the very first checkpoint *)
      (match Client.query c ~timeout_ms:0 "SELECT * FROM wt" with
      | P.Error_resp { code = P.E_timeout; _ } ->
          checkb "timeout not retryable" false (P.code_retryable P.E_timeout)
      | _ -> Alcotest.fail "expected E_timeout");
      (* the session survives and the engine still answers *)
      ignore (query_ok c "SELECT * FROM wt");
      (* inside a transaction: expiry fails the txn; ROLLBACK recovers *)
      ignore (query_ok c "BEGIN");
      (match Client.query c ~timeout_ms:0 "INSERT INTO wt VALUES (2)" with
      | P.Error_resp { code = P.E_timeout; _ } -> ()
      | _ -> Alcotest.fail "expected E_timeout in txn");
      (match Client.query c "INSERT INTO wt VALUES (3)" with
      | P.Error_resp { code = P.E_exec; _ } -> ()
      | _ -> Alcotest.fail "aborted txn must refuse statements");
      ignore (query_ok c "ROLLBACK");
      checks "timed-out writes rolled back" "n\n1\n(1 rows)"
        (String.trim (rendered_of (query_ok c "SELECT * FROM wt")));
      (* session-default deadline via the control op round-trips *)
      (match Client.control c "timeout 0" with
      | P.Message _ -> ()
      | _ -> Alcotest.fail "expected timeout ack");
      (match Client.query c "SELECT * FROM wt" with
      | P.Error_resp { code = P.E_timeout; _ } -> ()
      | _ -> Alcotest.fail "session default deadline must apply");
      (match Client.control c "timeout off" with
      | P.Message _ -> ()
      | _ -> Alcotest.fail "expected timeout-off ack");
      ignore (query_ok c "SELECT * FROM wt");
      Client.close c)

(* The [exec] control op knows exactly the engines [Context.exec_modes]
   lists: an unknown (or retired) name is a protocol error naming the
   valid ones, and the session keeps serving. *)
let test_wire_exec_modes () =
  with_server (fun ~engine ~server:_ ~sock ->
      exec engine "CREATE TABLE em (n INT)";
      exec engine "INSERT INTO em VALUES (1)";
      let c = Client.connect_unix sock in
      hello_ok c ~user:"admin";
      (match Client.control c "exec tuple" with
      | P.Error_resp { code = P.E_proto; message } ->
          checks "error lists the engines"
            "unknown exec mode \"tuple\" (naive|batch)" message
      | _ -> Alcotest.fail "expected an E_proto error for exec tuple");
      checks "engine unchanged" "batch" (rendered_of (Client.control c "exec"));
      (match Client.control c "exec naive" with
      | P.Message _ -> ()
      | _ -> Alcotest.fail "expected exec naive ack");
      checks "session still serves" "n\n1\n(1 rows)"
        (String.trim (rendered_of (query_ok c "SELECT * FROM em")));
      Client.close c)

(* Graceful drain: stop accepting, roll back what is still open, join
   every thread — and leave the engine (and its file lock) to the
   caller, who can keep using it. *)
let test_graceful_drain () =
  with_server (fun ~engine ~server ~sock ->
      exec engine "CREATE TABLE dr (n INT)";
      let c = Client.connect_unix sock in
      hello_ok c ~user:"admin";
      ignore (query_ok c "BEGIN");
      ignore (query_ok c "INSERT INTO dr VALUES (1)");
      Server.drain ~grace_s:0.2 server;
      (* the drained client's connection is dead *)
      let dead =
        match Client.query c "SELECT * FROM dr" with
        | exception (P.Protocol_error _ | Unix.Unix_error _ | End_of_file) ->
            true
        | P.Error_resp _ -> true
        | _ -> false
      in
      checkb "connection cut by drain" true dead;
      Client.close c;
      (* no new connections are accepted *)
      checkb "listener closed" true
        (match Client.connect_unix sock with
        | exception Unix.Unix_error _ -> true
        | c2 ->
            Client.close c2;
            false);
      (* the open transaction was rolled back and the engine still works *)
      checks "open txn rolled back" "n\n(0 rows)"
        (String.trim (render engine "SELECT * FROM dr"));
      exec engine "INSERT INTO dr VALUES (2)")

(* ------------------------------------------------------------- fuzz *)

let fuzz_on = Sys.getenv_opt "BDBMS_FUZZ_SERVER" = Some "1"

(* Random interleaving of sessions issuing BEGIN/INSERT/SELECT/COMMIT/
   ROLLBACK; the canonical state must equal the serial oracle of the
   acknowledged commits in seq order, for every seed. *)
(* The index and catalog epoch oracles on the canonical engine after a
   round ({!Fixtures.check_indexes}, {!Fixtures.check_catalog_epoch});
   counts the rounds the epoch oracle compared. *)
let epoch_checks = ref 0

let check_epoch_round what e =
  Fixtures.check_indexes ~what (Db.context (Engine.db e));
  if Fixtures.check_catalog_epoch ~what (Db.context (Engine.db e)) then
    incr epoch_checks

let fuzz_interleaved_sessions () =
  epoch_checks := 0;
  for seed = 1 to 12 do
    with_engine (fun e ->
        let rng = Prng.create (0xBd5 + seed) in
        let n_tables = 3 and n_sessions = 3 in
        for k = 0 to n_tables - 1 do
          exec e (Printf.sprintf "CREATE TABLE f%d (n INT)" k)
        done;
        (* built at once on the canonical engine: every commit maintains it *)
        exec e "CREATE INDEX f0_n ON f0 (n)";
        let sessions =
          Array.init n_sessions (fun _ ->
              match Session.create e ~user:"admin" with
              | Ok s -> s
              | Error err -> Alcotest.fail (Engine.error_message err))
        in
        let pending = Array.make n_sessions [] in
        let committed = ref [] in
        (* A-SQL statements that reached execution, for the query-log
           oracle: the set-up above, each transaction statement, and the
           final reads below *)
        let executed = ref (n_tables + 1) in
        for step = 1 to 250 do
          let i = Prng.int rng n_sessions in
          let s = sessions.(i) in
          if not (Session.in_txn s) then begin
            match Session.execute s "BEGIN" with
            | Ok Session.Began -> pending.(i) <- []
            | _ -> Alcotest.fail "BEGIN failed"
          end
          else
            let die = Prng.int rng 100 in
            if die < 55 then begin
              let sql =
                Printf.sprintf "INSERT INTO f%d VALUES (%d)"
                  (Prng.int rng n_tables) step
              in
              incr executed;
              match Session.execute s sql with
              | Ok _ -> pending.(i) <- sql :: pending.(i)
              | Error err -> Alcotest.fail (Engine.error_message err)
            end
            else if die < 70 then begin
              incr executed;
              match
                Session.execute s
                  (Printf.sprintf "SELECT * FROM f%d" (Prng.int rng n_tables))
              with
              | Ok _ -> ()
              | Error err -> Alcotest.fail (Engine.error_message err)
            end
            else if die < 90 then begin
              match Session.execute s "COMMIT" with
              | Ok (Session.Committed seq) ->
                  if seq > 0 then
                    committed := (seq, List.rev pending.(i)) :: !committed
              | Ok _ -> Alcotest.fail "expected Committed"
              | Error err ->
                  (* first-writer-wins loser: acknowledged nothing *)
                  checkb "commit failure is a conflict" true
                    (match err with Engine.Conflict _ -> true | _ -> false)
            end
            else ignore (Session.execute s "ROLLBACK")
        done;
        Array.iter Session.close sessions;
        let oracle = Db.create () in
        for k = 0 to n_tables - 1 do
          ignore (Db.exec_exn oracle (Printf.sprintf "CREATE TABLE f%d (n INT)" k))
        done;
        List.sort (fun (a, _) (b, _) -> compare a b) !committed
        |> List.iter (fun (_, stmts) ->
               List.iter (fun s -> ignore (Db.exec_exn oracle s)) stmts);
        for k = 0 to n_tables - 1 do
          let sql = Printf.sprintf "SELECT * FROM f%d" k in
          let oracle_view =
            Executor.render
              (match Db.exec oracle sql with
              | Ok o -> o
              | Error err -> Alcotest.fail err)
          in
          checks
            (Printf.sprintf "seed %d: %s" seed sql)
            oracle_view (render e sql)
        done;
        (* every statement recorded once: commit replay records nothing *)
        checki
          (Printf.sprintf "seed %d: query-log entries" seed)
          (!executed + n_tables)
          (Qlog.recorded (Db.qlog (Engine.db e)));
        check_epoch_round (Printf.sprintf "seed %d" seed) e)
  done;
  checkb "the epoch oracle compared some rounds" true (!epoch_checks > 0)

(* Crash injection at commit: arm the storage fault to crash on a random
   stable-storage op while a session streams committed txns; after the
   "process death", reopen the database and require every acknowledged
   transaction to have survived recovery (the in-flight one may land or
   not — it was never acknowledged). *)
let fuzz_crash_at_commit () =
  for seed = 1 to 10 do
    let path = tmp_path () in
    let e = Engine.create ~path () in
    exec e "CREATE TABLE f (n INT)";
    let rng = Prng.create (0xDEAD + seed) in
    let acked = ref [] in
    (* the one transaction whose commit was cut down mid-flight: its
       WAL commit record may or may not have become durable *)
    let maybe = ref [] in
    let crashed = ref false in
    let disk () = (Db.context (Engine.db e)).Context.disk in
    Fault.arm (Disk.fault (disk ()))
      ~tear_frac:(Prng.float rng 1.0)
      ~after_ops:(Prng.int_in rng ~lo:2 ~hi:80)
      ();
    (try
       let s =
         match Session.create e ~user:"admin" with
         | Ok s -> s
         | Error err -> Alcotest.fail (Engine.error_message err)
       in
       for k = 1 to 30 do
         let inflight = ref [] in
         (match Session.execute s "BEGIN" with
         | Ok Session.Began -> ()
         | _ -> raise Exit);
         let per_txn = 1 + Prng.int rng 3 in
         for j = 1 to per_txn do
           let sql =
             Printf.sprintf "INSERT INTO f VALUES (%d)" ((k * 10) + j)
           in
           (match Session.execute s sql with
           | Ok _ -> ()
           | Error _ ->
               (* crash surfaced mid-statement: the txn never reached
                  commit, so it cannot have landed *)
               raise Exit);
           inflight := sql :: !inflight
         done;
         (* from here the commit is in flight; if anything goes wrong
            its effects may or may not be durable *)
         maybe := List.rev !inflight;
         match Session.execute s "COMMIT" with
         | Ok (Session.Committed _) ->
             acked := !acked @ List.rev !inflight;
             maybe := []
         | Ok _ | Error _ -> raise Exit
       done;
       Session.close s
     with _ ->
       crashed := true;
       (try Disk.abandon (disk ()) with _ -> ()));
    if not !crashed then begin
      (try Fault.disarm (Disk.fault (disk ())) with _ -> ());
      Engine.close e
    end;
    (* reopen: recovery must preserve every acknowledged commit *)
    let e2 = Engine.create ~path () in
    let recovered = render e2 "SELECT * FROM f" in
    let oracle stmts =
      let db = Db.create () in
      ignore (Db.exec_exn db "CREATE TABLE f (n INT)");
      List.iter (fun s -> ignore (Db.exec_exn db s)) stmts;
      Executor.render
        (match Db.exec db "SELECT * FROM f" with
        | Ok o -> o
        | Error err -> Alcotest.fail err)
    in
    let just_acked = oracle !acked in
    let with_maybe = oracle (!acked @ !maybe) in
    checkb
      (Printf.sprintf "seed %d: acked commits survive recovery" seed)
      true
      (recovered = just_acked || recovered = with_maybe);
    exec e2 "INSERT INTO f VALUES (0)";
    ignore (render e2 "SELECT * FROM f");
    check_epoch_round (Printf.sprintf "seed %d after recovery" seed) e2;
    Engine.close e2;
    cleanup path
  done

(* ------------------------------------------------- monotonic counters *)

(* No slot of [after] may be below its value in [before]. *)
let check_no_decrease what ~before ~after =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name after with
      | Some v' ->
          if v' < v then
            Alcotest.failf "%s: %s went down from %d to %d" what name v v'
      | None -> Alcotest.failf "%s: %s missing from the later reading" what name)
    before

(* A failing statement rolls the durable handle back by re-bootstrapping
   a fresh context; the handle's counters must carry on from where the
   old context stopped. *)
let test_counters_monotonic_local () =
  let path = tmp_path () in
  let db = Db.create ~path () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      cleanup path)
    (fun () ->
      List.iter
        (fun sql -> ignore (Db.exec_exn db sql))
        [ "CREATE TABLE t (n INT)"; "INSERT INTO t VALUES (1)"; "SELECT * FROM t" ];
      let before = Stats.to_alist (Db.io_stats db) in
      checkb "failing statement fails" true
        (Result.is_error (Db.exec db "SELECT * FROM nosuch"));
      ignore (Db.exec_exn db "INSERT INTO t VALUES (2)");
      check_no_decrease "local rollback" ~before
        ~after:(Stats.to_alist (Db.io_stats db)))

let stats_reading c =
  match Client.control c "stats" with
  | P.Message { text } ->
      String.split_on_char ' ' (String.trim text)
      |> List.filter_map (fun kv ->
             match String.split_on_char '=' kv with
             | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
             | _ -> None)
  | _ -> Alcotest.fail "stats control op failed"

(* Over the wire: a failing autocommit statement and a first-writer-wins
   commit abort, between two [stats] readings. *)
let test_counters_monotonic_wire () =
  with_server (fun ~engine:_ ~server:_ ~sock ->
      let connect () =
        let c = Client.connect_unix sock in
        (match Client.hello c ~user:"admin" with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        c
      in
      let a = connect () and b = connect () in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          let q c sql = ignore (Client.query c sql) in
          List.iter (q a)
            [ "CREATE TABLE t (n INT)"; "INSERT INTO t VALUES (1)"; "SELECT * FROM t" ];
          let r0 = stats_reading a in
          (match Client.query a "SELECT * FROM nosuch" with
          | P.Error_resp _ -> ()
          | _ -> Alcotest.fail "failing statement must fail");
          let r1 = stats_reading a in
          check_no_decrease "failing statement" ~before:r0 ~after:r1;
          q a "BEGIN";
          q b "BEGIN";
          q a "INSERT INTO t VALUES (2)";
          q b "INSERT INTO t VALUES (3)";
          (match Client.query a "COMMIT" with
          | P.Committed _ -> ()
          | _ -> Alcotest.fail "first committer must win");
          (match Client.query b "COMMIT" with
          | P.Error_resp { code = P.E_conflict; _ } -> ()
          | _ -> Alcotest.fail "second committer must conflict");
          let r2 = stats_reading a in
          check_no_decrease "commit conflict" ~before:r1 ~after:r2;
          checki "conflict counted" 1
            (List.assoc "commit_conflicts" r2 - List.assoc "commit_conflicts" r1);
          checki "every slot read" (Array.length Stats.slots) (List.length r2)))

(* Over the wire: autocommit reads leave the catalog unchanged, so their
   commits swap no root and flush no log. *)
let test_reads_write_nothing_wire () =
  with_server (fun ~engine:_ ~server:_ ~sock ->
      let c = Client.connect_unix sock in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.hello c ~user:"admin" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e);
          let q sql =
            match Client.query c sql with
            | P.Error_resp { message; _ } -> Alcotest.failf "%s: %s" sql message
            | _ -> ()
          in
          q "CREATE TABLE t (n INT)";
          q "INSERT INTO t VALUES (1), (2), (3)";
          let r0 = stats_reading c in
          for k = 1 to 50 do
            q (Printf.sprintf "SELECT * FROM t WHERE n = %d" (1 + (k mod 3)))
          done;
          let r1 = stats_reading c in
          List.iter
            (fun name ->
              checki (name ^ " unchanged by 50 reads") (List.assoc name r0)
                (List.assoc name r1))
            [ "root_swaps"; "catalog_encodes"; "wal_flushes"; "writes" ];
          q "INSERT INTO t VALUES (4)";
          checki "a write swaps the root" 1
            (List.assoc "root_swaps" (stats_reading c) - List.assoc "root_swaps" r1)))

(* ------------------------------------------- the statement boundary *)

(* [stmt_hist] samples and query-log entries since [f] began, and the
   JSONL lines the query log wrote meanwhile. *)
let observations engine f =
  let o = Engine.obs engine in
  let lines = ref [] in
  Qlog.set_sink o.Obs.qlog (Some (fun l -> lines := l :: !lines));
  let h0 = Metrics.count o.Obs.stmt_hist and q0 = Qlog.recorded o.Obs.qlog in
  f ();
  Qlog.set_sink o.Obs.qlog None;
  (Metrics.count o.Obs.stmt_hist - h0, Qlog.recorded o.Obs.qlog - q0, !lines)

(* A transactional statement is observed once, on its snapshot: commit
   replay executes it again but neither re-parses nor re-records it. *)
let test_txn_statement_observed_once () =
  let check what tid (hist, recorded, lines) =
    checki (what ^ ": one stmt_hist sample") 1 hist;
    checki (what ^ ": one query-log entry") 1 recorded;
    checkb (what ^ ": the entry carries the request's trace id") true
      (List.exists (fun l -> contains l (Printf.sprintf "\"trace_id\":%d" tid)) lines)
  in
  with_server (fun ~engine ~server:_ ~sock ->
      exec engine "CREATE TABLE t (n INT)";
      check "engine" 4242
        (observations engine (fun () ->
             let txn = ok "BEGIN" (Engine.begin_txn engine ()) in
             ignore (ok "insert" (Engine.txn_exec txn ~trace_id:4242 "INSERT INTO t VALUES (1)"));
             checkb "committed" true (ok "commit" (Engine.commit_txn txn) > 0)));
      let c = Client.connect_unix sock in
      hello_ok c ~user:"admin";
      let tid = ref 0 in
      let hist, recorded, lines =
        observations engine (fun () ->
            ignore (query_ok c "BEGIN");
            ignore (query_ok c "INSERT INTO t VALUES (2)");
            tid := Client.last_trace_id c;
            ignore (query_ok c "COMMIT"))
      in
      checkb "the client stamped a trace id" true (!tid <> 0);
      check "wire" !tid (hist, recorded, lines);
      checks "both rows committed" "n\n1\n2\n(2 rows)"
        (String.trim (render engine "SELECT * FROM t ORDER BY n"));
      Client.close c)

(* A fault exception inside a snapshot statement is sorted into its error
   class like an autocommit statement's: an exhausted I/O retry budget is
   a [Degraded] answer that fails the transaction and leaves the
   canonical engine as it was.  The storage fault harness cannot raise it
   there (while the engine lock is free every canonical frame is clean,
   and loads are not fault-counted operations), so the snapshot's
   [sys.sessions] provider raises it, as a base read's write-back
   would. *)
let test_snapshot_io_fault_degraded () =
  with_engine (fun e ->
      exec e "CREATE TABLE t (n INT)";
      exec e "INSERT INTO t VALUES (1)";
      let failing = ref false in
      let ctx = Db.context (Engine.db e) in
      ctx.Context.sys_providers <-
        [
          ( "sys.sessions",
            fun () ->
              if !failing then
                raise (Backend.Io_degraded { op = "store"; detail = "injected" });
              [] );
        ];
      let txn = ok "BEGIN" (Engine.begin_txn e ()) in
      ignore (ok "write" (Engine.txn_exec txn "INSERT INTO t VALUES (2)"));
      failing := true;
      (match Engine.txn_exec txn "SELECT * FROM sys.sessions" with
      | Error (Engine.Degraded _) -> ()
      | Error err -> Alcotest.fail ("expected Degraded, got: " ^ Engine.error_message err)
      | Ok _ -> Alcotest.fail "the provider did not raise");
      failing := false;
      (match Engine.txn_exec txn "SELECT * FROM t" with
      | Error (Engine.Sql m) -> checkb "the transaction is failed" true (contains m "aborted")
      | _ -> Alcotest.fail "a failed transaction must refuse statements");
      (match Engine.commit_txn txn with
      | Ok _ -> Alcotest.fail "a failed transaction must refuse commit"
      | Error _ -> ());
      checkb "the canonical engine is not degraded" true (Db.degraded (Engine.db e) = None);
      checks "nothing of the transaction landed" "n\n1\n(1 rows)"
        (String.trim (render e "SELECT * FROM t")))

(* A fault while BEGIN bootstraps its snapshot is an error class, not an
   exception.  The bootstrap streams the catalog one overlay page at a
   time, so a one-frame overlay pool does not exhaust; its base reads go
   through the canonical pool, though, so with every canonical frame
   pinned away from the catalog root, BEGIN answers [Busy] ([E_busy]
   over the wire) through the error path.  The horizon it retained is
   released, no transaction is left open, and the session serves on. *)
let test_begin_bootstrap_fault () =
  with_server ~page_size:256 ~pool_pages:4 (fun ~engine ~server:_ ~sock ->
      exec engine "CREATE TABLE t (id INT, s TEXT)";
      for i = 1 to 60 do
        exec engine (Printf.sprintf "INSERT INTO t VALUES (%d, 'row%d')" i i)
      done;
      let vs = Engine.version_store engine in
      let bp = Disk.pager (Db.context (Engine.db engine)).Context.disk in
      let away_from_root = [ 1; 2; 3; 4 ] in
      pinned bp away_from_root (fun () ->
          match Engine.begin_txn engine () with
          | Error (Engine.Busy _) -> ()
          | Error err -> Alcotest.fail ("expected Busy, got: " ^ Engine.error_message err)
          | Ok _ -> Alcotest.fail "the bootstrap read did not exhaust the pool");
      checki "engine: no live horizon" 0 (Version_store.live_horizons vs);
      let c = Client.connect_unix sock in
      hello_ok c ~user:"admin";
      pinned bp away_from_root (fun () ->
          match Client.query c "BEGIN" with
          | P.Error_resp { code = P.E_busy; _ } -> ()
          | _ -> Alcotest.fail "expected E_busy");
      checki "wire: no live horizon" 0 (Version_store.live_horizons vs);
      (match Client.query c "COMMIT" with
      | P.Error_resp { code = P.E_exec; _ } -> ()
      | _ -> Alcotest.fail "no transaction may be open after a failed BEGIN");
      checks "the session serves on" "60"
        (List.nth (String.split_on_char '\n' (rendered_of (query_ok c "SELECT COUNT(*) FROM t"))) 1);
      ignore (query_ok c "BEGIN");
      ignore (query_ok c "COMMIT");
      Client.close c)

(* ---------------------------------------------------------- registry *)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  let fuzz_cases =
    if fuzz_on then
      [
        Alcotest.test_case "interleaved sessions vs oracle" `Slow
          fuzz_interleaved_sessions;
        Alcotest.test_case "crash at commit" `Slow fuzz_crash_at_commit;
      ]
    else
      [
        Alcotest.test_case "skipped (set BDBMS_FUZZ_SERVER=1)" `Quick
          (fun () -> ());
      ]
  in
  Alcotest.run "bdbms_server"
    [
      ( "protocol",
        q protocol_qcheck
        @ [ Alcotest.test_case "malformed frames" `Quick test_malformed_frames ]
      );
      ( "engine",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "read own writes" `Quick test_read_own_writes;
          Alcotest.test_case "row map at the horizon" `Quick
            test_snapshot_row_map_horizon;
          Alcotest.test_case "annotations and links at the horizon" `Quick
            test_snapshot_annotations_links_horizon;
          Alcotest.test_case "first writer wins" `Quick test_first_writer_wins;
          Alcotest.test_case "disjoint writers" `Quick
            test_disjoint_writers_no_conflict;
          Alcotest.test_case "rollback discards" `Quick test_rollback_discards;
          Alcotest.test_case "failed txn refuses commit" `Quick
            test_failed_txn_refuses_commit;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "pool exhaustion is Busy" `Quick test_pool_backpressure ] );
      ( "locking",
        [
          Alcotest.test_case "second open is Locked" `Quick test_second_open_locked;
          Alcotest.test_case "engine holds the lock" `Quick test_engine_holds_lock;
        ] );
      ( "session",
        [
          Alcotest.test_case "auth" `Quick test_session_auth;
          Alcotest.test_case "txn control" `Quick test_session_txn_control;
          Alcotest.test_case "conflict keeps session" `Quick
            test_session_conflict_keeps_session;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients vs oracle" `Quick
            test_concurrent_clients;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "byte-at-a-time frames" `Quick test_byte_at_a_time;
          Alcotest.test_case "mid-frame stall reaped" `Quick
            test_midframe_stall_reaped;
          Alcotest.test_case "deadline over the wire" `Quick
            test_wire_timeout_roundtrip;
          Alcotest.test_case "exec modes over the wire" `Quick
            test_wire_exec_modes;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "a txn statement is observed once" `Quick
            test_txn_statement_observed_once;
          Alcotest.test_case "snapshot I/O fault is Degraded" `Quick
            test_snapshot_io_fault_degraded;
          Alcotest.test_case "BEGIN bootstrap fault is Busy" `Quick
            test_begin_bootstrap_fault;
        ] );
      ( "counters",
        [
          Alcotest.test_case "monotonic across rollback" `Quick
            test_counters_monotonic_local;
          Alcotest.test_case "monotonic over the wire" `Quick
            test_counters_monotonic_wire;
          Alcotest.test_case "reads write nothing over the wire" `Quick
            test_reads_write_nothing_wire;
        ] );
      ("fuzz", fuzz_cases);
    ]
