(* Tests for the fault-tolerant request lifecycle: the backoff policy,
   the cooperative cancellation token, transient-I/O retry in the
   storage stack, the read-only degraded mode and its health probe,
   statement deadlines on the local engine, and the pin-leak regression
   (cancellation inside every operator kind must leave zero pinned
   pages). *)

open Bdbms
module Backoff = Bdbms_util.Backoff
module Cancel = Bdbms_util.Cancel
module Fault = Bdbms_storage.Fault
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Context = Bdbms_asql.Context
module Stats = Bdbms_obs.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_resil_%d_%d.db" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

(* ------------------------------------------------------------ backoff *)

(* a policy with near-zero sleeps so retry tests run instantly *)
let fast =
  { Backoff.default with Backoff.base_ms = 0.01; max_ms = 0.05 }

let test_backoff_delays () =
  let p = Backoff.default in
  for attempt = 1 to 12 do
    let d = Backoff.delay_ms p ~attempt in
    checkb "delay is positive" true (d >= 0.);
    checkb "delay respects the cap (+jitter)" true
      (d <= p.Backoff.max_ms *. (1. +. p.Backoff.jitter))
  done;
  checkb "budget is positive" true (Backoff.budget_ms p > 0.);
  (* every single sleep fits inside the worst-case budget *)
  for attempt = 1 to p.Backoff.max_attempts - 1 do
    checkb "each delay fits the budget" true
      (Backoff.delay_ms p ~attempt <= Backoff.budget_ms p)
  done

exception Flaky of int

let test_retry_succeeds () =
  let calls = ref 0 in
  let retries = ref 0 in
  let r =
    Backoff.retry ~policy:fast
      ~on_retry:(fun ~attempt:_ ~delay_ms:_ -> incr retries)
      ~retryable:(function Flaky _ -> true | _ -> false)
      (fun () ->
        incr calls;
        if !calls < 3 then raise (Flaky !calls) else "ok")
  in
  checks "result" "ok" r;
  checki "two failures, one success" 3 !calls;
  checki "two retries" 2 !retries

let test_retry_gives_up () =
  let calls = ref 0 in
  (match
     Backoff.retry ~policy:fast
       ~retryable:(function Flaky _ -> true | _ -> false)
       (fun () ->
         incr calls;
         raise (Flaky !calls))
   with
  | (_ : string) -> Alcotest.fail "must not succeed"
  | exception Flaky n ->
      (* the LAST failure flies, after the full budget *)
      checki "attempts" fast.Backoff.max_attempts n);
  checki "budget spent" fast.Backoff.max_attempts !calls

let test_retry_not_retryable () =
  let calls = ref 0 in
  (match
     Backoff.retry ~policy:fast
       ~retryable:(function Failure _ -> false | _ -> true)
       (fun () ->
         incr calls;
         failwith "fatal")
   with
  | (_ : string) -> Alcotest.fail "must not succeed"
  | exception Failure _ -> checki "no retry on non-retryable" 1 !calls)

(* ------------------------------------------------------------- cancel *)

let test_cancel_token () =
  let c = Cancel.create () in
  checkb "fresh token disarmed" false (Cancel.armed c);
  Cancel.check c;
  (* a 0ms deadline fires at the very next checkpoint *)
  Cancel.set_deadline_ms c 0.;
  checkb "armed" true (Cancel.armed c);
  (match Cancel.check c with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Cancel.Cancelled reason ->
      checks "reason" "statement timeout" reason);
  Cancel.clear c;
  Cancel.check c;
  (* explicit cancellation: first reason wins *)
  Cancel.cancel c "first";
  Cancel.cancel c "second";
  (match Cancel.check c with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Cancel.Cancelled reason -> checks "first reason wins" "first" reason);
  Cancel.clear c;
  (* with_deadline scopes the deadline and restores on exit *)
  Cancel.with_deadline c ~timeout_ms:60_000. (fun () ->
      checkb "armed inside" true (Cancel.armed c));
  checkb "disarmed after" false (Cancel.armed c);
  (match Cancel.set_deadline_ms c (-1.) with
  | () -> Alcotest.fail "negative deadline must be rejected"
  | exception Invalid_argument _ -> ())

(* ------------------------------------- storage: transient-fault retry *)

let test_transient_retry_absorbed () =
  let path = tmp_path () in
  let fault = Fault.create () in
  let db = Db.create ~path ~fault () in
  ignore (Db.exec_exn db "CREATE TABLE t (n INT)");
  let retries0 = (Db.io_stats db).Stats.io_retries in
  (* two consecutive stable-storage failures: inside the retry budget *)
  Fault.arm_io fault ~count:2 Fault.Eio;
  ignore (Db.exec_exn db "INSERT INTO t VALUES (1)");
  checkb "retries counted" true
    ((Db.io_stats db).Stats.io_retries >= retries0 + 2);
  checki "nothing gave up" 0 ((Db.io_stats db).Stats.io_gave_up);
  checkb "not degraded" true (Db.degraded db = None);
  checkb "fault fully drained" false (Fault.io_pending fault);
  checks "write landed" "n\n1\n(1 rows)"
    (String.trim (Db.render_exn db "SELECT * FROM t"));
  Db.close db;
  (* the retried write is durable and CRC-clean on reopen *)
  let db2 = Db.create ~path () in
  checks "survives reopen" "n\n1\n(1 rows)"
    (String.trim (Db.render_exn db2 "SELECT * FROM t"));
  Db.close db2;
  cleanup path

let test_short_write_repaired () =
  let path = tmp_path () in
  let fault = Fault.create () in
  let db = Db.create ~path ~fault () in
  ignore (Db.exec_exn db "CREATE TABLE t (n INT)");
  ignore (Db.exec_exn db "INSERT INTO t VALUES (7)");
  (* a torn page-store: the first attempt lands a half-written slot,
     the retry rewrites it whole (the page CRC trailer would catch a
     surviving torn slot at read time) *)
  Fault.arm_io fault ~count:1 Fault.Short_write;
  (match Db.checkpoint db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Db.close db;
  let db2 = Db.create ~path () in
  checks "page intact after torn write + retry" "n\n7\n(1 rows)"
    (String.trim (Db.render_exn db2 "SELECT * FROM t"));
  Db.close db2;
  cleanup path

let test_latency_spike_tolerated () =
  let path = tmp_path () in
  let fault = Fault.create () in
  let db = Db.create ~path ~fault () in
  ignore (Db.exec_exn db "CREATE TABLE t (n INT)");
  Fault.arm_latency fault ~ms:2. ~ops:3;
  ignore (Db.exec_exn db "INSERT INTO t VALUES (1)");
  ignore (Db.exec_exn db "INSERT INTO t VALUES (2)");
  checks "writes landed through the spikes" "n\n1\n2\n(2 rows)"
    (String.trim (Db.render_exn db "SELECT * FROM t"));
  Db.close db;
  cleanup path

(* -------------------------------------------- degraded mode lifecycle *)

let test_degraded_mode_and_heal () =
  let path = tmp_path () in
  let fault = Fault.create () in
  let db = Db.create ~path ~fault () in
  ignore (Db.exec_exn db "CREATE TABLE t (n INT)");
  ignore (Db.exec_exn db "INSERT INTO t VALUES (1)");
  (* exactly the retry budget of failures: the write gives up, and the
     injector is drained by the time degraded entry re-bootstraps *)
  Fault.arm_io fault ~count:Backoff.default.Backoff.max_attempts Fault.Enospc;
  (match Db.exec db "INSERT INTO t VALUES (2)" with
  | Ok _ -> Alcotest.fail "write must fail with I/O down"
  | Error e ->
      checkb "error names the failure" true
        (let has needle =
           let rec find i =
             i + String.length needle <= String.length e
             && (String.sub e i (String.length needle) = needle || find (i + 1))
           in
           find 0
         in
         has "degraded" || has "I/O failing" || has "read-only"));
  checkb "entered degraded mode" true (Db.degraded db <> None);
  checkb "gauge raised" true
    ((Db.io_stats db).Stats.degraded = 1);
  checkb "gave-up counted" true
    ((Db.io_stats db).Stats.io_gave_up >= 1);
  checki "one degraded entry" 1
    ((Db.io_stats db).Stats.degraded_entries);
  (* each statement runs one health probe first; keep that probe failing
     (one armed fault per statement) so the engine stays degraded *)
  Fault.arm_io fault ~count:1 Fault.Enospc;
  (* reads keep serving the last committed state *)
  checks "reads still served" "n\n1\n(1 rows)"
    (String.trim (Db.render_exn db "SELECT * FROM t"));
  checkb "read did not heal it" true (Db.degraded db <> None);
  (* writes fail fast while the probe keeps failing *)
  Fault.arm_io fault ~count:1 Fault.Enospc;
  (match Db.exec db "INSERT INTO t VALUES (3)" with
  | Ok _ -> Alcotest.fail "degraded engine must refuse writes"
  | Error e ->
      checkb "read-only error" true
        (String.length e >= 9 && String.sub e 0 9 = "database "));
  checkb "still degraded" true (Db.degraded db <> None);
  (* I/O recovers: the next statement's health probe re-arms writes *)
  Fault.disarm fault;
  (match Db.exec db "INSERT INTO t VALUES (4)" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("healed write failed: " ^ e));
  checkb "healed" true (Db.degraded db = None);
  checkb "gauge cleared" true
    ((Db.io_stats db).Stats.degraded = 0);
  checks "only acknowledged writes survive" "n\n1\n4\n(2 rows)"
    (String.trim (Db.render_exn db "SELECT * FROM t ORDER BY n"));
  Db.close db;
  (* and the same holds across reopen *)
  let db2 = Db.create ~path () in
  checks "durable state consistent" "n\n1\n4\n(2 rows)"
    (String.trim (Db.render_exn db2 "SELECT * FROM t ORDER BY n"));
  Db.close db2;
  cleanup path

(* the metrics exposition carries the new instruments *)
let test_metrics_exposition () =
  let db = Db.create () in
  let text = Db.metrics db in
  List.iter
    (fun name ->
      let has =
        let rec find i =
          i + String.length name <= String.length text
          && (String.sub text i (String.length name) = name || find (i + 1))
        in
        find 0
      in
      checkb name true has)
    [
      "bdbms_io_retries_total";
      "bdbms_io_gave_up_total";
      "bdbms_stmts_timed_out_total";
      "bdbms_degraded_entries_total";
      "bdbms_degraded";
      "bdbms_io_retry_backoff_ns";
    ];
  Db.close db

(* --------------------------------------------- statement deadlines *)

let test_stmt_timeout_local () =
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE t (n INT)");
  for i = 1 to 50 do
    ignore (Db.exec_exn db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  let timed_out0 = (Db.io_stats db).Stats.stmts_timed_out in
  (match Db.set_stmt_timeout_ms db (Some (-1.)) with
  | () -> Alcotest.fail "negative timeout must be rejected"
  | exception Invalid_argument _ -> ());
  (* a 0ms deadline cancels at the very first checkpoint: deterministic *)
  Db.set_stmt_timeout_ms db (Some 0.);
  (match Db.exec db "SELECT * FROM t" with
  | Ok _ -> Alcotest.fail "0ms deadline must cancel"
  | Error e ->
      checkb "aborted error" true
        (String.length e >= 17 && String.sub e 0 17 = "statement aborted");
      checkb "counted" true
        ((Db.io_stats db).Stats.stmts_timed_out > timed_out0));
  (* the handle recovers: disarm and run the same statement *)
  Db.set_stmt_timeout_ms db None;
  ignore (Db.exec_exn db "SELECT * FROM t");
  (* a generous deadline does not fire *)
  Db.set_stmt_timeout_ms db (Some 60_000.);
  ignore (Db.exec_exn db "SELECT * FROM t");
  Db.close db

(* a timed-out write on a durable engine rolls back cleanly *)
let test_timeout_rolls_back_durable () =
  let path = tmp_path () in
  let db = Db.create ~path () in
  ignore (Db.exec_exn db "CREATE TABLE t (n INT)");
  ignore (Db.exec_exn db "INSERT INTO t VALUES (1)");
  Db.set_stmt_timeout_ms db (Some 0.);
  (match Db.exec db "INSERT INTO t VALUES (2)" with
  | Ok _ -> Alcotest.fail "0ms deadline must cancel"
  | Error _ -> ());
  Db.set_stmt_timeout_ms db None;
  checks "timed-out write left nothing behind" "n\n1\n(1 rows)"
    (String.trim (Db.render_exn db "SELECT * FROM t"));
  Db.close db;
  let db2 = Db.create ~path () in
  checks "nothing after reopen either" "n\n1\n(1 rows)"
    (String.trim (Db.render_exn db2 "SELECT * FROM t"));
  Db.close db2;
  cleanup path

(* ------------------------------------------- pin-leak on cancellation *)

(* Cancel mid-statement inside every operator kind; whether the
   cancellation lands mid-pipeline or the statement completes first,
   the pager must end with zero pinned pages and the engine must keep
   working.  (The executor's pin scopes use [Fun.protect], so an
   exception at any checkpoint unwinds every pin.) *)
let test_pin_leak_on_cancel () =
  let db = Db.create () in
  ignore (Db.exec_exn db "CREATE TABLE big (n INT, k INT)");
  for i = 1 to 400 do
    ignore
      (Db.exec_exn db
         (Printf.sprintf "INSERT INTO big VALUES (%d, %d)" i (i mod 7)))
  done;
  let queries =
    [
      (* scan *) "SELECT * FROM big";
      (* filter *) "SELECT * FROM big WHERE k = 3";
      (* join *)
      "SELECT a.n, b.n FROM big a, big b WHERE a.k = b.k AND a.n < 40";
      (* aggregate *) "SELECT k, COUNT(*) AS c FROM big GROUP BY k";
      (* sort/top-k *) "SELECT * FROM big ORDER BY k DESC LIMIT 10";
    ]
  in
  List.iter
    (fun mode ->
      Db.set_exec_mode db mode;
      List.iter
        (fun sql ->
          let ctx = Db.context db in
          let killer =
            Thread.create
              (fun () ->
                Thread.delay 0.0005;
                Cancel.cancel ctx.Context.cancel "pin-leak probe")
              ()
          in
          (match Db.exec db sql with
          | Ok _ -> () (* finished before the cancel landed: also fine *)
          | Error e ->
              checkb (sql ^ ": cancelled, not crashed") true
                (String.length e >= 17
                && String.sub e 0 17 = "statement aborted"));
          Thread.join killer;
          Cancel.clear ctx.Context.cancel;
          checki
            (sql ^ ": no leaked pins")
            0
            (Pager.pinned (Disk.pager ctx.Context.disk));
          (* the engine still answers the very same query *)
          match Db.exec db sql with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (sql ^ " after cancel: " ^ e))
        queries)
    [ `Naive; `Tuple; `Batch ];
  Db.close db

(* ---------------------------------------------------------- registry *)

let () =
  Alcotest.run "bdbms_resilience"
    [
      ( "backoff",
        [
          Alcotest.test_case "delay bounds" `Quick test_backoff_delays;
          Alcotest.test_case "retry succeeds" `Quick test_retry_succeeds;
          Alcotest.test_case "retry gives up" `Quick test_retry_gives_up;
          Alcotest.test_case "non-retryable flies" `Quick
            test_retry_not_retryable;
        ] );
      ( "cancel",
        [ Alcotest.test_case "token lifecycle" `Quick test_cancel_token ] );
      ( "transient-io",
        [
          Alcotest.test_case "retry absorbs faults" `Quick
            test_transient_retry_absorbed;
          Alcotest.test_case "short write repaired" `Quick
            test_short_write_repaired;
          Alcotest.test_case "latency spikes tolerated" `Quick
            test_latency_spike_tolerated;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "enter, serve reads, heal" `Quick
            test_degraded_mode_and_heal;
          Alcotest.test_case "metrics exposition" `Quick
            test_metrics_exposition;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "local statement timeout" `Quick
            test_stmt_timeout_local;
          Alcotest.test_case "durable rollback on expiry" `Quick
            test_timeout_rolls_back_durable;
        ] );
      ( "pins",
        [
          Alcotest.test_case "cancel leaks no pins" `Quick
            test_pin_leak_on_cancel;
        ] );
    ]
