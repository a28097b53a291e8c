(* The concurrency engine: snapshot-isolated transactions with group
   commit over one shared durable [Db.t].

   Locking discipline (never reversed, so no deadlocks):

     engine lock (t.mu)  →  version-store lock  →  (nothing)
     queue lock (t.qmu)  — never held across either of the above

   The engine lock serializes every touch of the canonical engine: the
   autocommit path, batch replay at commit, and the committed-version
   fallback read that snapshot overlays use on a page-fault miss.  The
   invariant it buys: whenever the lock is free, every canonical pager
   frame holds committed content — each locked section ends in a commit
   (sealing the version store's pending pre-images into versions) or a
   rollback (discarding them).  A snapshot read that falls through the
   version store to the canonical page is therefore always reading
   committed bytes, and the version store answers for anything committed
   after the snapshot's horizon.

   Group commit: committing transactions enqueue; the first becomes the
   leader and drains the queue in batches, replaying each conflict-free
   transaction's buffered statements and sealing the whole batch with
   ONE [Db.commit] — one WAL fsync amortized over every transaction in
   the batch (the E15 bench measures exactly this). *)

module Db = Bdbms.Db
module Context = Bdbms_asql.Context
module Executor = Bdbms_asql.Executor
module Parser = Bdbms_asql.Parser
module Disk = Bdbms_storage.Disk
module Pager = Bdbms_storage.Pager
module Stats = Bdbms_obs.Stats
module Backend = Bdbms_storage.Backend
module Obs = Bdbms_obs.Obs
module Trace = Bdbms_obs.Trace
module Qlog = Bdbms_obs.Qlog
module Timer = Bdbms_util.Timer
module Cancel = Bdbms_util.Cancel

type error =
  | Sql of string
  | Conflict of string
  | Busy of string
  | Timeout of string
  | Degraded of string
  | Closed

(* [Degraded] is transient by design (a health probe re-arms writes once
   I/O recovers), so clients may retry.  [Timeout] is not: the statement
   blew its own deadline and was rolled back — retrying with the same
   deadline would blow it again. *)
let retryable = function
  | Conflict _ | Busy _ | Degraded _ -> true
  | Sql _ | Timeout _ | Closed -> false

let error_message = function
  | Sql m | Conflict m | Busy m | Timeout m | Degraded m -> m
  | Closed -> "engine is closed"

(* What a sealed commit wrote, for first-writer-wins checks against
   later-committing transactions whose horizon predates it.  [wildcard]
   (DDL) conflicts with any footprint. *)
let wildcard = "*"

type commit_entry = { ce_csn : int; ce_tables : string list }

type t = {
  db : Db.t;
  vs : Version_store.t;
  mu : Mutex.t; (* the engine lock *)
  page_size : int;
  snapshot_pool : int;
  mutable recent : commit_entry list; (* newest first, pruned by horizon *)
  mutable commit_seq : int; (* global commit order (serial-oracle index) *)
  mutable closed : bool;
  (* group-commit queue *)
  qmu : Mutex.t;
  qcond : Condition.t;
  queue : request Queue.t;
  mutable committer_running : bool;
}

and txn = {
  tx_engine : t;
  tx_horizon : int;
  tx_ctx : Context.t;
  tx_user : string;
  mutable tx_stmts : string list; (* buffered write statements, reversed *)
  mutable tx_touched : string list; (* reads ∪ writes of the write stmts *)
  mutable tx_writes : string list;
  mutable tx_ddl : bool;
  mutable tx_failed : bool;
  mutable tx_done : bool;
}

and request = { rq_txn : txn; mutable rq_result : (int, error) result option }

let db t = t.db
let obs t = Db.obs t.db
let version_store t = t.vs

let create ?page_size ?pool_pages ?(snapshot_pool_pages = 128)
    ?(strict_acl = false) ?fault ~path () =
  let db = Db.create ?page_size ?pool_pages ?fault ~path () in
  Db.set_strict_acl db strict_acl;
  let vs = Version_store.create () in
  Db.set_on_first_dirty db (Some (fun id page -> Version_store.capture vs id page));
  {
    db;
    vs;
    mu = Mutex.create ();
    page_size = Disk.page_size (Db.context db).Context.disk;
    snapshot_pool = snapshot_pool_pages;
    recent = [];
    commit_seq = 0;
    closed = false;
    qmu = Mutex.create ();
    qcond = Condition.create ();
    queue = Queue.create ();
    committer_running = false;
  }

(* ------------------------------------------------------ snapshot reads *)

(* The content page [id] had at [horizon]: a retained version if any
   commit after the horizon overwrote it, else the canonical page (still
   current).  Takes the engine lock so the two-step lookup is atomic
   against a concurrent batch sealing — and so it never reads canonical
   frames mid-replay. *)
let read_committed t ~horizon id =
  Mutex.protect t.mu (fun () ->
      match Version_store.read t.vs ~horizon id with
      | Some page -> page
      | None -> Disk.read (Db.context t.db).Context.disk id)

(* ------------------------------------------------------ commit history *)

let dedup names = List.sort_uniq compare names

let footprint txn =
  if txn.tx_ddl then wildcard :: txn.tx_writes else txn.tx_writes

(* Does a commit that wrote [tables] invalidate a transaction whose
   conflict footprint is [touched]?  Wildcards on either side collide
   with anything. *)
let tables_conflict ~tables ~touched =
  List.exists
    (fun tbl -> tbl = wildcard || List.mem tbl touched)
    tables
  || (List.mem wildcard touched && tables <> [])

(* First conflicting table (for the error message), if any commit sealed
   after [horizon] wrote into the transaction's footprint. *)
let recent_conflict t ~horizon ~touched =
  List.find_map
    (fun e ->
      if e.ce_csn > horizon && tables_conflict ~tables:e.ce_tables ~touched
      then Some (List.hd e.ce_tables)
      else None)
    t.recent

let record_commit_locked t ~tables =
  let csn = Version_store.seal t.vs in
  if tables <> [] then
    t.recent <- { ce_csn = csn; ce_tables = dedup tables } :: t.recent;
  (* entries at or below every live horizon can never conflict again *)
  let floor = Version_store.min_horizon t.vs in
  t.recent <- List.filter (fun e -> e.ce_csn > floor) t.recent

let abort_cycle_locked t =
  Db.force_rollback t.db;
  Version_store.abort_cycle t.vs

(* --------------------------------------------------------- autocommit *)

let superuser = Context.superuser

(* An exhausted I/O retry budget anywhere under the engine lock: drop
   into read-only degraded mode (which re-bootstraps the canonical
   engine) and discard the version store's pending pre-images — the
   rollback already reinstalled the capture hook on the fresh disk. *)
let io_degraded_locked t ~op ~detail =
  Db.enter_degraded t.db (Printf.sprintf "%s: %s" op detail);
  Version_store.abort_cycle t.vs;
  Error
    (Degraded
       (Printf.sprintf "I/O failing (%s: %s); engine is read-only" op detail))

let note_timeout t reason =
  Stats.record_stmt_timed_out (obs t).Obs.stats;
  Error (Timeout ("statement aborted: " ^ reason))

(* Install a wire-supplied trace id (0 = none) as the ambient id for the
   duration of a statement, so every span and query-log entry it records
   links back to the client's request frame.  The ambient id is a single
   shared slot on the trace ring: exact under the engine lock (the
   autocommit path), best-effort for concurrently executing snapshot
   statements. *)
let with_tid t tid f =
  if tid = 0 then f ()
  else Trace.with_trace_id (Db.obs t.db).Obs.trace tid f

let execute t ?(user = superuser) ?(session = 0) ?exec_mode ?timeout_ms
    ?(trace_id = 0) sql =
  match Parser.parse sql with
  | Error e -> Error (Sql e)
  | Ok stmt ->
      let cls = Stmt_class.classify stmt in
      Mutex.protect t.mu (fun () ->
          if t.closed then Error Closed
          else begin
            if Db.degraded t.db <> None then Db.try_heal t.db;
            let saved = (Db.context t.db).Context.exec_mode in
            (match exec_mode with
            | Some m -> (Db.context t.db).Context.exec_mode <- m
            | None -> ());
            Fun.protect
              ~finally:(fun () ->
                (* a rollback recreates the context, so re-fetch it *)
                (Db.context t.db).Context.exec_mode <- saved)
              (fun () ->
                match
                  with_tid t trace_id (fun () ->
                      Db.exec_nocommit t.db ~user ~session ?timeout_ms sql)
                with
                | Ok outcome -> (
                    match Db.commit t.db with
                    | Ok () ->
                        t.commit_seq <- t.commit_seq + 1;
                        record_commit_locked t
                          ~tables:
                            (if cls.Stmt_class.ddl then [ wildcard ]
                             else cls.Stmt_class.writes);
                        Ok outcome
                    | Error e ->
                        abort_cycle_locked t;
                        Error (Sql e)
                    | exception Backend.Io_degraded { op; detail } ->
                        io_degraded_locked t ~op ~detail)
                | Error e ->
                    abort_cycle_locked t;
                    Error (Sql e)
                | exception Pager.Pool_exhausted _ ->
                    abort_cycle_locked t;
                    Error (Busy "buffer pool exhausted; retry")
                | exception Cancel.Cancelled reason ->
                    abort_cycle_locked t;
                    note_timeout t reason
                | exception Executor.Read_only reason ->
                    abort_cycle_locked t;
                    Error
                      (Degraded
                         (Printf.sprintf "engine is read-only (degraded: %s)"
                            reason))
                | exception Backend.Io_degraded { op; detail } ->
                    io_degraded_locked t ~op ~detail)
          end)

(* ------------------------------------------------------- transactions *)

let begin_txn t ?(user = superuser) () =
  let horizon, base_count, flags =
    Mutex.protect t.mu (fun () ->
        if t.closed then failwith "engine is closed";
        let ctx = Db.context t.db in
        let horizon = Version_store.csn t.vs in
        Version_store.retain t.vs ~horizon;
        ( horizon,
          Disk.page_count ctx.Context.disk,
          ( ctx.Context.strict_acl,
            ctx.Context.auto_provenance,
            ctx.Context.exec_mode,
            ctx.Context.batch_rows,
            ctx.Context.sys_providers ) ))
  in
  match
    (* no [~obs]: the overlay counts into a private group, since its page
       writes are memory, not the handle's I/O *)
    let disk =
      Disk.overlay ~page_size:t.page_size ~pool_pages:t.snapshot_pool
        ~base_count
        ~base_read:(fun id -> read_committed t ~horizon id)
        ()
    in
    let ctx = Context.create ~disk ~obs:(Db.obs t.db) () in
    (* built-ins before bootstrap so persisted dependency chains rebind *)
    Db.register_builtin_procedures ctx;
    let (_ : int) = Context.bootstrap ctx in
    let sa, ap, em, br, sp = flags in
    ctx.Context.strict_acl <- sa;
    ctx.Context.auto_provenance <- ap;
    ctx.Context.exec_mode <- em;
    ctx.Context.batch_rows <- br;
    (* the live-session provider follows the snapshot, so [sys.sessions]
       works inside a transaction too *)
    ctx.Context.sys_providers <- sp;
    ctx.Context.session_label <- Some (Printf.sprintf "%s@%d" user horizon);
    ctx
  with
  | ctx ->
      {
        tx_engine = t;
        tx_horizon = horizon;
        tx_ctx = ctx;
        tx_user = user;
        tx_stmts = [];
        tx_touched = [];
        tx_writes = [];
        tx_ddl = false;
        tx_failed = false;
        tx_done = false;
      }
  | exception e ->
      Version_store.release t.vs ~horizon;
      raise e

let txn_user txn = txn.tx_user
let txn_active txn = not txn.tx_done

(* session `\exec` override: a transaction runs on its own snapshot
   context, so the mode is set there directly *)
let txn_set_exec_mode txn m = txn.tx_ctx.Context.exec_mode <- m

(* The overlay needs no teardown (ephemeral, not durable): dropping the
   context drops it; only the horizon retention must be returned. *)
let finish txn =
  if not txn.tx_done then begin
    txn.tx_done <- true;
    Version_store.release txn.tx_engine.vs ~horizon:txn.tx_horizon
  end

let rollback_txn txn = finish txn

let rec txn_exec txn ?(session = 0) ?timeout_ms ?(trace_id = 0) sql =
  let t = txn.tx_engine in
  if txn.tx_done then Error (Sql "no transaction in progress")
  else if txn.tx_failed then
    Error (Sql "current transaction is aborted; ROLLBACK and retry")
  else
    match Parser.parse sql with
    | Error e ->
        txn.tx_failed <- true;
        Error (Sql e)
    | Ok stmt -> (
        let cls = Stmt_class.classify stmt in
        if Stmt_class.is_write cls && Db.degraded t.db <> None then begin
          (* fail fast instead of buffering a write that commit replay
             would refuse anyway (the canonical engine is read-only) *)
          Db.try_heal t.db;
          if Db.degraded t.db <> None then begin
            txn.tx_failed <- true;
            Error
              (Degraded "engine is read-only (degraded); ROLLBACK and retry")
          end
          else txn_exec_stmt txn cls ~session ?timeout_ms ~trace_id sql stmt
        end
        else txn_exec_stmt txn cls ~session ?timeout_ms ~trace_id sql stmt)

and txn_exec_stmt txn cls ~session ?timeout_ms ~trace_id sql stmt =
  let t = txn.tx_engine in
  let o = Db.obs t.db in
  let run () =
    with_tid t trace_id (fun () ->
        Obs.timed o o.Obs.stmt_hist "txn.stmt" (fun () ->
            Context.with_deadline txn.tx_ctx ?timeout_ms (fun () ->
                Executor.execute txn.tx_ctx ~user:txn.tx_user stmt)))
  in
  match Timer.timed run with
  | result, elapsed -> (
      (* transaction statements bypass [Db.exec]'s recording, so the
         query log is fed here, carrying the wire session and trace id *)
      let ok, rows =
        match result with
        | Ok (Executor.Rows rs) ->
            (true, List.length rs.Bdbms_annotation.Propagate.rows)
        | Ok (Executor.Count { affected; _ }) -> (true, affected)
        | Ok _ -> (true, -1)
        | Error _ -> (false, -1)
      in
      let slow =
        match Db.slow_ms t.db with
        | Some threshold -> Timer.ns_to_ms elapsed >= threshold
        | None -> false
      in
      Qlog.record o.Obs.qlog ~sql ~user:txn.tx_user ~session ~dur_ns:elapsed
        ~rows ~trace_id ~ok ~slow;
      match result with
      | Ok outcome ->
          if Stmt_class.is_write cls then begin
            txn.tx_stmts <- sql :: txn.tx_stmts;
            txn.tx_touched <-
              dedup
                (cls.Stmt_class.reads @ cls.Stmt_class.writes @ txn.tx_touched);
            txn.tx_writes <- dedup (cls.Stmt_class.writes @ txn.tx_writes);
            if cls.Stmt_class.ddl then txn.tx_ddl <- true
          end;
          Ok outcome
      | Error e ->
          txn.tx_failed <- true;
          Error (Sql e))
  | exception Pager.Pool_exhausted _ ->
      txn.tx_failed <- true;
      Error (Busy "snapshot buffer pool exhausted; ROLLBACK and retry")
  | exception Cancel.Cancelled reason ->
      txn.tx_failed <- true;
      note_timeout t reason

(* ------------------------------------------------------- group commit *)

exception Restart_batch

(* Replay one transaction's buffered statements onto the canonical
   engine.  A failure poisons the whole uncommitted cycle (prior
   transactions of this batch included), so the caller rolls everything
   back and restarts the batch without the offender. *)
let replay_txn t txn =
  let rec go = function
    | [] -> Ok ()
    | sql :: rest -> (
        match Db.exec_nocommit t.db ~user:txn.tx_user sql with
        | Ok _ -> go rest
        | Error e -> Error (Sql e)
        | exception Pager.Pool_exhausted _ ->
            Error (Busy "buffer pool exhausted during commit replay; retry")
        | exception Cancel.Cancelled reason -> note_timeout t reason
        | exception Executor.Read_only reason ->
            Error
              (Degraded
                 (Printf.sprintf "engine is read-only (degraded: %s)" reason))
        | exception Backend.Io_degraded { op; detail } ->
            io_degraded_locked t ~op ~detail)
  in
  go (List.rev txn.tx_stmts)

(* Process one drained batch under the engine lock.  Each request is
   conflict-checked against (a) commits sealed after its horizon and (b)
   writes already replayed earlier in this batch, then replayed.  All
   survivors share ONE [Db.commit] — the group commit — and are assigned
   consecutive positions in the global commit order. *)
let process_batch t reqs =
  Mutex.protect t.mu (fun () ->
      if t.closed then
        List.iter (fun rq -> rq.rq_result <- Some (Error Closed)) reqs
      else begin
        if Db.degraded t.db <> None then Db.try_heal t.db;
        let rec attempt () =
          let replayed = ref [] in
          let batch_tables = ref [] in
          (try
             List.iter
               (fun rq ->
                 if rq.rq_result = None then begin
                   let txn = rq.rq_txn in
                   let conflict =
                     match
                       recent_conflict t ~horizon:txn.tx_horizon
                         ~touched:
                           (if txn.tx_ddl then wildcard :: txn.tx_touched
                            else txn.tx_touched)
                     with
                     | Some tbl -> Some tbl
                     | None ->
                         if
                           tables_conflict ~tables:!batch_tables
                             ~touched:
                               (if txn.tx_ddl then
                                  wildcard :: txn.tx_touched
                                else txn.tx_touched)
                         then Some (List.hd !batch_tables)
                         else None
                   in
                   match conflict with
                   | Some tbl ->
                       Stats.record_commit_conflict (obs t).Obs.stats;
                       rq.rq_result <-
                         Some
                           (Error
                              (Conflict
                                 (Printf.sprintf
                                    "serialization conflict on table %s: \
                                     concurrent transaction committed \
                                     first"
                                    tbl)))
                   | None -> (
                       match replay_txn t txn with
                       | Ok () ->
                           replayed := rq :: !replayed;
                           batch_tables :=
                             dedup (footprint txn @ !batch_tables)
                       | Error e ->
                           (* poison: discard the whole uncommitted cycle
                              and redo the batch without this request *)
                           abort_cycle_locked t;
                           rq.rq_result <- Some (Error e);
                           raise Restart_batch)
                 end)
               reqs;
             if !replayed <> [] then begin
               match Db.commit t.db with
               | Ok () ->
                   Stats.record_group_commit (obs t).Obs.stats;
                   record_commit_locked t ~tables:!batch_tables;
                   List.iter
                     (fun rq ->
                       t.commit_seq <- t.commit_seq + 1;
                       rq.rq_result <- Some (Ok t.commit_seq))
                     (List.rev !replayed)
               | Error e ->
                   abort_cycle_locked t;
                   List.iter
                     (fun rq ->
                       if rq.rq_result = None then
                         rq.rq_result <- Some (Error (Sql e)))
                     reqs
               | exception Backend.Io_degraded { op; detail } ->
                   let e = io_degraded_locked t ~op ~detail in
                   List.iter
                     (fun rq ->
                       if rq.rq_result = None then rq.rq_result <- Some e)
                     reqs
             end
           with Restart_batch -> attempt ())
        in
        attempt ()
      end)

let drain_queue t =
  let batch = ref [] in
  while not (Queue.is_empty t.queue) do
    batch := Queue.pop t.queue :: !batch
  done;
  List.rev !batch

let commit_txn txn =
  let t = txn.tx_engine in
  if txn.tx_done then Error (Sql "no transaction in progress")
  else if txn.tx_failed then begin
    finish txn;
    Error (Sql "aborted transaction rolled back (commit refused)")
  end
  else if txn.tx_stmts = [] then begin
    (* read-only: the snapshot was consistent by construction *)
    finish txn;
    Ok 0
  end
  else begin
    let rq = { rq_txn = txn; rq_result = None } in
    Mutex.lock t.qmu;
    Queue.push rq t.queue;
    if t.committer_running then begin
      (* a leader is already draining; it will resolve us *)
      while rq.rq_result = None do
        Condition.wait t.qcond t.qmu
      done;
      Mutex.unlock t.qmu
    end
    else begin
      (* become the leader: drain batches until the queue stays empty *)
      t.committer_running <- true;
      while not (Queue.is_empty t.queue) do
        (* batching window: when other transactions are live they may be
           racing toward their own commit call — pause briefly so they
           can enqueue and share this WAL flush.  A solo committer (no
           other live horizon) skips the window and pays nothing. *)
        if Version_store.live_horizons t.vs > 1 then begin
          Mutex.unlock t.qmu;
          Thread.delay 0.0002;
          Mutex.lock t.qmu
        end;
        let batch = drain_queue t in
        Mutex.unlock t.qmu;
        (try process_batch t batch
         with e ->
           let msg = "commit failed: " ^ Printexc.to_string e in
           List.iter
             (fun r ->
               if r.rq_result = None then r.rq_result <- Some (Error (Sql msg)))
             batch);
        Mutex.lock t.qmu;
        Condition.broadcast t.qcond
      done;
      t.committer_running <- false;
      Mutex.unlock t.qmu
    end;
    finish txn;
    match rq.rq_result with
    | Some r -> r
    | None -> Error (Sql "commit was not processed")
  end

let close t =
  Mutex.protect t.mu (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Db.close t.db
      end)
