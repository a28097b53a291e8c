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
module Parser = Bdbms_asql.Parser
module Stmt_class = Bdbms_asql.Stmt_class
module Disk = Bdbms_storage.Disk
module Page = Bdbms_storage.Page
module Stats = Bdbms_obs.Stats
module Obs = Bdbms_obs.Obs

type error = Db.error =
  | Sql of string
  | Conflict of string
  | Busy of string
  | Timeout of string
  | Degraded of string
  | Closed

let error_message = Db.error_message

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
  mutable tx_stmts : (string * Bdbms_asql.Ast.statement) list;
      (* buffered write statements with their text, reversed *)
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

(* Writes into [dst] the content page [id] had at [horizon]: a retained
   version if any commit after the horizon overwrote it, else the
   canonical page (still current).  Takes the engine lock so the
   two-step lookup is atomic against a concurrent batch sealing — and so
   it never reads canonical frames mid-replay. *)
let read_committed t ~horizon id dst =
  Mutex.protect t.mu (fun () ->
      match Version_store.read t.vs ~horizon id with
      | Some src -> Page.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:(Page.size dst)
      | None -> Disk.read_into (Db.context t.db).Context.disk id dst)

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

(* The statement is parsed once, under the lock like the rest of its
   trace, and the parsed form is what executes: through the statement
   boundary, then the commit, or the cycle is aborted.  An exhausted I/O
   retry budget has marked the handle degraded by then, so the abort's
   re-bootstrap comes back read-only. *)
let execute t ?(user = superuser) ?(session = 0) ?exec_mode ?timeout_ms
    ?(trace_id = 0) sql =
  Mutex.protect t.mu (fun () ->
      if t.closed then Error Closed
      else
        match Obs.span (obs t) "parse" (fun () -> Parser.parse sql) with
        | Error e -> Error (Sql e)
        | Ok stmt ->
            let saved = (Db.context t.db).Context.exec_mode in
            Option.iter (fun m -> (Db.context t.db).Context.exec_mode <- m) exec_mode;
            Fun.protect
              ~finally:(fun () ->
                (* a rollback recreates the context, so re-fetch it *)
                (Db.context t.db).Context.exec_mode <- saved)
              (fun () ->
                match
                  Result.bind
                    (Db.statement t.db ~user ~session ?timeout_ms ~trace_id ~sql stmt)
                    (fun outcome -> Result.map (fun () -> outcome) (Db.commit t.db))
                with
                | Ok _ as r ->
                    let cls = Stmt_class.classify stmt in
                    t.commit_seq <- t.commit_seq + 1;
                    record_commit_locked t
                      ~tables:
                        (if cls.Stmt_class.ddl then [ wildcard ]
                         else cls.Stmt_class.writes);
                    r
                | Error _ as e ->
                    abort_cycle_locked t;
                    e))

(* ------------------------------------------------------- transactions *)

(* A private engine over a copy-on-write overlay of the committed state
   at [horizon]. *)
let snapshot t ~user ~horizon ~base_count (sa, ap, em, br, sp) =
  (* no [~obs]: the overlay counts into a private group, since its page
     writes are memory, not the handle's I/O *)
  let disk =
    Disk.overlay ~page_size:t.page_size ~pool_pages:t.snapshot_pool
      ~base_count
      ~base_read:(fun id dst -> read_committed t ~horizon id dst)
      ()
  in
  let ctx = Context.create ~disk ~obs:(Db.obs t.db) () in
  (* built-ins before bootstrap so persisted dependency chains rebind *)
  Db.register_builtin_procedures ctx;
  let (_ : int) = Context.bootstrap ctx in
  ctx.Context.strict_acl <- sa;
  ctx.Context.auto_provenance <- ap;
  ctx.Context.exec_mode <- em;
  ctx.Context.batch_rows <- br;
  (* the live-session provider follows the snapshot, so [sys.sessions]
     works inside a transaction too *)
  ctx.Context.sys_providers <- sp;
  ctx.Context.session_label <- Some (Printf.sprintf "%s@%d" user horizon);
  ctx

(* The bootstrap's faults (its base reads go through the canonical pool)
   are classified like a snapshot statement's; the horizon is released
   on every failure. *)
let begin_txn t ?(user = superuser) () =
  match
    Mutex.protect t.mu (fun () ->
        if t.closed then None
        else
          let ctx = Db.context t.db in
          let horizon = Version_store.csn t.vs in
          Version_store.retain t.vs ~horizon;
          Some
            ( horizon,
              Disk.page_count ctx.Context.disk,
              ( ctx.Context.strict_acl,
                ctx.Context.auto_provenance,
                ctx.Context.exec_mode,
                ctx.Context.batch_rows,
                ctx.Context.sys_providers ) ))
  with
  | None -> Error Closed
  | Some (horizon, base_count, flags) -> (
      match
        Db.classified t.db ~own:false (fun () ->
            Ok (snapshot t ~user ~horizon ~base_count flags))
      with
      | Ok ctx ->
          Ok
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
      | Error _ as e ->
          Version_store.release t.vs ~horizon;
          e
      | exception e ->
          Version_store.release t.vs ~horizon;
          raise e)

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

(* A write is refused while the engine is degraded rather than buffered:
   commit replay would refuse it anyway (the canonical engine is
   read-only).  Any error fails the transaction. *)
let txn_exec txn ?session ?timeout_ms ?trace_id sql =
  let t = txn.tx_engine in
  if txn.tx_done then Error (Sql "no transaction in progress")
  else if txn.tx_failed then
    Error (Sql "current transaction is aborted; ROLLBACK and retry")
  else
    let r =
      match Parser.parse sql with
      | Error e -> Error (Sql e)
      | Ok stmt ->
          let cls = Stmt_class.classify stmt in
          let write = Stmt_class.is_write cls in
          if write then Db.try_heal t.db;
          if write && Db.degraded t.db <> None then
            Error (Degraded "engine is read-only (degraded); ROLLBACK and retry")
          else
            Db.statement t.db ~snapshot:txn.tx_ctx ~user:txn.tx_user ?session
              ?timeout_ms ?trace_id ~sql stmt
            |> Result.map (fun outcome ->
                   if write then begin
                     txn.tx_stmts <- (sql, stmt) :: txn.tx_stmts;
                     txn.tx_touched <-
                       dedup
                         (cls.Stmt_class.reads @ cls.Stmt_class.writes
                        @ txn.tx_touched);
                     txn.tx_writes <- dedup (cls.Stmt_class.writes @ txn.tx_writes);
                     if cls.Stmt_class.ddl then txn.tx_ddl <- true
                   end;
                   outcome)
    in
    if Result.is_error r then txn.tx_failed <- true;
    r

(* ------------------------------------------------------- group commit *)

exception Restart_batch

(* Replay one transaction's buffered statements onto the canonical
   engine: parsed and observed already on the snapshot, so they only
   execute.  A failure poisons the whole uncommitted cycle (prior
   transactions of this batch included), so the caller rolls everything
   back and restarts the batch without the offender. *)
let replay_txn t txn =
  let rec go = function
    | [] -> Ok ()
    | (sql, stmt) :: rest -> (
        match Db.replay t.db ~user:txn.tx_user stmt with
        | Ok _ -> go rest
        | Error (Sql e) -> Error (Sql (Printf.sprintf "%s (commit replay of: %s)" e sql))
        | Error _ as e -> e)
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
               | Error _ as e ->
                   abort_cycle_locked t;
                   List.iter
                     (fun rq -> if rq.rq_result = None then rq.rq_result <- Some e)
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
