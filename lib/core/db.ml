module Context = Bdbms_asql.Context
module Executor = Bdbms_asql.Executor
module Stats = Bdbms_obs.Stats
module Disk = Bdbms_storage.Disk
module Obs = Bdbms_obs.Obs
module Trace = Bdbms_obs.Trace
module Metrics = Bdbms_obs.Metrics
module Timer = Bdbms_util.Timer
module Cancel = Bdbms_util.Cancel
module Backoff = Bdbms_util.Backoff
module Backend = Bdbms_storage.Backend
module Pager = Bdbms_storage.Pager
module Parser = Bdbms_asql.Parser

type t = {
  mutable ctx : Context.t;
  mutable closed : bool;
  mutable catalog_records : int;
  page_size : int option;
  pool_pages : int option;
  policy : Bdbms_storage.Pager.policy option;
  path : string option;
  fault : Bdbms_storage.Fault.t option;
  obs : Obs.t;
  mutable slow_ms : float option;
  mutable stmt_timeout_ms : float option;
      (* default statement deadline; [None] = unbounded *)
  mutable degraded : string option;
      (* [Some reason] while in read-only degraded mode *)
  mutable on_first_dirty :
    (Bdbms_storage.Page.id -> Bdbms_storage.Page.t -> unit) option;
      (* pre-image observer, reinstalled across rollback's disk swap *)
}

let register_bio ctx =
  List.iter
    (fun proc -> ignore (Context.register_procedure ctx proc))
    [
      Bdbms_bio.Translate.procedure ();
      Bdbms_bio.Translate.weight_procedure ();
      Bdbms_bio.Blast_like.procedure ();
    ]

(* The built-in procedures must exist before the catalog bootstrap so
   persisted dependency chains rebind to their executable bodies. *)
let open_ctx ?page_size ?pool_pages ?policy ?path ?fault ?obs () =
  let ctx = Context.create ?page_size ?pool_pages ?policy ?path ?fault ?obs () in
  register_bio ctx;
  match Context.bootstrap ctx with
  | n -> (ctx, n)
  | exception (Bdbms_asql.Durable_catalog.Unsupported_version _ as e) ->
      (* release the file (and its lock) before refusing it *)
      Disk.abandon ctx.Context.disk;
      raise e

let create ?page_size ?pool_pages ?policy ?path ?fault () =
  let obs = Obs.create () in
  let ctx, n = open_ctx ?page_size ?pool_pages ?policy ?path ?fault ~obs () in
  {
    ctx;
    closed = false;
    catalog_records = n;
    page_size;
    pool_pages;
    policy;
    path;
    fault;
    obs;
    slow_ms = None;
    stmt_timeout_ms = None;
    degraded = None;
    on_first_dirty = None;
  }

let context t = t.ctx

let durable t = Context.durable t.ctx

let closed_error = "database is closed"

let guard t f = if t.closed then Error closed_error else f ()

(* Error atomicity on a durable database: a failed statement or script
   must not leave partial effects — not in the WAL, not in the buffer
   pool, not in the in-memory metadata (which the next commit would
   otherwise sweep into the durable catalog).  Abandon the handle and
   re-bootstrap from the last committed state, carrying the session
   settings over to the fresh context. *)
let rollback t =
  if durable t then begin
    let old = t.ctx in
    Disk.abandon old.Context.disk;
    let ctx, n =
      open_ctx ?page_size:t.page_size ?pool_pages:t.pool_pages
        ?policy:t.policy ?path:t.path ?fault:t.fault ~obs:t.obs ()
    in
    ctx.Context.strict_acl <- old.Context.strict_acl;
    ctx.Context.auto_provenance <- old.Context.auto_provenance;
    ctx.Context.exec_mode <- old.Context.exec_mode;
    ctx.Context.batch_rows <- old.Context.batch_rows;
    ctx.Context.read_only <- t.degraded;
    ctx.Context.session_label <- old.Context.session_label;
    ctx.Context.sys_providers <- old.Context.sys_providers;
    t.ctx <- ctx;
    t.catalog_records <- n;
    (* the fresh context has a fresh disk: the pre-image observer must
       follow it or the version store would go blind after a rollback *)
    match t.on_first_dirty with
    | Some _ as hook -> Disk.set_on_first_dirty ctx.Context.disk hook
    | None -> ()
  end

(* ----------------------------------------------- degraded-mode lifecycle *)

type error =
  | Sql of string
  | Conflict of string
  | Busy of string
  | Timeout of string
  | Degraded of string
  | Closed

let error_message = function
  | Sql m | Conflict m | Busy m | Timeout m | Degraded m -> m
  | Closed -> closed_error

let transient_reopen = function
  | Backend.Io_degraded _ -> true
  | e -> Backend.io_retryable e

(* Read-only degraded mode: record the reason; the rollback that follows
   discards the possibly-poisoned uncommitted state.  After it, reads
   serve normally from the consistent re-bootstrapped state and writes
   fail fast with a retryable error until a health probe succeeds
   ([try_heal]). *)
let mark_degraded t reason =
  if t.degraded = None then begin
    Stats.record_degraded_entry t.obs.Obs.stats;
    Stats.set_degraded t.obs.Obs.stats true
  end;
  t.degraded <- Some reason

(* A rollback that cannot throw transient I/O errors at the caller: the
   reopen itself needs I/O (WAL replay restores page slots), so when it
   fails the handle enters degraded mode and retries the reopen with
   backoff — transient faults are finite by construction, and the
   backend's inner retry absorbs most of them. *)
let force_rollback t =
  let rec reopen attempt =
    match rollback t with
    | () -> ()
    | exception e when attempt < 9 && transient_reopen e ->
        mark_degraded t
          (match e with
          | Backend.Io_degraded { op; detail } -> Printf.sprintf "%s: %s" op detail
          | e -> Printexc.to_string e);
        Unix.sleepf
          (Backoff.delay_ms Backoff.default ~attempt:(min attempt 6) /. 1000.);
        reopen (attempt + 1)
  in
  reopen 1;
  t.ctx.Context.read_only <- t.degraded

(* Single-attempt health probe; on success write mode is re-armed. *)
let try_heal t =
  match t.degraded with
  | None -> ()
  | Some _ ->
      if Disk.probe_io t.ctx.Context.disk then begin
        t.degraded <- None;
        t.ctx.Context.read_only <- None;
        Stats.set_degraded t.obs.Obs.stats false
      end

let degraded t = t.degraded

(* The one place the fault-lifecycle exceptions become error classes.  A
   deadline expiry counts; an exhausted I/O retry budget on the handle's
   own context ([own]) marks the handle degraded — a snapshot's leaves it
   alone.  In every case the statement is not committed: the caller rolls
   back (its own context) or fails the transaction (a snapshot), which is
   what makes client-side retry safe. *)
let classified t ~own f =
  match f () with
  | r -> r
  | exception Cancel.Cancelled reason ->
      Stats.record_stmt_timed_out t.obs.Obs.stats;
      Error (Timeout ("statement aborted: " ^ reason))
  | exception Executor.Read_only reason ->
      Error
        (Degraded
           (Printf.sprintf "database is read-only (degraded: %s); retry later"
              reason))
  | exception Backend.Io_degraded { op; detail } ->
      let reason = Printf.sprintf "%s: %s" op detail in
      if own then mark_degraded t reason;
      Error (Degraded (Printf.sprintf "I/O failing (%s); retry later" reason))
  | exception Pager.Pool_exhausted _ -> Error (Busy "buffer pool exhausted; retry")

(* Make the statements since the last commit durable (a no-op in
   memory).  Its I/O faults are classified like a statement's; the
   deadline never covers it — a commit, once started, is never
   half-cancelled. *)
let commit t =
  if t.closed then Error Closed
  else classified t ~own:true (fun () -> Ok (Context.commit t.ctx))

(* Locally originated statements get sequential trace ids; wire requests
   carry the client's. *)
let tid_counter = ref 0

let next_trace_id () =
  incr tid_counter;
  !tid_counter

(* Execute under the ["execute"] span and the deadline (the call's own,
   else the handle default), faults classified. *)
let run t ctx ~own ~user ?timeout_ms stmt =
  let timeout_ms =
    match timeout_ms with Some _ -> timeout_ms | None -> t.stmt_timeout_ms
  in
  classified t ~own (fun () ->
      Obs.span t.obs "execute" (fun () ->
          Context.with_deadline ctx ?timeout_ms (fun () ->
              Result.map_error (fun e -> Sql e) (Executor.execute ctx ~user stmt))))

(* The statement boundary.  The observation: the statement latency
   histogram and the structured query log (ring + sampled JSONL sink)
   with its trace id; when the slow-query log is armed, statements at or
   over the threshold also print their text plus the trace spans they
   opened (tracing is enabled by [set_slow_ms], so the spans are
   there). *)
let statement t ?snapshot ~user ?(session = 0) ?timeout_ms ?(trace_id = 0)
    ~sql stmt =
  if t.closed then Error Closed
  else begin
    let ctx =
      match snapshot with
      | Some ctx -> ctx
      | None ->
          try_heal t;
          t.ctx
    in
    let trace = t.obs.Obs.trace in
    let mark = Trace.mark trace in
    let tid = if trace_id = 0 then next_trace_id () else trace_id in
    let r, elapsed =
      Trace.with_trace_id trace tid (fun () ->
          Timer.timed (fun () ->
              run t ctx ~own:(snapshot = None) ~user ?timeout_ms stmt))
    in
    Metrics.observe t.obs.Obs.stmt_hist elapsed;
    let slow =
      match t.slow_ms with
      | Some threshold -> Timer.ns_to_ms elapsed >= threshold
      | None -> false
    in
    if slow then
      Printf.eprintf "[slow query: %s] %s\n%s%!"
        (Format.asprintf "%a" Timer.pp_ns elapsed)
        (String.trim sql)
        (Trace.render_tree ~since:mark trace);
    let ok, rows =
      match r with
      | Ok (Executor.Rows rs) ->
          (true, List.length rs.Bdbms_annotation.Propagate.rows)
      | Ok (Executor.Count { affected; _ }) -> (true, affected)
      | Ok _ -> (true, -1)
      | Error _ -> (false, -1)
    in
    Bdbms_obs.Qlog.record t.obs.Obs.qlog ~sql ~user ~session ~dur_ns:elapsed
      ~rows ~trace_id:tid ~ok ~slow;
    r
  end

let replay t ~user stmt = run t t.ctx ~own:true ~user stmt

(* Adaptive-optimizer housekeeping at the statement boundary: tables whose
   statistics went stale (DML churn or EXPLAIN ANALYZE drift feedback) are
   re-analyzed before the commit, so the refreshed statistics ride the
   same durable catalog write.  Best-effort: a failure here must never
   fail the statement that triggered it.  Then auto-commit: on a durable
   database each successful call is made durable before the result is
   returned; a failed one rolls back. *)
let autocommit t = function
  | Ok _ as r -> (
      if t.degraded = None then (try Executor.reanalyze_stale t.ctx with _ -> ());
      match commit t with
      | Ok () -> r
      | Error e ->
          force_rollback t;
          Error (error_message e))
  | Error e ->
      force_rollback t;
      Error (error_message e)

let exec t ?(user = Context.superuser) sql =
  guard t (fun () ->
      match Obs.span t.obs "parse" (fun () -> Parser.parse sql) with
      | Error _ as e -> e
      | Ok stmt -> autocommit t (statement t ~user ~sql stmt))

let exec_exn t ?user sql =
  match exec t ?user sql with
  | Ok outcome -> outcome
  | Error e -> failwith (Printf.sprintf "%s (statement: %s)" e sql)

let exec_script t ?(user = Context.superuser) sql =
  guard t (fun () ->
      match Obs.span t.obs "parse" (fun () -> Parser.parse_script sql) with
      | Error _ as e -> e
      | Ok stmts ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | (sql, stmt) :: rest -> (
                match statement t ~user ~sql stmt with
                | Ok outcome -> go (outcome :: acc) rest
                | Error _ as e -> e)
          in
          autocommit t (go [] stmts))

let render_exn t ?user sql = Executor.render (exec_exn t ?user sql)

let set_on_first_dirty t hook =
  t.on_first_dirty <- hook;
  Disk.set_on_first_dirty t.ctx.Context.disk hook

let register_builtin_procedures = register_bio

let set_strict_acl t v = t.ctx.Context.strict_acl <- v
let set_auto_provenance t v = t.ctx.Context.auto_provenance <- v
let set_exec_mode t m = t.ctx.Context.exec_mode <- m
let exec_mode t = t.ctx.Context.exec_mode
let set_batch_rows t n =
  if n <= 0 then invalid_arg "Db.set_batch_rows: rows must be positive";
  t.ctx.Context.batch_rows <- n

let set_stmt_timeout_ms t v =
  (match v with
  | Some ms when ms < 0. -> invalid_arg "Db.set_stmt_timeout_ms: negative"
  | _ -> ());
  t.stmt_timeout_ms <- v

let stmt_timeout_ms t = t.stmt_timeout_ms

let checkpoint t = guard t (fun () -> Ok (Context.checkpoint t.ctx))

let close t =
  if not t.closed then begin
    t.closed <- true;
    Context.close t.ctx
  end

let is_closed t = t.closed

let recovery_info t = Disk.recovery_info t.ctx.Context.disk
let catalog_records t = t.catalog_records

let io_stats t = Stats.snapshot t.obs.Obs.stats

(* ---------------------------------------------------------- observability *)

let obs t = t.obs
let metrics t = Metrics.render ~counters:(io_stats t) t.obs.Obs.metrics
let qlog t = t.obs.Obs.qlog

let set_tracing t v = Trace.set_enabled t.obs.Obs.trace v
let tracing t = Trace.enabled t.obs.Obs.trace
let trace_tree t = Trace.render_tree t.obs.Obs.trace
let trace_json t = Trace.render_json t.obs.Obs.trace

let set_slow_ms t v =
  t.slow_ms <- v;
  (* the slow log prints the offender's span tree, so arm tracing with it *)
  if v <> None then Trace.set_enabled t.obs.Obs.trace true

let slow_ms t = t.slow_ms
