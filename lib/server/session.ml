module Context = Bdbms_asql.Context
module Principal = Bdbms_auth.Principal
module Stats = Bdbms_obs.Stats
module Obs = Bdbms_obs.Obs
module Metrics = Bdbms_obs.Metrics
module Value = Bdbms_relation.Value
module Db = Bdbms.Db

type reply =
  | Outcome of Bdbms_asql.Executor.outcome
  | Began
  | Committed of int
  | Rolled_back

type t = {
  id : int;
  engine : Engine.t;
  user : string;
  mutable txn : Engine.txn option;
  mutable conflict_streak : int;
      (* consecutive Conflict aborts since the last successful commit;
         observed into the retry histogram when a commit finally lands *)
  mutable exec_override : Context.exec_mode option;
      (* session-scoped [\exec] setting: applied per autocommit statement
         and to every transaction this session begins; [None] follows the
         engine default *)
  mutable stmt_timeout_ms : float option;
      (* session-scoped [\timeout] default, overridable per query by the
         wire frame's own deadline; [None] = unbounded *)
  mutable current_stmt : string;
      (* the statement executing right now ("" when idle), surfaced in
         [sys.sessions] *)
  mutable closed : bool;
}

let next_id = ref 0
let id_mu = Mutex.create ()
let live = ref 0

(* Every open session, keyed by id, so [sys.sessions] can list them.
   Guarded by [id_mu] like the id counter and the live gauge. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 16

let fresh_id () =
  Mutex.protect id_mu (fun () ->
      incr next_id;
      !next_id)

let set_gauge engine delta =
  let n = Mutex.protect id_mu (fun () -> live := !live + delta; !live) in
  Stats.set_sessions_in_flight (Engine.obs engine).Obs.stats n

let create engine ~user =
  (* authentication = existence in the shared principal store; the
     canonical context is only read, but take the engine's view through
     [Engine.db] under no lock — principals mutate only under the engine
     lock via DDL, and [user_exists] is a pure lookup *)
  let ctx = Db.context (Engine.db engine) in
  if
    user <> Context.superuser
    && not (Principal.user_exists ctx.Context.principals user)
  then Error (Engine.Sql (Printf.sprintf "unknown user %S" user))
  else begin
    Stats.record_session_opened (Engine.obs engine).Obs.stats;
    set_gauge engine 1;
    let session =
      {
        id = fresh_id ();
        engine;
        user;
        txn = None;
        conflict_streak = 0;
        exec_override = None;
        stmt_timeout_ms = None;
        current_stmt = "";
        closed = false;
      }
    in
    Mutex.protect id_mu (fun () -> Hashtbl.replace registry session.id session);
    Ok session
  end

(* Live rows for the [sys.sessions] virtual table: every open session on
   this [engine] (a process can host several), in id order.  Installed on
   the canonical context by [Server.create] and copied into transaction
   snapshots by [Engine.begin_txn]. *)
let sys_rows engine =
  let sessions =
    Mutex.protect id_mu (fun () ->
        Hashtbl.fold
          (fun _ s acc -> if s.engine == engine then s :: acc else acc)
          registry [])
  in
  List.map
    (fun s ->
      [|
        Value.VInt s.id;
        Value.VString s.user;
        Value.VString (if s.txn <> None then "txn" else "idle");
        Value.VString s.current_stmt;
        Value.VInt s.conflict_streak;
      |])
    (List.sort (fun a b -> compare a.id b.id) sessions)

let id t = t.id
let user t = t.user
let in_txn t = t.txn <> None

let set_exec_mode t mode =
  t.exec_override <- mode;
  (* an open transaction picks the change up immediately *)
  match (t.txn, mode) with
  | Some txn, Some m -> Engine.txn_set_exec_mode txn m
  | Some txn, None ->
      Engine.txn_set_exec_mode txn
        (Db.context (Engine.db t.engine)).Context.exec_mode
  | None, _ -> ()

(* the mode this session's next statement will run under *)
let exec_mode t =
  match t.exec_override with
  | Some m -> m
  | None -> (Db.context (Engine.db t.engine)).Context.exec_mode

let set_stmt_timeout_ms t v =
  (match v with
  | Some ms when ms < 0. -> invalid_arg "Session.set_stmt_timeout_ms: negative"
  | _ -> ());
  t.stmt_timeout_ms <- v

let stmt_timeout_ms t = t.stmt_timeout_ms

(* Transaction-control statements are session state changes, not A-SQL;
   recognize them (case-insensitively, trailing [;] stripped) before
   anything reaches a parser. *)
type control = Begin_txn | Commit_txn | Rollback_txn

let control_of sql =
  let s = String.trim sql in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = ';' then
      String.trim (String.sub s 0 (String.length s - 1))
    else s
  in
  match String.uppercase_ascii s with
  | "BEGIN" | "BEGIN TRANSACTION" | "BEGIN WORK" | "START TRANSACTION" ->
      Some Begin_txn
  | "COMMIT" | "COMMIT WORK" | "COMMIT TRANSACTION" | "END" -> Some Commit_txn
  | "ROLLBACK" | "ROLLBACK WORK" | "ROLLBACK TRANSACTION" | "ABORT" ->
      Some Rollback_txn
  | _ -> None

let rollback_open t =
  match t.txn with
  | Some txn ->
      Engine.rollback_txn txn;
      t.txn <- None
  | None -> ()

let observe_commit_landed t =
  let o = Engine.obs t.engine in
  Metrics.observe o.Obs.conflict_retry_hist t.conflict_streak;
  t.conflict_streak <- 0

let execute t ?timeout_ms ?(trace_id = 0) sql =
  (* the query frame's own deadline wins over the session default *)
  let timeout_ms =
    match timeout_ms with Some _ as v -> v | None -> t.stmt_timeout_ms
  in
  if t.closed then Error Engine.Closed
  else begin
    t.current_stmt <- String.trim sql;
    Fun.protect ~finally:(fun () -> t.current_stmt <- "")
    @@ fun () ->
    match control_of sql with
    | Some Begin_txn -> (
        if t.txn <> None then
          Error (Engine.Sql "a transaction is already in progress")
        else
          Engine.begin_txn t.engine ~user:t.user ()
          |> Result.map (fun txn ->
                 Option.iter (Engine.txn_set_exec_mode txn) t.exec_override;
                 t.txn <- Some txn;
                 Began))
    | Some Commit_txn -> (
        match t.txn with
        | None -> Error (Engine.Sql "no transaction in progress")
        | Some txn -> (
            t.txn <- None;
            match Engine.commit_txn txn with
            | Ok seq ->
                observe_commit_landed t;
                Ok (Committed seq)
            | Error (Engine.Conflict _ as e) ->
                t.conflict_streak <- t.conflict_streak + 1;
                Error e
            | Error e -> Error e))
    | Some Rollback_txn ->
        if t.txn = None then Error (Engine.Sql "no transaction in progress")
        else begin
          rollback_open t;
          Ok Rolled_back
        end
    | None -> (
        match t.txn with
        | Some txn -> (
            match Engine.txn_exec txn ~session:t.id ?timeout_ms ~trace_id sql with
            | Ok outcome -> Ok (Outcome outcome)
            | Error e -> Error e)
        | None -> (
            (* autocommit on the canonical engine *)
            match
              Engine.execute t.engine ~user:t.user ~session:t.id
                ?exec_mode:t.exec_override ?timeout_ms ~trace_id sql
            with
            | Ok outcome ->
                observe_commit_landed t;
                Ok (Outcome outcome)
            | Error e -> Error e))
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Mutex.protect id_mu (fun () -> Hashtbl.remove registry t.id);
    rollback_open t;
    set_gauge t.engine (-1)
  end
