(* The network front end: listeners (Unix-domain and TCP) accepting
   connections, one handler thread per connection, all sessions sharing
   one [Engine.t].

   A connection's first frame must be [Hello {user}]; authentication
   failures answer [E_auth] and close.  After that, [Query] frames run
   through the session (so BEGIN/COMMIT/ROLLBACK work per connection)
   and [Control] frames answer out-of-band ops.  Every per-request
   failure — SQL errors, conflicts, pool exhaustion, even unexpected
   exceptions — becomes an error *frame*, never a dead server loop: the
   session survives and the client decides whether to retry (the frame
   says if it is retryable). *)

module Executor = Bdbms_asql.Executor
module Stats = Bdbms_obs.Stats
module Obs = Bdbms_obs.Obs
module P = Protocol

type conn = { c_fd : Unix.file_descr; mutable c_busy : bool }
(* [c_busy] is true while the handler thread is between receiving a
   request and sending its response — what a graceful drain waits for *)

type t = {
  engine : Engine.t;
  counters : Stats.t; (* the engine handle's group: frames rx/tx *)
  idle_timeout_s : float option;
      (* per-connection receive timeout ([SO_RCVTIMEO]): a peer that goes
         quiet mid-frame or between frames for this long is reaped (its
         session closes, rolling back any open transaction) — the
         slow-loris defense *)
  mutable listeners : (Unix.file_descr * string option) list;
      (* fd, unix path to unlink at stop *)
  mutable threads : Thread.t list;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mu : Mutex.t;
  mutable stopping : bool;
}

let create ?idle_timeout_s engine =
  (match idle_timeout_s with
  | Some s when s <= 0. -> invalid_arg "Server.create: idle_timeout_s <= 0"
  | _ -> ());
  (* a peer that vanished mid-response must surface as EPIPE on the
     write (handled per connection), not kill the whole process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* live rows for [sys.sessions]: installed on the canonical context
     (and copied into every snapshot by [Engine.begin_txn]), shadowing
     the view's single-row local fallback *)
  let ctx = Bdbms.Db.context (Engine.db engine) in
  ctx.Bdbms_asql.Context.sys_providers <-
    ("sys.sessions", fun () -> Session.sys_rows engine)
    :: List.remove_assoc "sys.sessions" ctx.Bdbms_asql.Context.sys_providers;
  {
    engine;
    counters = (Engine.obs engine).Obs.stats;
    idle_timeout_s;
    listeners = [];
    threads = [];
    conns = Hashtbl.create 8;
    next_conn = 0;
    mu = Mutex.create ();
    stopping = false;
  }

(* ------------------------------------------------------------ requests *)

let error_resp (e : Engine.error) =
  let code =
    match e with
    | Engine.Sql _ -> P.E_exec
    | Engine.Conflict _ -> P.E_conflict
    | Engine.Busy _ -> P.E_busy
    | Engine.Timeout _ -> P.E_timeout
    | Engine.Degraded _ -> P.E_degraded
    | Engine.Closed -> P.E_internal
  in
  P.Error_resp { code; message = Engine.error_message e }

let reply_resp = function
  | Session.Outcome (Executor.Count { affected; verb }) ->
      P.Count { affected; verb }
  | Session.Outcome (Executor.Message m) -> P.Message { text = m }
  | Session.Outcome o ->
      (* Rows and approval entries reuse the REPL rendering server-side *)
      P.Rows { rendered = Executor.render o }
  | Session.Began -> P.Message { text = "BEGIN" }
  | Session.Committed seq -> P.Committed { seq }
  | Session.Rolled_back -> P.Message { text = "ROLLBACK" }

let handle_query session ?timeout_ms ?trace_id sql =
  match Session.execute session ?timeout_ms ?trace_id sql with
  | Ok reply -> reply_resp reply
  | Error e -> error_resp e
  | exception e ->
      P.Error_resp
        { code = P.E_internal; message = Printexc.to_string e }

let handle_control t session name =
  let module Context = Bdbms_asql.Context in
  let module Db = Bdbms.Db in
  let db = Engine.db t.engine in
  match String.lowercase_ascii (String.trim name) with
  | "ping" -> P.Message { text = "pong" }
  | "metrics" -> P.Message { text = Db.metrics db }
  | "trace" ->
      P.Message
        { text = (if Db.tracing db then "trace: on" else "trace: off") }
  | "stats" ->
      P.Message { text = Format.asprintf "%a" Stats.pp (Db.io_stats db) }
  | "exec" ->
      P.Message
        { text = Context.exec_mode_name (Session.exec_mode session) }
  | "timeout" ->
      P.Message
        {
          text =
            (match Session.stmt_timeout_ms session with
            | None -> "timeout: off"
            | Some ms -> Printf.sprintf "timeout: %gms" ms);
        }
  | other -> (
      (* "exec <mode>" / "timeout <ms>|off": session-scoped overrides;
         "trace <op>": engine-wide span-ring control *)
      match String.split_on_char ' ' other with
      | [ "trace"; "on" ] ->
          Db.set_tracing db true;
          P.Message { text = "trace: on" }
      | [ "trace"; "off" ] ->
          Db.set_tracing db false;
          P.Message { text = "trace: off" }
      | [ "trace"; "tree" ] -> P.Message { text = Db.trace_tree db }
      | [ "trace"; "json" ] -> P.Message { text = Db.trace_json db }
      | [ "timeout"; "off" ] ->
          Session.set_stmt_timeout_ms session None;
          P.Message { text = "timeout: off" }
      | [ "timeout"; ms ] -> (
          match float_of_string_opt ms with
          | Some v when v >= 0. ->
              Session.set_stmt_timeout_ms session (Some v);
              P.Message { text = Printf.sprintf "timeout: %gms" v }
          | _ ->
              P.Error_resp
                {
                  code = P.E_proto;
                  message =
                    Printf.sprintf "bad timeout %S (milliseconds or off)" ms;
                })
      | [ "exec"; mode ] -> (
          match Context.exec_mode_of_string mode with
          | Some m ->
              Session.set_exec_mode session (Some m);
              P.Message { text = "exec mode: " ^ Context.exec_mode_name m }
          | None ->
              P.Error_resp
                {
                  code = P.E_proto;
                  message =
                    Printf.sprintf "unknown exec mode %S (%s)" mode
                      (String.concat "|" (List.map fst Context.exec_modes));
                })
      | _ ->
          P.Error_resp
            {
              code = P.E_proto;
              message = Printf.sprintf "unknown control op %S" other;
            })

(* ---------------------------------------------------------- connection *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let register_conn t conn =
  Mutex.protect t.mu (fun () ->
      t.next_conn <- t.next_conn + 1;
      Hashtbl.replace t.conns t.next_conn conn;
      t.next_conn)

let unregister_conn t id = Mutex.protect t.mu (fun () -> Hashtbl.remove t.conns id)

let request_loop t conn session =
  let fd = conn.c_fd in
  let stats = t.counters in
  let obs = Engine.obs t.engine in
  let span =
    Printf.sprintf "session#%d(%s).request" (Session.id session)
      (Session.user session)
  in
  let continue = ref true in
  while !continue do
    match P.recv_request ~stats fd with
    | None -> continue := false
    | Some req ->
        conn.c_busy <- true;
        Fun.protect
          ~finally:(fun () -> conn.c_busy <- false)
          (fun () ->
            let resp =
              Obs.timed obs obs.Obs.req_hist span (fun () ->
                  match req with
                  | P.Hello _ ->
                      P.Error_resp
                        { code = P.E_proto; message = "session already open" }
                  | P.Query { sql; timeout_ms; trace_id } ->
                      handle_query session
                        ?timeout_ms:(Option.map float_of_int timeout_ms)
                        ~trace_id sql
                  | P.Control { name } -> handle_control t session name)
            in
            P.send_response ~stats fd resp)
  done

let handle_conn t conn =
  let fd = conn.c_fd in
  let id = register_conn t conn in
  let stats = t.counters in
  (* arm the idle reaper: a blocked [read] returns EAGAIN after the
     timeout, which the catch-all below treats as a dead peer — the
     session's [Fun.protect] close rolls back any open transaction *)
  (match t.idle_timeout_s with
  | Some s -> (
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
      with Unix.Unix_error _ -> ())
  | None -> ());
  (try
     match P.recv_request ~stats fd with
     | None -> ()
     | Some (P.Hello { user }) -> (
         match Session.create t.engine ~user with
         | Ok session ->
             P.send_response ~stats fd
               (P.Hello_ok
                  { session = Session.id session; proto = P.proto_version });
             Fun.protect
               ~finally:(fun () -> Session.close session)
               (fun () -> request_loop t conn session)
         | Error e ->
             P.send_response ~stats fd
               (P.Error_resp
                  { code = P.E_auth; message = Engine.error_message e }))
     | Some _ ->
         P.send_response ~stats fd
           (P.Error_resp
              { code = P.E_proto; message = "expected Hello first" })
   with
  | P.Protocol_error _ | Unix.Unix_error _ | End_of_file -> ());
  unregister_conn t id;
  close_quiet fd

(* ----------------------------------------------------------- listeners *)

let accept_loop t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _addr ->
        let conn = { c_fd = fd; c_busy = false } in
        let th = Thread.create (fun () -> handle_conn t conn) () in
        Mutex.protect t.mu (fun () -> t.threads <- th :: t.threads)
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      ->
        continue := not t.stopping
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let add_listener t lfd ~unix_path =
  Mutex.protect t.mu (fun () ->
      t.listeners <- (lfd, unix_path) :: t.listeners);
  let th = Thread.create (fun () -> accept_loop t lfd) () in
  Mutex.protect t.mu (fun () -> t.threads <- th :: t.threads)

let listen_unix t path =
  (if Sys.file_exists path then
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  add_listener t lfd ~unix_path:(Some path)

let listen_tcp t ~host ~port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (addr, port));
  Unix.listen lfd 64;
  add_listener t lfd ~unix_path:None

let bound_port t =
  match
    List.find_map
      (fun (fd, _) ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Some port
        | _ -> None)
      t.listeners
  with
  | Some port -> port
  | None -> invalid_arg "Server.bound_port: no TCP listener"

(* Stop accepting: shutdown wakes a thread blocked in [accept]; close
   alone does not on Linux. *)
let close_listeners t =
  let listeners =
    Mutex.protect t.mu (fun () ->
        let ls = t.listeners in
        t.listeners <- [];
        ls)
  in
  List.iter
    (fun (fd, path) ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close_quiet fd;
      match path with
      | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | None -> ())
    listeners

(* Graceful shutdown: stop accepting, give in-flight requests up to
   [grace_s] to finish (their commits land or abort normally), then cut
   every remaining connection — each handler thread's [Fun.protect]
   closes its session, rolling back any open transaction — and join all
   threads.  [stop] is the impatient special case. *)
let drain ?(grace_s = 5.0) t =
  t.stopping <- true;
  close_listeners t;
  let any_busy () =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun _ c acc -> acc || c.c_busy) t.conns false)
  in
  let deadline = Unix.gettimeofday () +. grace_s in
  while any_busy () && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let conns, threads =
    Mutex.protect t.mu (fun () ->
        let ths = t.threads in
        let cs = Hashtbl.fold (fun _ c acc -> c.c_fd :: acc) t.conns [] in
        t.threads <- [];
        Hashtbl.reset t.conns;
        (cs, ths))
  in
  List.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      close_quiet fd)
    conns;
  List.iter Thread.join threads

let stop t = drain ~grace_s:0. t

let engine t = t.engine
