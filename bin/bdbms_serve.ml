(* bdbms_serve: the multi-session server.

     dune exec bin/bdbms_serve.exe -- --db genes.db --unix /tmp/bdbms.sock
     dune exec bin/bdbms_serve.exe -- --db genes.db --tcp 127.0.0.1:7687

   Serves the length-prefixed wire protocol (see DESIGN.md §10) over
   Unix-domain and/or TCP sockets.  Every connection gets its own
   session; BEGIN/COMMIT/ROLLBACK run snapshot-isolated transactions
   over the one shared database.  Connect with
   [bdbms_cli --connect ADDR]. *)

module Engine = Bdbms_server.Engine
module Server = Bdbms_server.Server
module Http = Bdbms_server.Http
module Qlog = Bdbms_obs.Qlog
module Stats = Bdbms_obs.Stats

let parse_host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
          Some ((if host = "" then "127.0.0.1" else host), p)
      | _ -> None)
  | None -> None

let main db_path unix_sock tcp pool_pages snapshot_pool strict_acl
    idle_timeout grace stats metrics_port query_log query_log_sample slow_ms =
  let engine =
    try
      Engine.create ?pool_pages ?snapshot_pool_pages:snapshot_pool ~strict_acl
        ~path:db_path ()
    with Bdbms_storage.Backend.Locked { path } ->
      Printf.eprintf
        "error: database file %S is locked by another process\n\
         (another bdbms_serve or bdbms shell holds it)\n"
        path;
      exit 2
    | Bdbms_asql.Durable_catalog.Unsupported_version { found; supported } ->
      Printf.eprintf
        "error: database file %S has catalog format %d; this build reads \
         only format %d\n"
        db_path found supported;
      exit 2
  in
  let idle_timeout_s =
    match idle_timeout with Some s when s > 0. -> Some s | _ -> None
  in
  (* arm the slow-query threshold: statements at or over it enter the
     [sys.slow_queries] ring (and print their span tree to stderr) *)
  (match slow_ms with
  | Some ms -> Bdbms.Db.set_slow_ms (Engine.db engine) (Some ms)
  | None -> ());
  let server = Server.create ?idle_timeout_s engine in
  let endpoints = ref [] in
  (* default to a Unix socket next to the database file when no
     endpoint was requested *)
  let unix_sock =
    match (unix_sock, tcp) with
    | None, None -> Some (db_path ^ ".sock")
    | u, _ -> u
  in
  (match unix_sock with
  | Some path ->
      Server.listen_unix server path;
      endpoints := Printf.sprintf "unix:%s" path :: !endpoints
  | None -> ());
  (match tcp with
  | Some spec -> (
      match parse_host_port spec with
      | Some (host, port) ->
          Server.listen_tcp server ~host ~port;
          endpoints :=
            Printf.sprintf "tcp:%s:%d" host (Server.bound_port server)
            :: !endpoints
      | None ->
          Printf.eprintf "error: --tcp expects HOST:PORT, got %S\n" spec;
          Server.stop server;
          Engine.close engine;
          exit 2)
  | None -> ());
  (* sampled JSONL query log: one line per sampled statement with user,
     session, duration, row count, and trace id *)
  let qlog_channel =
    match query_log with
    | None -> None
    | Some path ->
        let oc =
          open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path
        in
        let qlog = Bdbms.Db.qlog (Engine.db engine) in
        Qlog.set_sample_every qlog (max 1 query_log_sample);
        Qlog.set_sink qlog
          (Some
             (fun line ->
               output_string oc line;
               output_char oc '\n';
               flush oc));
        endpoints :=
          Printf.sprintf "qlog:%s (1/%d)" path (max 1 query_log_sample)
          :: !endpoints;
        Some (oc, qlog)
  in
  (* Prometheus scrape endpoint + liveness probe *)
  let http =
    match metrics_port with
    | None -> None
    | Some port ->
        let h =
          Http.serve ~host:"127.0.0.1" ~port
            ~metrics:(fun () -> Bdbms.Db.metrics (Engine.db engine))
            ~health:(fun () -> Bdbms.Db.degraded (Engine.db engine))
            ()
        in
        endpoints :=
          Printf.sprintf "http:127.0.0.1:%d/metrics" (Http.bound_port h)
          :: !endpoints;
        Some h
  in
  Printf.printf "bdbms_serve: db %s, listening on %s\n%!" db_path
    (String.concat ", " (List.rev !endpoints));
  let stop_flag = ref false in
  let request_stop _ = stop_flag := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  while not !stop_flag do
    Thread.delay 0.1
  done;
  (* graceful drain: stop accepting, let in-flight requests finish (up to
     the grace period), roll back what remains; [Engine.close] below then
     checkpoints and releases the file lock *)
  Printf.printf "bdbms_serve: draining (grace %gs)\n%!" grace;
  (match http with Some h -> Http.stop h | None -> ());
  Server.drain ~grace_s:grace server;
  (match qlog_channel with
  | Some (oc, qlog) ->
      Qlog.set_sink qlog None;
      close_out_noerr oc
  | None -> ());
  if stats then
    Format.printf "%a@." Stats.pp (Bdbms.Db.io_stats (Engine.db engine));
  Engine.close engine;
  0

open Cmdliner

let db_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "d"; "db" ] ~docv:"PATH"
        ~doc:
          "Open (or create) the durable database file to serve; crash \
           recovery runs on open.")

let unix_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at PATH (default: the database \
           path plus $(b,.sock) when no endpoint is given).")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on a TCP socket (port 0 picks a free port).")

let pool_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pool-pages" ] ~docv:"N"
        ~doc:"Bound the canonical buffer pool to N frames.")

let snapshot_pool_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "snapshot-pool-pages" ] ~docv:"N"
        ~doc:"Bound each transaction snapshot's private pool to N frames.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict-acl" ] ~doc:"Enforce GRANT/REVOKE for non-admin users.")

let idle_timeout_arg =
  Arg.(
    value
    & opt (some float) (Some 60.)
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Reap a connection silent this long — between frames or stalled \
           mid-frame — rolling back its open transaction (default 60; 0 \
           disables).")

let grace_arg =
  Arg.(
    value
    & opt float 5.
    & info [ "grace" ] ~docv:"SECONDS"
        ~doc:
          "On SIGTERM/SIGINT, wait this long for in-flight requests to \
           finish before cutting their connections (graceful drain).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print every counter on shutdown.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve a Prometheus scrape endpoint on \
           http://127.0.0.1:PORT/metrics (text exposition format), plus a \
           $(b,/healthz) liveness probe answering 503 while the engine is \
           in degraded read-only mode.  Port 0 picks a free port.")

let query_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "query-log" ] ~docv:"PATH"
        ~doc:
          "Append sampled statements to PATH as JSON lines (one object per \
           statement: sql, user, session, duration, rows, trace id, ok).")

let query_log_sample_arg =
  Arg.(
    value
    & opt int 1
    & info [ "query-log-sample" ] ~docv:"N"
        ~doc:
          "Log every Nth statement (default 1 = all).  Sampling is \
           deterministic (a counter, not a coin flip), so N=100 logs \
           statements 1, 101, 201, ...")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Record any statement taking at least MS milliseconds into the \
           $(b,sys.slow_queries) ring (also printed to stderr with its \
           trace-span tree; arming this enables tracing).")

let cmd =
  let doc = "multi-session server for bdbms, the biological DBMS" in
  Cmd.v
    (Cmd.info "bdbms_serve" ~doc)
    Term.(
      const main $ db_arg $ unix_arg $ tcp_arg $ pool_arg $ snapshot_pool_arg
      $ strict_arg $ idle_timeout_arg $ grace_arg $ stats_arg
      $ metrics_port_arg $ query_log_arg $ query_log_sample_arg $ slow_ms_arg)

let () = exit (Cmd.eval' cmd)
