(* The bdbms shell: run A-SQL interactively or from a script file.

     dune exec bin/bdbms_cli.exe                 # interactive, in-memory
     dune exec bin/bdbms_cli.exe -- -f setup.sql # run a script
     dune exec bin/bdbms_cli.exe -- -u alice     # session user
     dune exec bin/bdbms_cli.exe -- -d genes.db  # durable database file  *)

open Bdbms
module Timer = Bdbms_util.Timer
module Client = Bdbms_server.Client
module P = Bdbms_server.Protocol

let run_statement db ~user ~timing sql =
  let r, elapsed = Timer.timed (fun () -> Db.exec db ~user sql) in
  (match r with
  | Ok outcome -> print_endline (Bdbms_asql.Executor.render outcome)
  | Error e -> Printf.printf "error: %s\n" e);
  if timing then Printf.printf "Time: %s\n" (Format.asprintf "%a" Timer.pp_ns elapsed)

(* Each statement of the script runs through the statement boundary (so
   --stmt-timeout and --slow-ms apply) and is committed on its own; the
   first error stops the script. *)
let run_script db ~user path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  match Bdbms_asql.Parser.parse_script src with
  | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      exit 1
  | Ok stmts ->
      List.iter
        (fun (sql, stmt) ->
          match
            Result.bind (Db.statement db ~user ~sql stmt) (fun outcome ->
                Result.map (fun () -> outcome) (Db.commit db))
          with
          | Ok outcome -> print_endline (Bdbms_asql.Executor.render outcome)
          | Error e ->
              Printf.eprintf "error: %s\n" (Db.error_message e);
              exit 1)
        stmts

let report_recovery db =
  (match Db.recovery_info db with
  | Some o ->
      Printf.printf
        "-- recovery: replayed %d committed record(s), discarded %d uncommitted%s\n"
        o.Bdbms_storage.Recovery.applied o.Bdbms_storage.Recovery.discarded
        (if o.Bdbms_storage.Recovery.torn_tail then " (torn log tail skipped)"
         else "")
  | None -> print_endline "-- recovery: not a durable database");
  if Db.catalog_records db > 0 then
    Printf.printf "-- catalog: bootstrapped %d metadata record(s) from page 0\n"
      (Db.catalog_records db)

let exec_mode_help =
  Printf.sprintf "usage: \\exec [%s]"
    (String.concat "|" (List.map fst Bdbms_asql.Context.exec_modes))
let timeout_help = "usage: \\timeout [MS|off]"

(* "\timeout" / "\timeout 500" / "\timeout off" — shared parse for the
   local and remote REPLs; [None] = not a timeout line. *)
let timeout_cmd line =
  if line = "\\timeout" then Some `Show
  else if String.length line > 9 && String.sub line 0 9 = "\\timeout " then
    match String.trim (String.sub line 9 (String.length line - 9)) with
    | "off" -> Some `Off
    | arg -> (
        match float_of_string_opt arg with
        | Some ms when ms >= 0. -> Some (`Set ms)
        | _ -> Some `Bad)
  else None

let repl db ~user =
  Printf.printf
    "bdbms shell (user: %s%s). End statements with ';'. Type \\q to quit%s.\n"
    user
    (if Db.durable db then ", durable" else "")
    (if Db.durable db then ", \\checkpoint to checkpoint, \\recover for recovery info"
     else "");
  (* per-statement wall time on by default interactively (off in scripts);
     toggle with \timing *)
  let timing = ref true in
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "bdbms> " else "   ... ");
    match read_line () with
    | exception End_of_file -> ()
    | "\\q" -> ()
    | "\\checkpoint" ->
        (match Db.checkpoint db with
        | Ok () when Db.durable db -> print_endline "checkpointed"
        | Ok () -> print_endline "not a durable database (start with --db PATH)"
        | Error e -> Printf.printf "error: %s\n" e);
        loop ()
    | "\\recover" ->
        report_recovery db;
        loop ()
    | "\\timing" ->
        timing := not !timing;
        Printf.printf "Timing is %s.\n" (if !timing then "on" else "off");
        loop ()
    | "\\metrics" ->
        print_string (Db.metrics db);
        loop ()
    | "\\trace" ->
        print_string (Db.trace_tree db);
        loop ()
    | "\\trace on" ->
        Db.set_tracing db true;
        print_endline "Tracing is on.";
        loop ()
    | "\\trace off" ->
        Db.set_tracing db false;
        print_endline "Tracing is off.";
        loop ()
    | "\\trace json" ->
        print_endline (Db.trace_json db);
        loop ()
    | "\\analyze" ->
        run_statement db ~user ~timing:!timing "ANALYZE;";
        loop ()
    | line when String.length line > 9 && String.sub line 0 9 = "\\analyze " ->
        let arg = String.trim (String.sub line 9 (String.length line - 9)) in
        run_statement db ~user ~timing:!timing ("ANALYZE " ^ arg ^ ";");
        loop ()
    | "\\exec" ->
        Printf.printf "exec mode: %s\n"
          (Bdbms_asql.Context.exec_mode_name (Db.exec_mode db));
        loop ()
    | line when String.length line > 6 && String.sub line 0 6 = "\\exec " -> (
        let arg = String.trim (String.sub line 6 (String.length line - 6)) in
        (match Bdbms_asql.Context.exec_mode_of_string arg with
        | Some m ->
            Db.set_exec_mode db m;
            Printf.printf "exec mode: %s\n"
              (Bdbms_asql.Context.exec_mode_name m)
        | None -> Printf.printf "unknown exec mode %S; %s\n" arg exec_mode_help);
        loop ())
    | line when timeout_cmd line <> None ->
        (match timeout_cmd line with
        | Some `Show ->
            Printf.printf "statement timeout: %s\n"
              (match Db.stmt_timeout_ms db with
              | None -> "off"
              | Some ms -> Printf.sprintf "%gms" ms)
        | Some `Off ->
            Db.set_stmt_timeout_ms db None;
            print_endline "statement timeout: off"
        | Some (`Set ms) ->
            Db.set_stmt_timeout_ms db (Some ms);
            Printf.printf "statement timeout: %gms\n" ms
        | Some `Bad | None -> print_endline timeout_help);
        loop ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let src = Buffer.contents buf in
        if String.contains line ';' then begin
          Buffer.clear buf;
          run_statement db ~user ~timing:!timing (String.trim src)
        end;
        loop ()
  in
  loop ()

(* ----------------------------------------------------- remote (--connect) *)

(* ADDR is host:port when the part after the last ':' is a port number,
   otherwise a Unix-domain socket path. *)
let connect_client addr =
  match String.rindex_opt addr ':' with
  | Some i -> (
      let host = String.sub addr 0 i in
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Client.connect_tcp
            ~host:(if host = "" then "127.0.0.1" else host)
            ~port:p
      | _ -> Client.connect_unix addr)
  | None -> Client.connect_unix addr

let print_response = function
  | P.Rows { rendered } -> print_endline rendered
  | P.Count { affected; verb } -> Printf.printf "%d %s\n" affected verb
  | P.Message { text } -> print_endline text
  | P.Committed { seq } -> Printf.printf "COMMIT (seq %d)\n" seq
  | P.Hello_ok { session; _ } -> Printf.printf "session #%d\n" session
  | P.Error_resp { code; message } ->
      Printf.printf "error: %s%s\n" message
        (if P.code_retryable code then " (retryable, safe to re-run)" else "")

(* Is this statement transaction control?  Mirrors the server's session
   layer: the client only needs it to know when auto-retry is safe. *)
let txn_kind sql =
  let s = String.trim sql in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = ';' then
      String.trim (String.sub s 0 (String.length s - 1))
    else s
  in
  match String.uppercase_ascii s with
  | "BEGIN" | "BEGIN TRANSACTION" | "BEGIN WORK" | "START TRANSACTION" ->
      `Begin
  | "COMMIT" | "COMMIT WORK" | "COMMIT TRANSACTION" | "END" | "ROLLBACK"
  | "ROLLBACK WORK" | "ROLLBACK TRANSACTION" | "ABORT" ->
      `End
  | _ -> `Other

(* Autocommit statements auto-retry on retryable error frames (Busy,
   Conflict, Degraded) — the server rolled the statement back, so
   resending is safe.  Inside an explicit transaction the whole
   transaction must restart, so retry is off and the error surfaces. *)
let remote_statement client ~timing ~in_txn sql =
  let resp, elapsed =
    Timer.timed (fun () ->
        if !in_txn then Client.query client sql
        else
          fst
            (Client.query_retry client
               ~on_retry:(fun ~attempt ~delay_ms ->
                 Printf.printf
                   "-- retryable error (attempt %d); retrying in %.0fms\n%!"
                   attempt delay_ms)
               sql))
  in
  (match (txn_kind sql, resp) with
  | `Begin, P.Error_resp _ -> ()
  | `Begin, _ -> in_txn := true
  | `End, _ -> in_txn := false (* the server finishes the txn either way *)
  | `Other, _ -> ());
  print_response resp;
  if timing then
    Printf.printf "Time: %s\n" (Format.asprintf "%a" Timer.pp_ns elapsed)

(* Scripts over the wire reuse the shell's convention: statements are
   ';'-separated. *)
let remote_script client path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  String.split_on_char ';' src
  |> List.iter (fun chunk ->
         let sql = String.trim chunk in
         if sql <> "" then
           match Client.query client sql with
           | P.Error_resp { message; _ } ->
               Printf.eprintf "error: %s\n" message;
               exit 1
           | resp -> print_response resp)

let remote_repl client ~user ~session =
  Printf.printf
    "bdbms shell (user: %s, remote session #%d). End statements with ';'. \
     Type \\q to quit; BEGIN/COMMIT/ROLLBACK run a snapshot-isolated \
     transaction.\n"
    user session;
  let timing = ref true in
  let in_txn = ref false in
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "bdbms> " else "   ... ");
    match read_line () with
    | exception End_of_file -> ()
    | "\\q" -> ()
    | "\\timing" ->
        timing := not !timing;
        Printf.printf "Timing is %s.\n" (if !timing then "on" else "off");
        loop ()
    | "\\metrics" ->
        print_response (Client.control client "metrics");
        loop ()
    | "\\stats" ->
        print_response (Client.control client "stats");
        loop ()
    | "\\ping" ->
        print_response (Client.control client "ping");
        loop ()
    (* server-side tracing, mirroring the local \trace commands: the
       span ring lives in the server process, so these ride the control
       frame *)
    | "\\trace" ->
        print_response (Client.control client "trace tree");
        loop ()
    | "\\trace on" ->
        print_response (Client.control client "trace on");
        loop ()
    | "\\trace off" ->
        print_response (Client.control client "trace off");
        loop ()
    | "\\trace json" ->
        print_response (Client.control client "trace json");
        loop ()
    | "\\analyze" ->
        remote_statement client ~timing:!timing ~in_txn "ANALYZE;";
        loop ()
    | line when String.length line > 9 && String.sub line 0 9 = "\\analyze " ->
        let arg = String.trim (String.sub line 9 (String.length line - 9)) in
        remote_statement client ~timing:!timing ~in_txn ("ANALYZE " ^ arg ^ ";");
        loop ()
    | "\\exec" ->
        print_response (Client.control client "exec");
        loop ()
    | line when String.length line > 6 && String.sub line 0 6 = "\\exec " ->
        let arg = String.trim (String.sub line 6 (String.length line - 6)) in
        print_response (Client.control client ("exec " ^ arg));
        loop ()
    | line when timeout_cmd line <> None ->
        (match timeout_cmd line with
        | Some `Show -> print_response (Client.control client "timeout")
        | Some `Off -> print_response (Client.control client "timeout off")
        | Some (`Set ms) ->
            print_response
              (Client.control client (Printf.sprintf "timeout %g" ms))
        | Some `Bad | None -> print_endline timeout_help);
        loop ()
    | line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let src = Buffer.contents buf in
        if String.contains line ';' then begin
          Buffer.clear buf;
          remote_statement client ~timing:!timing ~in_txn (String.trim src)
        end;
        loop ()
  in
  loop ()

let remote_main addr ~user ~script ~exec_mode ~stmt_timeout =
  match connect_client addr with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot connect to %s: %s\n" addr
        (Unix.error_message e);
      2
  | client -> (
      let finish code =
        Client.close client;
        code
      in
      match Client.hello client ~user with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          finish 2
      | Ok session -> (
          try
            (match exec_mode with
            | Some m -> (
                (* session-scoped override on the server side *)
                match
                  Client.control client
                    ("exec " ^ Bdbms_asql.Context.exec_mode_name m)
                with
                | P.Error_resp { message; _ } ->
                    failwith ("cannot set exec mode: " ^ message)
                | _ -> ())
            | None -> ());
            (match stmt_timeout with
            | Some ms -> (
                (* session-default statement deadline on the server side *)
                match
                  Client.control client (Printf.sprintf "timeout %g" ms)
                with
                | P.Error_resp { message; _ } ->
                    failwith ("cannot set statement timeout: " ^ message)
                | _ -> ())
            | None -> ());
            (match script with
            | Some path -> remote_script client path
            | None -> remote_repl client ~user ~session);
            finish 0
          with
          | Failure m ->
              Printf.eprintf "error: %s\n" m;
              finish 2
          | P.Protocol_error m ->
              Printf.eprintf "error: connection lost: %s\n" m;
              finish 2
          | Unix.Unix_error (e, _, _) ->
              Printf.eprintf "error: connection lost: %s\n"
                (Unix.error_message e);
              finish 2))

let report_recovery_if_notable db =
  (match Db.recovery_info db with
  | Some o
    when o.Bdbms_storage.Recovery.applied > 0
         || o.Bdbms_storage.Recovery.discarded > 0
         || o.Bdbms_storage.Recovery.torn_tail ->
      Printf.printf
        "-- recovery: replayed %d committed record(s), discarded %d uncommitted%s\n"
        o.Bdbms_storage.Recovery.applied o.Bdbms_storage.Recovery.discarded
        (if o.Bdbms_storage.Recovery.torn_tail then " (torn log tail skipped)"
         else "")
  | _ -> ());
  if Db.catalog_records db > 0 then
    Printf.printf "-- catalog: bootstrapped %d metadata record(s) from page 0\n"
      (Db.catalog_records db)

let main user script strict_acl auto_prov stats pool_pages slow_ms exec_mode
    stmt_timeout connect db_path =
  match connect with
  | Some addr -> remote_main addr ~user ~script ~exec_mode ~stmt_timeout
  | None ->
  let db =
    try Db.create ?pool_pages ?path:db_path ()
    with Bdbms_storage.Backend.Locked { path } ->
      Printf.eprintf
        "error: database file %S is locked by another process\n\
         (a bdbms_serve or another shell holds it; use --connect to talk \
         to the server instead)\n"
        path;
      exit 2
    | Bdbms_asql.Durable_catalog.Unsupported_version { found; supported } ->
      Printf.eprintf
        "error: database file %S has catalog format %d; this build reads \
         only format %d\n"
        (Option.value db_path ~default:"") found supported;
      exit 2
  in
  report_recovery_if_notable db;
  Db.set_strict_acl db strict_acl;
  Db.set_auto_provenance db auto_prov;
  (match exec_mode with Some m -> Db.set_exec_mode db m | None -> ());
  (match slow_ms with Some ms -> Db.set_slow_ms db (Some ms) | None -> ());
  (match stmt_timeout with
  | Some ms -> Db.set_stmt_timeout_ms db (Some ms)
  | None -> ());
  (match script with
  | Some path -> run_script db ~user path
  | None -> repl db ~user);
  if stats then begin
    (* what the last open (or rollback re-bootstrap) replayed, then every
       counter of the handle *)
    if Db.durable db then report_recovery db;
    Format.printf "-- counters: %a@." Bdbms_obs.Stats.pp (Db.io_stats db)
  end;
  Db.close db;
  0

open Cmdliner

let user_arg =
  Arg.(value & opt string "admin" & info [ "u"; "user" ] ~docv:"USER" ~doc:"Session user.")

let script_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Run a ;-separated A-SQL script.")

let strict_arg =
  Arg.(value & flag & info [ "strict-acl" ] ~doc:"Enforce GRANT/REVOKE for non-admin users.")

let prov_arg =
  Arg.(value & flag & info [ "auto-provenance" ] ~doc:"Record provenance on every DML.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the last open's recovery and every counter on exit.")

let pool_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "pool-pages" ] ~docv:"N"
        ~doc:
          "Bound the buffer pool to N frames; pages beyond that are \
           demand-paged from the database file (default 256 for durable \
           databases, unbounded in memory).")

let db_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "db" ]
        ~docv:"PATH"
        ~doc:
          "Open (or create) a durable database file; pages persist via a \
           write-ahead log with crash recovery on open.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "connect" ] ~docv:"ADDR"
        ~doc:
          "Connect to a running $(b,bdbms_serve) instead of opening a \
           database file.  ADDR is a Unix-domain socket path, or \
           HOST:PORT for TCP.  BEGIN/COMMIT/ROLLBACK then run \
           snapshot-isolated transactions on the server.")

let exec_arg =
  Arg.(
    value
    & opt (some (enum Bdbms_asql.Context.exec_modes)) None
    & info [ "exec" ] ~docv:"MODE"
        ~doc:
          "SELECT engine: $(b,naive) (materializing) or $(b,batch) \
           (vectorized, the default).  With $(b,--connect) this installs a \
           session-scoped override on the server.")

let slow_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Log any statement taking at least MS milliseconds to stderr, \
           with its trace-span tree (arming this enables tracing).")

let stmt_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stmt-timeout" ] ~docv:"MS"
        ~doc:
          "Abort (and roll back) any statement running at least MS \
           milliseconds — a cooperative deadline checked at page pins, \
           every 64 tuples, and every batch.  With $(b,--connect) this \
           installs the session's default deadline on the server; \
           $(b,\\\\timeout) adjusts it from the shell.")

let cmd =
  let doc = "A-SQL shell for bdbms, the biological DBMS (CIDR 2007 reproduction)" in
  Cmd.v
    (Cmd.info "bdbms" ~doc)
    Term.(
      const main $ user_arg $ script_arg $ strict_arg $ prov_arg $ stats_arg
      $ pool_arg $ slow_arg $ exec_arg $ stmt_timeout_arg $ connect_arg
      $ db_arg)

let () = exit (Cmd.eval' cmd)
