(* The traced run: the same clients, but the engine is hosted in this
   process and each request goes through the public calls the server's
   request loop makes — decode the frame, [Session.execute], build the
   reply ([Executor.render] for rowsets), encode it — each wrapped in a
   span by the bench.  Nothing inside lib/ is instrumented; a span is the
   duration of one public call, and a layer's self time is its span minus
   its children.

   Autocommit statements take [lock] first (the "session/wait" span):
   the engine lock would serialize them anyway, and taking it outside
   [Session.execute] keeps queueing out of the session's own time.

   After each reply the client pauses for [wire_s], the measured run's
   mean time a request spends outside the server's request handler (the
   "wire/replay" span): without it the in-process clients would arrive
   back-to-back, queue far more than over the socket, and starve the
   snapshot page faults a transaction makes under the engine lock. *)

module P = Bdbms_server.Protocol
module Engine = Bdbms_server.Engine
module Session = Bdbms_server.Session
module Executor = Bdbms_asql.Executor
module Parser = Bdbms_asql.Parser
module Pager = Bdbms_storage.Pager
module Obs = Bdbms_obs.Obs
module Metrics = Bdbms_obs.Metrics

(* Per-client tallies kept beside the spans. *)
type acc = {
  mutable bytes : int;  (** encoded request + response bytes *)
  mutable stmt_ns : int;  (** executor time inside autocommit statements *)
}

let acc () = { bytes = 0; stmt_ns = 0 }

(* The reply exactly as [Server] builds it from a session outcome. *)
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

let reply_resp span = function
  | Session.Outcome (Executor.Count { affected; verb }) -> P.Count { affected; verb }
  | Session.Outcome (Executor.Message m) -> P.Message { text = m }
  | Session.Outcome o ->
      P.Rows { rendered = span "executor" "render" (fun () -> Executor.render o) }
  | Session.Began -> P.Message { text = "BEGIN" }
  | Session.Committed seq -> P.Committed { seq }
  | Session.Rolled_back -> P.Message { text = "ROLLBACK" }

let kind_of session sql =
  match String.uppercase_ascii (String.trim sql) with
  | "BEGIN" -> "begin"
  | "COMMIT" -> "commit"
  | "ROLLBACK" -> "rollback"
  | _ -> if Session.in_txn session then "txn_stmt" else "autocommit"

let transport engine lock session acc ~wire_s tracer sql =
  let span layer name f =
    match tracer with Some tr -> Conn.with_span tr ~layer ~name f | None -> f ()
  in
  let frame =
    span "protocol" "encode_request" (fun () ->
        P.encode_request (P.Query { sql; timeout_ms = None; trace_id = 0 }))
  in
  let sql =
    match span "protocol" "decode_request" (fun () -> P.decode_request frame) with
    | P.Frame (P.Query { sql; _ }, _) -> sql
    | _ -> failwith "request frame did not round-trip"
  in
  let kind = kind_of session sql in
  if kind = "autocommit" || kind = "txn_stmt" then
    ignore (span "parser" "parse" (fun () -> Parser.parse sql));
  let execute () =
    match Session.execute session sql with
    | r -> Ok r
    | exception Pager.Pool_exhausted _ ->
        Error (P.Error_resp { code = P.E_busy; message = "buffer pool exhausted; retry" })
    | exception e ->
        Error (P.Error_resp { code = P.E_internal; message = Printexc.to_string e })
  in
  let result =
    if kind <> "autocommit" then span "session" kind execute
    else begin
      span "session" "wait" (fun () -> Mutex.lock lock);
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          let h = (Engine.obs engine).Obs.stmt_hist in
          let s0 = Metrics.sum h in
          let r = span "session" kind execute in
          if tracer <> None then acc.stmt_ns <- acc.stmt_ns + Metrics.sum h - s0;
          r)
    end
  in
  let resp =
    match result with
    | Ok (Ok reply) -> reply_resp span reply
    | Ok (Error e) -> error_resp e
    | Error resp -> resp
  in
  let out = span "protocol" "encode_response" (fun () -> P.encode_response resp) in
  if tracer <> None then acc.bytes <- acc.bytes + Bytes.length frame + Bytes.length out;
  let resp =
    match span "protocol" "decode_response" (fun () -> P.decode_response out) with
    | P.Frame (r, _) -> r
    | _ -> failwith "response frame did not round-trip"
  in
  span "wire" "replay" (fun () -> Thread.delay wire_s);
  resp

(* ------------------------------------------------------------ results *)

let dur s = s.Conn.t1 - s.Conn.t0

(* Self time: the span minus the part its direct children cover (a
   client's spans never overlap their siblings). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.Conn.parent <> 0 then
        Hashtbl.replace children s.Conn.parent
          (dur s + Option.value ~default:0 (Hashtbl.find_opt children s.Conn.parent)))
    spans;
  fun s -> dur s - Option.value ~default:0 (Hashtbl.find_opt children s.Conn.id)

let write_spans path spans =
  let self = self_times spans in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("op", Json.int s.Conn.op);
                    ("id", Json.int s.Conn.id);
                    ("parent", Json.int s.Conn.parent);
                    ("layer", Json.Str s.Conn.layer);
                    ("name", Json.Str s.Conn.name);
                    ("start_ns", Json.int s.Conn.t0);
                    ("end_ns", Json.int s.Conn.t1);
                    ("self_ns", Json.int (self s));
                  ]));
          output_char oc '\n')
        (List.sort (fun a b -> compare a.Conn.t0 b.Conn.t0) spans))

(* [request_us]: the measured run's server time per request (frame in to
   reply built, queueing for the engine included), which the traced
   session time (the wait for the lock included) plus render time per
   request should reproduce. *)
let layers spans accs ~ops ~requests ~request_us =
  let total layer name =
    List.fold_left
      (fun (n, ns) s ->
        if s.Conn.layer = layer && (name = "" || s.Conn.name = name) then (n + 1, ns + dur s)
        else (n, ns))
      (0, 0) spans
  in
  let mean mname layer name =
    let n, ns = total layer name in
    Metric.ratio mname "us" ~n ~why:(Printf.sprintf "no %s/%s calls" layer name)
      (float_of_int ns /. 1000.) (float_of_int n)
  in
  let sum f = List.fold_left (fun a x -> a + f x) 0 accs in
  let _, codec_ns = total "protocol" "" in
  let auto_n, auto_ns = total "session" "autocommit" in
  let _, session_ns = total "session" "" in
  let _, render_ns = total "executor" "render" in
  let per_request_us ns = float_of_int ns /. 1000. /. float_of_int requests in
  [
    Metric.v "protocol.codec_us" "us" ~n:requests (per_request_us codec_ns);
    Metric.v "protocol.bytes_per_op" "bytes" ~n:ops
      (float_of_int (sum (fun a -> a.bytes)) /. float_of_int ops);
    mean "parser.parse_us" "parser" "parse";
    mean "executor.render_us" "executor" "render";
    mean "session.wait_us" "session" "wait";
    mean "session.autocommit_us" "session" "autocommit";
    Metric.ratio "session.commit_share" "ratio" ~n:auto_n ~why:"no autocommit statements"
      (float_of_int (auto_ns - sum (fun a -> a.stmt_ns)))
      (float_of_int auto_ns);
    mean "session.begin_us" "session" "begin";
    mean "session.txn_stmt_us" "session" "txn_stmt";
    mean "session.commit_us" "session" "commit";
    Metric.ratio "trace.agreement" "ratio" ~n:requests ~why:"no measured requests"
      (per_request_us (session_ns + render_ns))
      request_us;
  ]
