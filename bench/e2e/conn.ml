(* One client of a workload: a transport that answers a statement with a
   wire response, the client's recorder (latencies, attempts, failures),
   and — in the traced run — its span buffer.

   The workloads only ever call [op] and [query], so the same client code
   drives the server over the socket (measured run) and the in-process
   engine (traced run). *)

module P = Bdbms_server.Protocol
module Timer = Bdbms_util.Timer

(* ----------------------------------------------------------------- spans *)

type span = {
  id : int;
  parent : int;  (** 0 for an op's root span *)
  op : int;
  layer : string;
  name : string;
  t0 : int;
  t1 : int;
}

type tracer = {
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable next_id : int;
  mutable cur_op : int;
}

(* Ids are unique per client: client [c] numbers from [c * 10^9 + 1]. *)
let tracer client =
  { spans = []; stack = []; next_id = client * 1_000_000_000; cur_op = 0 }

let with_span tr ~layer ~name f =
  tr.next_id <- tr.next_id + 1;
  let id = tr.next_id in
  let parent = match tr.stack with p :: _ -> p | [] -> 0 in
  tr.stack <- id :: tr.stack;
  let t0 = Timer.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Timer.now_ns () in
      tr.stack <- List.tl tr.stack;
      tr.spans <- { id; parent; op = tr.cur_op; layer; name; t0; t1 } :: tr.spans)
    f

(* ------------------------------------------------------------- recorder *)

type kind = Read | Write

type t = {
  send : tracer option -> string -> P.response;
      (** the transport; it records its spans into the tracer it is given *)
  tracer : tracer option;
  client : int;
  reads : Stat.samples;  (** op latencies, ms *)
  writes : Stat.samples;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failure reasons *)
  mutable rows : int;  (** rows returned to the client *)
  mutable user_bytes : int;  (** literal bytes the client wrote *)
  mutable requests : int;
  mutable rtt_ns : int;  (** summed request round trips *)
  mutable ops : int;
  mutable commits : int;  (** transactions acknowledged by COMMIT *)
}

let create ?tracer ~client send =
  {
    send;
    tracer;
    client;
    reads = Stat.samples ();
    writes = Stat.samples ();
    attempted = 0;
    failed = 0;
    errors = [];
    rows = 0;
    user_bytes = 0;
    requests = 0;
    rtt_ns = 0;
    ops = 0;
    commits = 0;
  }

(* A fresh, untraced recorder on the same transport: warm-up and the
   post-run oracles run on one, so they stay out of the window's
   numbers. *)
let fresh c = create ~client:c.client c.send

let fail c reason =
  if List.length c.errors < 5 then c.errors <- reason :: c.errors;
  false

let query c sql =
  let t0 = Timer.now_ns () in
  let resp = c.send c.tracer sql in
  c.rtt_ns <- c.rtt_ns + Timer.since_ns t0;
  c.requests <- c.requests + 1;
  (match resp with P.Committed { seq } when seq > 0 -> c.commits <- c.commits + 1 | _ -> ());
  resp

(* One client operation: [f] issues its requests and checks every reply
   against the oracle, answering whether all of them were right.  Only
   correct operations contribute a latency; every one counts as an
   attempt. *)
let op c kind f =
  c.ops <- c.ops + 1;
  let run () =
    match c.tracer with
    | None -> f ()
    | Some tr ->
        tr.cur_op <- (c.client * 1_000_000_000) + c.ops;
        with_span tr ~layer:"client"
          ~name:(match kind with Read -> "read" | Write -> "write")
          f
  in
  let t0 = Timer.now_ns () in
  let ok = run () in
  let ms = Timer.ns_to_ms (Timer.since_ns t0) in
  c.attempted <- c.attempted + 1;
  if ok then Stat.add (match kind with Read -> c.reads | Write -> c.writes) ms
  else c.failed <- c.failed + 1

(* A check outside any timed operation (post-run oracles). *)
let verify c reason ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    ignore (fail c reason)
  end

(* ------------------------------------------------------ reply parsing *)

(* A rendered rowset: header, then per row its display line and any
   annotation footnotes ("    @col ..."), then "(n rows)". *)
type row = { line : string; anns : string list }

let rows_of rendered =
  match String.split_on_char '\n' rendered with
  | [] -> None
  | header :: rest ->
      let rec go acc = function
        | [ last ] when String.length last > 0 && last.[0] = '(' -> Some (header, List.rev acc)
        | line :: more when String.length line > 4 && String.sub line 0 4 = "    " -> (
            match acc with
            | r :: acc' -> go ({ r with anns = r.anns @ [ String.trim line ] } :: acc') more
            | [] -> None)
        | line :: more -> go ({ line; anns = [] } :: acc) more
        | [] -> None
      in
      go [] rest

let expect_rows c sql =
  match query c sql with
  | P.Rows { rendered } -> (
      match rows_of rendered with
      | Some (header, rows) ->
          c.rows <- c.rows + List.length rows;
          Ok (header, rows)
      | None -> Error ("unparseable rowset for " ^ sql))
  | P.Error_resp { message; _ } -> Error (message ^ " :: " ^ sql)
  | _ -> Error ("expected rows for " ^ sql)

let expect_count c sql n =
  match query c sql with
  | P.Count { affected; _ } when affected = n -> Ok ()
  | P.Count { affected; _ } ->
      Error (Printf.sprintf "%d rows affected, expected %d :: %s" affected n sql)
  | P.Error_resp { message; _ } -> Error (message ^ " :: " ^ sql)
  | _ -> Error ("expected a count for " ^ sql)

let expect_ok c sql =
  match query c sql with
  | P.Error_resp { message; _ } -> Error (message ^ " :: " ^ sql)
  | P.Committed { seq } when seq <= 0 -> Error "commit reported no position"
  | _ -> Ok ()
