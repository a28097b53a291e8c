(* Structured query log: a bounded ring of recent slow statements (the
   feed for the sys.slow_queries virtual table) plus an optional
   sampling JSONL sink recording every Nth statement.

   Recording is allocation-light and synchronous: one entry construction
   per statement, one formatted line only when the sample counter fires.
   The sink is an injected [string -> unit] (the binary owns the file
   handle), so this library stays free of I/O dependencies.

   Sampling is counter-based, not random: with [sample_every = n] the
   1st, (n+1)th, (2n+1)th... statements are written.  Deterministic
   sampling keeps the overhead bench (E19) and the tests reproducible,
   and for rate estimation it is as unbiased as a random coin over any
   window that is long against n. *)

type entry = {
  q_seq : int;  (* statement sequence number, 1-based *)
  q_sql : string;
  q_user : string;
  q_session : int;  (* server session id; 0 = local *)
  q_dur_ns : int;
  q_rows : int;  (* result rows; -1 = unknown / not a rowset *)
  q_trace_id : int;  (* 0 = none *)
  q_ok : bool;
}

type t = {
  slow_ring : entry option array;
  mutable slow_next : int;  (* next ring slot to overwrite *)
  mutable seq : int;  (* statements ever recorded *)
  mutable sampled : int;  (* entries actually written to the sink *)
  mutable sample_every : int;  (* write every Nth statement; 1 = all *)
  mutable sink : (string -> unit) option;  (* JSONL line consumer *)
}

let default_slow_capacity = 128

let create ?(slow_capacity = default_slow_capacity) () =
  if slow_capacity < 1 then
    invalid_arg "Qlog.create: slow_capacity must be >= 1";
  {
    slow_ring = Array.make slow_capacity None;
    slow_next = 0;
    seq = 0;
    sampled = 0;
    sample_every = 1;
    sink = None;
  }

let set_sink t sink = t.sink <- sink

let set_sample_every t n =
  if n < 1 then invalid_arg "Qlog.set_sample_every: must be >= 1";
  t.sample_every <- n

let sample_every t = t.sample_every
let recorded t = t.seq
let sampled t = t.sampled

let entry_json e =
  Printf.sprintf
    "{\"seq\":%d,\"user\":\"%s\",\"session\":%d,\"dur_ns\":%d,\"rows\":%d,\"trace_id\":%d,\"ok\":%b,\"sql\":\"%s\"}"
    e.q_seq (Trace.json_escape e.q_user) e.q_session e.q_dur_ns e.q_rows
    e.q_trace_id e.q_ok
    (Trace.json_escape e.q_sql)

let record t ~sql ~user ~session ~dur_ns ~rows ~trace_id ~ok ~slow =
  t.seq <- t.seq + 1;
  let e =
    {
      q_seq = t.seq;
      q_sql = sql;
      q_user = user;
      q_session = session;
      q_dur_ns = dur_ns;
      q_rows = rows;
      q_trace_id = trace_id;
      q_ok = ok;
    }
  in
  if slow then begin
    t.slow_ring.(t.slow_next) <- Some e;
    t.slow_next <- (t.slow_next + 1) mod Array.length t.slow_ring
  end;
  match t.sink with
  | Some write when (t.seq - 1) mod t.sample_every = 0 ->
      t.sampled <- t.sampled + 1;
      write (entry_json e)
  | _ -> ()

(* Slow entries oldest-first: the ring slot after [slow_next] is the
   oldest surviving entry. *)
let slow t =
  let cap = Array.length t.slow_ring in
  let out = ref [] in
  for i = cap - 1 downto 0 do
    match t.slow_ring.((t.slow_next + i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out
