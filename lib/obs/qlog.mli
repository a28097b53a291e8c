(** Structured query log: a bounded ring of recent slow statements (the
    feed for the [sys.slow_queries] virtual table) plus an optional
    sampling JSONL sink.

    The sink is an injected line consumer — the binary that owns the log
    file passes [output_string]-plus-flush — so this library performs no
    I/O itself.  Sampling is deterministic (every Nth statement), which
    keeps the overhead bench and the tests reproducible. *)

type entry = {
  q_seq : int;  (** statement sequence number, 1-based *)
  q_sql : string;
  q_user : string;
  q_session : int;  (** server session id; 0 = local *)
  q_dur_ns : int;
  q_rows : int;  (** result rows; -1 = unknown / not a rowset *)
  q_trace_id : int;  (** 0 = none *)
  q_ok : bool;
}

type t

val create : ?slow_capacity:int -> unit -> t
(** [slow_capacity] bounds the slow-statement ring (default 128).
    @raise Invalid_argument if [slow_capacity < 1]. *)

val set_sink : t -> (string -> unit) option -> unit
(** Install (or clear) the JSONL line consumer.  Each sampled statement
    produces one complete JSON object (no trailing newline). *)

val set_sample_every : t -> int -> unit
(** Write every Nth statement to the sink (1 = all, the default).
    @raise Invalid_argument if [n < 1]. *)

val sample_every : t -> int

val record :
  t ->
  sql:string ->
  user:string ->
  session:int ->
  dur_ns:int ->
  rows:int ->
  trace_id:int ->
  ok:bool ->
  slow:bool ->
  unit
(** Record one executed statement: always counts it and samples it to
    the sink; additionally retains it in the slow ring when [slow]. *)

val recorded : t -> int
(** Statements ever recorded. *)

val sampled : t -> int
(** Entries actually written to the sink. *)

val slow : t -> entry list
(** Slow-ring entries still retained, oldest first. *)

val entry_json : entry -> string
(** The JSONL rendering of one entry (no trailing newline). *)
