(** The length-prefixed binary wire protocol.

    Every frame is:

    {v
      +----------------+--------+------------------------+
      | u32 big-endian |  u8    |  length-1 bytes        |
      |    length      |  tag   |  payload               |
      +----------------+--------+------------------------+
    v}

    where [length] counts the tag byte plus the payload (so it is always
    ≥ 1) and is capped at {!max_frame} — an oversized or zero-length
    prefix is a protocol error, not an allocation.  See DESIGN.md §10
    for the full frame catalogue. *)

val max_frame : int
(** Maximum [length] value accepted (16 MiB). *)

val proto_version : int
(** The protocol this peer speaks (2).  Version 2 adds the traced Query
    frame ([0x05]) and the proto field appended to [Hello_ok]; both
    degrade gracefully against version-1 peers. *)

type request =
  | Hello of { user : string }  (** tag [0x01]: open a session *)
  | Query of { sql : string; timeout_ms : int option; trace_id : int }
      (** tag [0x02] without a deadline or trace id (wire-compatible
          with older peers); tag [0x04] ([u32 timeout_ms | sql]) with a
          deadline only; tag [0x05]
          ([u64 trace_id | u32 timeout_ms | sql], all-ones timeout =
          none) when the client stamps a trace id — send it only after a
          proto ≥ 2 handshake.  The server aborts and rolls back a
          statement that outlives its deadline, answering {!E_timeout}. *)
  | Control of { name : string }
      (** tag [0x03]: out-of-band op: [ping], [metrics], [stats],
          [exec [mode]], [timeout [ms|off]], [trace on|off|tree|json] *)

type error_code =
  | E_internal
  | E_exec  (** parse/execution/authorization error *)
  | E_conflict  (** snapshot conflict: retry the transaction *)
  | E_busy  (** transient resource exhaustion: retry *)
  | E_auth
  | E_proto
  | E_timeout  (** statement deadline expired; rolled back, not retryable *)
  | E_degraded
      (** engine is in read-only degraded mode; writes retryable later *)

val code_retryable : error_code -> bool

type response =
  | Hello_ok of { session : int; proto : int }
      (** tag [0x81]: [u32 session | u32 proto]; a 4-byte payload from a
          v1 server decodes as proto 1 *)
  | Rows of { rendered : string }  (** tag [0x82]: server-rendered table *)
  | Count of { affected : int; verb : string }  (** tag [0x83] *)
  | Message of { text : string }  (** tag [0x84] *)
  | Committed of { seq : int }
      (** tag [0x85]: global commit-order position *)
  | Error_resp of { code : error_code; message : string }  (** tag [0xE0] *)

(** {1 Pure codec} — exercised by the property tests. *)

val encode_request : request -> Bytes.t
val encode_response : response -> Bytes.t

type 'a decoded =
  | Frame of 'a * int  (** the value and the bytes consumed *)
  | Need_more  (** the buffer holds a valid but incomplete frame *)
  | Invalid of string  (** malformed: bad tag, bad length, short payload *)

val decode_request : Bytes.t -> request decoded
val decode_response : Bytes.t -> response decoded

(** {1 Blocking frame I/O} over a connected socket.  [stats], when
    given, counts frames into [frames_rx]/[frames_tx]. *)

exception Protocol_error of string

val send_request :
  ?stats:Bdbms_obs.Stats.t -> Unix.file_descr -> request -> unit

val send_response :
  ?stats:Bdbms_obs.Stats.t -> Unix.file_descr -> response -> unit

val recv_request :
  ?stats:Bdbms_obs.Stats.t -> Unix.file_descr -> request option
(** [None] on a clean EOF at a frame boundary.
    @raise Protocol_error on a malformed or truncated frame. *)

val recv_response :
  ?stats:Bdbms_obs.Stats.t -> Unix.file_descr -> response option
