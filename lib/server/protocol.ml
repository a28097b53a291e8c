module Stats = Bdbms_obs.Stats

let max_frame = 16 * 1024 * 1024

(* Protocol 2 adds the traced Query frame (0x05) and the proto field in
   Hello_ok.  Old peers interoperate: a v1 client never sends 0x05, and
   a v1 server's 4-byte Hello_ok decodes as proto 1. *)
let proto_version = 2

type request =
  | Hello of { user : string }
  | Query of { sql : string; timeout_ms : int option; trace_id : int }
  | Control of { name : string }

type error_code =
  | E_internal
  | E_exec
  | E_conflict
  | E_busy
  | E_auth
  | E_proto
  | E_timeout
  | E_degraded

(* [E_degraded] is retryable: degraded mode is transient by design (a
   health probe re-arms writes once I/O recovers).  [E_timeout] is not —
   retrying a statement that just blew its own deadline would blow it
   again; the client should raise the deadline instead. *)
let code_retryable = function
  | E_conflict | E_busy | E_degraded -> true
  | E_internal | E_exec | E_auth | E_proto | E_timeout -> false

let code_byte = function
  | E_internal -> 0
  | E_exec -> 1
  | E_conflict -> 2
  | E_busy -> 3
  | E_auth -> 4
  | E_proto -> 5
  | E_timeout -> 6
  | E_degraded -> 7

let code_of_byte = function
  | 0 -> Some E_internal
  | 1 -> Some E_exec
  | 2 -> Some E_conflict
  | 3 -> Some E_busy
  | 4 -> Some E_auth
  | 5 -> Some E_proto
  | 6 -> Some E_timeout
  | 7 -> Some E_degraded
  | _ -> None

type response =
  | Hello_ok of { session : int; proto : int }
  | Rows of { rendered : string }
  | Count of { affected : int; verb : string }
  | Message of { text : string }
  | Committed of { seq : int }
  | Error_resp of { code : error_code; message : string }

(* ------------------------------------------------------------ encoding *)

(* [frame tag payload_len fill] builds [u32 len | u8 tag | payload]
   where len = 1 + payload_len. *)
let frame tag payload_len fill =
  let b = Bytes.create (4 + 1 + payload_len) in
  Bytes.set_int32_be b 0 (Int32.of_int (1 + payload_len));
  Bytes.set_uint8 b 4 tag;
  fill b 5;
  b

let frame_str tag s =
  frame tag (String.length s) (fun b off ->
      Bytes.blit_string s 0 b off (String.length s))

let frame_u32 tag n =
  frame tag 4 (fun b off -> Bytes.set_int32_be b off (Int32.of_int n))

(* A query without a deadline or trace id keeps the original 0x02
   framing (old clients and servers interoperate); a deadline rides in
   the 0x04 frame as a u32 millisecond prefix; a trace id promotes the
   frame to 0x05 ([u64 trace_id | u32 timeout_ms | sql], with all-ones
   timeout meaning none), which only protocol-2 servers accept — the
   client checks the handshake before using it. *)
let no_timeout_u32 = 0xFFFFFFFF

let encode_request = function
  | Hello { user } -> frame_str 0x01 user
  | Query { sql; timeout_ms = None; trace_id = 0 } -> frame_str 0x02 sql
  | Query { sql; timeout_ms = Some ms; trace_id = 0 } ->
      frame 0x04
        (4 + String.length sql)
        (fun b off ->
          Bytes.set_int32_be b off (Int32.of_int ms);
          Bytes.blit_string sql 0 b (off + 4) (String.length sql))
  | Query { sql; timeout_ms; trace_id } ->
      let ms = Option.value timeout_ms ~default:no_timeout_u32 in
      frame 0x05
        (8 + 4 + String.length sql)
        (fun b off ->
          Bytes.set_int64_be b off (Int64.of_int trace_id);
          Bytes.set_int32_be b (off + 8) (Int32.of_int ms);
          Bytes.blit_string sql 0 b (off + 12) (String.length sql))
  | Control { name } -> frame_str 0x03 name

let encode_response = function
  | Hello_ok { session; proto } ->
      (* [u32 session | u32 proto]: a v1 client reads the first four
         bytes and ignores the rest, so the handshake stays compatible *)
      frame 0x81 8 (fun b off ->
          Bytes.set_int32_be b off (Int32.of_int session);
          Bytes.set_int32_be b (off + 4) (Int32.of_int proto))
  | Rows { rendered } -> frame_str 0x82 rendered
  | Count { affected; verb } ->
      frame 0x83
        (4 + String.length verb)
        (fun b off ->
          Bytes.set_int32_be b off (Int32.of_int affected);
          Bytes.blit_string verb 0 b (off + 4) (String.length verb))
  | Message { text } -> frame_str 0x84 text
  | Committed { seq } -> frame_u32 0x85 seq
  | Error_resp { code; message } ->
      frame 0xE0
        (1 + String.length message)
        (fun b off ->
          Bytes.set_uint8 b off (code_byte code);
          Bytes.blit_string message 0 b (off + 1) (String.length message))

(* ------------------------------------------------------------ decoding *)

type 'a decoded = Frame of 'a * int | Need_more | Invalid of string

(* Shared prefix handling: validate [u32 len] (1 <= len <= max_frame),
   then hand (tag, payload bytes) to the tag dispatcher once the whole
   frame is buffered. *)
let decode_frame buf dispatch =
  let have = Bytes.length buf in
  if have < 4 then Need_more
  else
    let len = Int32.to_int (Bytes.get_int32_be buf 0) in
    if len < 1 then Invalid (Printf.sprintf "frame length %d < 1" len)
    else if len > max_frame then
      Invalid (Printf.sprintf "frame length %d exceeds max %d" len max_frame)
    else if have < 4 + len then Need_more
    else
      let tag = Bytes.get_uint8 buf 4 in
      let payload = Bytes.sub_string buf 5 (len - 1) in
      match dispatch tag payload with
      | Some v -> Frame (v, 4 + len)
      | None -> Invalid (Printf.sprintf "unknown frame tag 0x%02X" tag)

let u32_payload payload k =
  if String.length payload < 4 then None
  else k (Int32.to_int (String.get_int32_be payload 0))

let decode_request buf =
  decode_frame buf (fun tag payload ->
      match tag with
      | 0x01 -> Some (Hello { user = payload })
      | 0x02 -> Some (Query { sql = payload; timeout_ms = None; trace_id = 0 })
      | 0x03 -> Some (Control { name = payload })
      | 0x04 ->
          u32_payload payload (fun ms ->
              if ms < 0 then None
              else
                Some
                  (Query
                     {
                       sql = String.sub payload 4 (String.length payload - 4);
                       timeout_ms = Some ms;
                       trace_id = 0;
                     }))
      | 0x05 ->
          if String.length payload < 12 then None
          else
            let trace_id = Int64.to_int (String.get_int64_be payload 0) in
            let ms =
              Int32.to_int (String.get_int32_be payload 8) land no_timeout_u32
            in
            let timeout_ms = if ms = no_timeout_u32 then None else Some ms in
            if trace_id < 0 then None
            else
              Some
                (Query
                   {
                     sql = String.sub payload 12 (String.length payload - 12);
                     timeout_ms;
                     trace_id;
                   })
      | _ -> None)

let decode_response buf =
  decode_frame buf (fun tag payload ->
      match tag with
      | 0x81 ->
          u32_payload payload (fun session ->
              let proto =
                if String.length payload >= 8 then
                  Int32.to_int (String.get_int32_be payload 4)
                else 1 (* v1 server: 4-byte payload *)
              in
              Some (Hello_ok { session; proto }))
      | 0x82 -> Some (Rows { rendered = payload })
      | 0x83 ->
          u32_payload payload (fun affected ->
              let verb =
                String.sub payload 4 (String.length payload - 4)
              in
              Some (Count { affected; verb }))
      | 0x84 -> Some (Message { text = payload })
      | 0x85 -> u32_payload payload (fun seq -> Some (Committed { seq }))
      | 0xE0 ->
          if String.length payload < 1 then None
          else
            Option.map
              (fun code ->
                Error_resp
                  {
                    code;
                    message =
                      String.sub payload 1 (String.length payload - 1);
                  })
              (code_of_byte (Char.code payload.[0]))
      | _ -> None)

(* ---------------------------------------------------------- socket I/O *)

exception Protocol_error of string

let () =
  Printexc.register_printer (function
    | Protocol_error m -> Some (Printf.sprintf "Protocol_error(%s)" m)
    | _ -> None)

let write_all fd b =
  let len = Bytes.length b in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd b !sent (len - !sent)
  done

(* Fill [b] exactly; [`Eof] only if the stream ends before the first
   byte (a clean close between frames). *)
let read_exact fd b =
  let len = Bytes.length b in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read fd b !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  if !got = len then `Ok
  else if !got = 0 then `Eof
  else `Truncated !got

let send ?stats fd b =
  write_all fd b;
  Option.iter Stats.record_frame_tx stats

let send_request ?stats fd r = send ?stats fd (encode_request r)
let send_response ?stats fd r = send ?stats fd (encode_response r)

let recv ?stats fd decode what =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr with
  | `Eof -> None
  | `Truncated n ->
      raise (Protocol_error (Printf.sprintf "truncated %s header (%d/4 bytes)" what n))
  | `Ok -> (
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
      if len < 1 || len > max_frame then
        raise (Protocol_error (Printf.sprintf "bad %s frame length %d" what len));
      let body = Bytes.create len in
      match read_exact fd body with
      | `Eof | `Truncated _ ->
          raise (Protocol_error (Printf.sprintf "truncated %s frame" what))
      | `Ok -> (
          let whole = Bytes.create (4 + len) in
          Bytes.blit hdr 0 whole 0 4;
          Bytes.blit body 0 whole 4 len;
          match decode whole with
          | Frame (v, _) ->
              Option.iter Stats.record_frame_rx stats;
              Some v
          | Need_more -> raise (Protocol_error "internal: short decode")
          | Invalid m -> raise (Protocol_error m)))

let recv_request ?stats fd = recv ?stats fd decode_request "request"
let recv_response ?stats fd = recv ?stats fd decode_response "response"
