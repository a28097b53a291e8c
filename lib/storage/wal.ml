(* Write-ahead log: redo records with CRC-checked framing and group-flush
   batching.

   File layout: an 8-byte header (magic "BWAL" + u32 version) followed by
   records.  Each record is framed as

       | len : u32 | crc : u32 | payload : len bytes |

   where [crc] is the CRC-32 of the payload, and the payload is a tag
   byte plus a body:

       'P' u32 page_id  page image   (redo page write)
       'A' u32 page_id               (page allocation)
       'C'                           (commit marker)

   Appends are buffered in memory; [flush] writes the whole batch in one
   guarded write followed by an fsync (group commit).  Recovery applies
   records only up to the last durable commit marker, so flushing a
   partial batch early (buffer full) is always safe. *)

module Stats = Bdbms_obs.Stats

module Crc32 = Bdbms_util.Crc32
module Obs = Bdbms_obs.Obs

type record =
  | Page_write of { page_id : int; data : string }
  | Alloc of { page_id : int }
  | Commit

type t = {
  fd : Unix.file_descr;
  path : string;
  fault : Fault.t;
  stats : Stats.t;
  obs : Obs.t option;
  buf : Buffer.t; (* encoded records awaiting a group flush *)
  group_bytes : int; (* auto-flush threshold for [buf] *)
  mutable file_bytes : int; (* bytes written to the file so far *)
  mutable scratch : Bytes.t; (* [read_page_image_into]'s read buffer *)
}

let magic = "BWAL"
let version = 1
let header_len = 8
let frame_len = 8

let header () =
  let h = Bytes.create header_len in
  Bytes.blit_string magic 0 h 0 4;
  Bytes.set_int32_le h 4 (Int32.of_int version);
  Bytes.to_string h

(* ------------------------------------------------------------ encoding *)

let encode_payload r =
  match r with
  | Page_write { page_id; data } ->
      let b = Bytes.create (5 + String.length data) in
      Bytes.set b 0 'P';
      Bytes.set_int32_le b 1 (Int32.of_int page_id);
      Bytes.blit_string data 0 b 5 (String.length data);
      Bytes.unsafe_to_string b
  | Alloc { page_id } ->
      let b = Bytes.create 5 in
      Bytes.set b 0 'A';
      Bytes.set_int32_le b 1 (Int32.of_int page_id);
      Bytes.unsafe_to_string b
  | Commit -> "C"

let decode_payload s =
  let u32 pos = Int32.to_int (String.get_int32_le s pos) in
  match s.[0] with
  | 'P' when String.length s >= 5 ->
      Some (Page_write { page_id = u32 1; data = String.sub s 5 (String.length s - 5) })
  | 'A' when String.length s = 5 -> Some (Alloc { page_id = u32 1 })
  | 'C' when String.length s = 1 -> Some Commit
  | _ -> None

let encode_into buf r =
  let payload = encode_payload r in
  let frame = Bytes.create frame_len in
  Bytes.set_int32_le frame 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le frame 4 (Int32.of_int (Crc32.string payload));
  Buffer.add_bytes buf frame;
  Buffer.add_string buf payload

(* ------------------------------------------------------------- append *)

(* Opens the log for appending.  The caller is expected to have already
   recovered (and checkpointed away) any previous contents: the log is
   reset to just its header. *)
let open_reset ~fault ~stats ?obs ?(group_bytes = 64 * 1024) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  Fault.guard fault;
  Unix.ftruncate fd 0;
  Backend.guarded_pwrite fault fd ~off:0 (Bytes.of_string (header ()));
  {
    fd;
    path;
    fault;
    stats;
    obs;
    buf = Buffer.create 4096;
    group_bytes;
    file_bytes = header_len;
    scratch = Bytes.empty;
  }

let size t = t.file_bytes + Buffer.length t.buf

(* The batch is captured (and the buffer cleared) before any I/O, and
   [file_bytes] only advances after the fsync succeeds, so a retried
   attempt rewrites the same bytes at the same offset — idempotent. *)
let flush_inner t =
  let batch = Buffer.to_bytes t.buf in
  Buffer.clear t.buf;
  Backend.with_io_retry t.fault ?obs:t.obs ~op:"wal-flush" (fun () ->
      Fault.transient t.fault ~op:"wal-flush";
      Backend.guarded_pwrite t.fault t.fd ~off:t.file_bytes batch;
      Fault.guard t.fault;
      Unix.fsync t.fd);
  t.file_bytes <- t.file_bytes + Bytes.length batch;
  Stats.record_wal_flush t.stats

let flush t =
  if Buffer.length t.buf > 0 then
    match t.obs with
    | None -> flush_inner t
    | Some obs ->
        Obs.timed obs obs.Obs.wal_flush_hist "wal.flush" (fun () ->
            flush_inner t)

let append t r =
  encode_into t.buf r;
  Stats.record_wal_append t.stats;
  if Buffer.length t.buf >= t.group_bytes then flush t

(* Like [append], but returns the file offset the record's frame will
   occupy once flushed, so the pager can read a stolen page's image back
   out of the log ([read_page_image]) before the next checkpoint makes
   the slot authoritative again. *)
let append_located t r =
  let off = t.file_bytes + Buffer.length t.buf in
  append t r;
  off

let flushed_bytes t = t.file_bytes

(* Random-access read of a [Page_write] record previously appended at
   [off] (as returned by [append_located]) and since flushed, into
   [page].  One positional read covers the frame and the longest
   plausible payload; the frame is CRC-verified, and any mismatch means
   the log we ourselves wrote was damaged underneath us, which is
   surfaced as corruption of the page. *)
let read_page_image_into t ~off ~page_id page =
  let corrupt detail = raise (Backend.Corrupt { page = page_id; detail }) in
  let page_size = Page.size page in
  if off + frame_len > t.file_bytes then
    corrupt "WAL page image offset beyond flushed log";
  let want = frame_len + page_size + 64 in
  if Bytes.length t.scratch < want then t.scratch <- Bytes.create want;
  let b = t.scratch in
  let got = Backend.read_at t.fd ~off b ~pos:0 ~len:want in
  if got < frame_len then corrupt "short read of WAL frame";
  let plen = Int32.to_int (Bytes.get_int32_le b 0) in
  let crc = Int32.to_int (Bytes.get_int32_le b 4) in
  if plen <= 0 || plen > page_size + 64 then corrupt "bad WAL frame length";
  if got < frame_len + plen then corrupt "short read of WAL payload";
  if Crc32.bytes b ~pos:frame_len ~len:plen land 0xFFFFFFFF <> crc land 0xFFFFFFFF
  then corrupt "WAL page image failed CRC verification";
  if
    plen = 5 + page_size
    && Bytes.get b frame_len = 'P'
    && Int32.to_int (Bytes.get_int32_le b (frame_len + 1)) = page_id
  then Bytes.blit b (frame_len + 5) (Page.unsafe_bytes page) 0 page_size
  else corrupt "WAL record at offset is not this page's image"

let commit t =
  append t Commit;
  flush t

(* Empties the log after a checkpoint has made the data pages durable.
   Truncate-then-rewrite-header is idempotent, so the whole sequence can
   be retried as one unit. *)
let reset t =
  Buffer.clear t.buf;
  Backend.with_io_retry t.fault ?obs:t.obs ~op:"wal-reset" (fun () ->
      Fault.transient t.fault ~op:"wal-reset";
      Fault.guard t.fault;
      Unix.ftruncate t.fd 0;
      t.file_bytes <- 0;
      Backend.guarded_pwrite t.fault t.fd ~off:0 (Bytes.of_string (header ()));
      t.file_bytes <- header_len;
      Fault.guard t.fault;
      Unix.fsync t.fd)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* --------------------------------------------------------------- scan *)

type scan_result = {
  records : record list; (* valid records, in log order *)
  torn : bool; (* scan stopped before end-of-file *)
  bytes : int; (* file size scanned *)
}

(* Reads every well-formed record from the log file, stopping (without
   failing) at the first torn or corrupt frame.  [max_record] bounds the
   plausible payload length (page size + slack) so a garbage length field
   cannot make us skip over real data. *)
let scan ~max_record path =
  if not (Sys.file_exists path) then { records = []; torn = false; bytes = 0 }
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let data = really_input_string ic len in
    close_in ic;
    if len < header_len || String.sub data 0 4 <> magic then
      { records = []; torn = len > 0; bytes = len }
    else begin
      let u32 pos = Int32.to_int (String.get_int32_le data pos) in
      let records = ref [] in
      let torn = ref false in
      let pos = ref header_len in
      (try
         while !pos < len do
           if len - !pos < frame_len then raise Exit;
           let plen = u32 !pos in
           let crc = u32 (!pos + 4) in
           if plen <= 0 || plen > max_record then raise Exit;
           if len - !pos - frame_len < plen then raise Exit;
           let payload = String.sub data (!pos + frame_len) plen in
           if Crc32.string payload land 0xFFFFFFFF <> crc land 0xFFFFFFFF then
             raise Exit;
           match decode_payload payload with
           | None -> raise Exit
           | Some r ->
               records := r :: !records;
               pos := !pos + frame_len + plen
         done
       with Exit -> torn := true);
      { records = List.rev !records; torn = !torn; bytes = len }
    end
  end
