(* Pluggable stable-store backend beneath [Disk].

   The disk keeps the full working set of pages in memory in both modes;
   the backend is what survives a crash:

   - [mem]: no stable store at all — the original simulated disk.
   - [file]: pages persisted to a database file.  Layout (format v2): a
     header page (magic "BDBF", version, page size) followed by data
     slots of [page_size + trailer_len] bytes, page [i] at byte offset
     [page_size + i * (page_size + trailer_len)].  Each slot ends in an
     8-byte trailer (magic "PGCK" + CRC-32 of the page image) so a
     flipped byte or a torn checkpoint store is detected on load instead
     of being returned as page data.  All writes are guarded by a
     [Fault.t] so tests can crash the store at any point.

   The header is written once at creation and never rewritten, so it is
   assumed atomic (a single sector in practice). *)

exception Corrupt of { page : int; detail : string }
exception Locked of { path : string }
exception Io_degraded of { op : string; detail : string }

let () =
  Printexc.register_printer (function
    | Locked { path } ->
        Some
          (Printf.sprintf
             "Backend.Locked(%s): database file is locked by another process"
             path)
    | Io_degraded { op; detail } ->
        Some
          (Printf.sprintf "Backend.Io_degraded(%s): %s (retry budget exhausted)"
             op detail)
    | _ -> None)

module Crc32 = Bdbms_util.Crc32
module Backoff = Bdbms_util.Backoff
module Obs = Bdbms_obs.Obs
module Metrics = Bdbms_obs.Metrics
module Stats = Bdbms_obs.Stats

type file_state = {
  path : string;
  lock_key : string;
  fd : Unix.file_descr;
  fault : Fault.t;
  f_page_size : int;
  obs : Obs.t option;
}

type t = Mem of { m_page_size : int } | File of file_state

let magic = "BDBF"
let version = 2
let header_fields = 12 (* magic + u32 version + u32 page_size *)
let trailer_magic = "PGCK"
let trailer_len = 8 (* magic + u32 crc of the page image *)

let page_size = function Mem m -> m.m_page_size | File f -> f.f_page_size
let path = function Mem _ -> None | File f -> Some f.path

let mem ~page_size = Mem { m_page_size = page_size }

let slot_len ps = ps + trailer_len
let slot_off ps id = ps + (id * slot_len ps)

(* ------------------------------------------------------- raw file I/O *)

(* One positional read (backend_stubs.c): up to [len] bytes at file
   offset [off] into [buf] from [pos]; fewer only at end of file. *)
external read_at_unsafe : Unix.file_descr -> int -> Bytes.t -> int -> int -> int
  = "bdbms_read_at"

(* One positional read of a page slot: the image into the page, the
   trailer summarised (see [load_into]). *)
external read_slot : Unix.file_descr -> int -> string -> Bytes.t -> int
  = "bdbms_read_slot"

let read_at fd ~off buf ~pos ~len =
  if off < 0 || pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Backend.read_at: out of range";
  read_at_unsafe fd off buf pos len

let pwrite_raw fd ~off buf ~len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd buf !sent (len - !sent)
  done

(* A stable write guarded by the fault injector: a crash may land only a
   prefix of the buffer (torn write) before raising. *)
let guarded_pwrite fault fd ~off buf =
  let len = Bytes.length buf in
  let allowed = Fault.allowance fault ~len in
  if allowed > 0 then pwrite_raw fd ~off buf ~len:allowed;
  Fault.check fault

let file_size fd = (Unix.fstat fd).Unix.st_size

(* ----------------------------------------------------- transient retry *)

(* What counts as transient: injected [Fault.Io] plus the Unix errors a
   real deployment sees come and go (I/O error, disk full, interrupted
   or would-block syscalls).  Crashes and corruption are never retried. *)
let io_retryable = function
  | Fault.Io _ -> true
  | Unix.Unix_error
      ((Unix.EIO | Unix.ENOSPC | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      true
  | _ -> false

let describe_io = function
  | Fault.Io { kind; op } ->
      Printf.sprintf "injected %s during %s" (Fault.io_kind_name kind) op
  | Unix.Unix_error (e, fn, _) ->
      Printf.sprintf "%s in %s" (Unix.error_message e) fn
  | e -> Printexc.to_string e

(* Retry an idempotent stable-storage operation with bounded jittered
   backoff.  Every retried operation here rewrites the same bytes at the
   same offset (full-page slot store, WAL batch at a fixed offset, fsync,
   ftruncate), so repeating a partially-applied attempt is safe.  The
   attached cancellation token is polled around each sleep so a statement
   deadline cuts the loop short; after the budget is exhausted the typed
   [Io_degraded] tells the engine to drop into read-only mode. *)
let with_io_retry fault ?obs ~op f =
  try
    Backoff.retry
      ~on_retry:(fun ~attempt:_ ~delay_ms ->
        match obs with
        | None -> ()
        | Some o ->
            Stats.record_io_retry o.Obs.stats;
            Metrics.observe o.Obs.retry_backoff_hist
              (int_of_float (delay_ms *. 1e6)))
      ~before_wait:(fun () -> Fault.cancel_point fault)
      ~retryable:io_retryable f
  with e when io_retryable e ->
    (match obs with None -> () | Some o -> Stats.record_io_gave_up o.Obs.stats);
    raise (Io_degraded { op; detail = describe_io e })

let retrying f_state ~op f = with_io_retry f_state.fault ?obs:f_state.obs ~op f

(* --------------------------------------------------------- open/close *)

let write_header fd ~page_size =
  let h = Bytes.make page_size '\000' in
  Bytes.blit_string magic 0 h 0 4;
  Bytes.set_int32_le h 4 (Int32.of_int version);
  Bytes.set_int32_le h 8 (Int32.of_int page_size);
  pwrite_raw fd ~off:0 h ~len:page_size;
  Unix.fsync fd

(* Advisory locking: an fcntl write lock on the whole database file keeps
   a second *process* out (released automatically when the fd closes or
   the process dies, so a crashed process never leaves a stale lock), and
   a process-local registry of open paths keeps a second handle in the
   *same* process out (fcntl locks do not conflict within one process).
   [close] — reached by both [Disk.close] and [Disk.abandon] — releases
   both, so crash-recovery reopens work. *)

let open_paths : (string, unit) Hashtbl.t = Hashtbl.create 4
let open_paths_mu = Mutex.create ()

let lock_key_of path =
  match Unix.realpath path with p -> p | exception Unix.Unix_error _ -> path

let register_open ~path ~key fd =
  let locked_out =
    Mutex.protect open_paths_mu (fun () ->
        if Hashtbl.mem open_paths key then true
        else begin
          Hashtbl.replace open_paths key ();
          false
        end)
  in
  let raise_locked () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Locked { path })
  in
  if locked_out then raise_locked ();
  match
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    Unix.lockf fd Unix.F_TLOCK 0
  with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
      Mutex.protect open_paths_mu (fun () -> Hashtbl.remove open_paths key);
      raise_locked ()

let unregister_open key =
  Mutex.protect open_paths_mu (fun () -> Hashtbl.remove open_paths key)

(* Opens (or creates) the database file; returns the backend and the
   number of pages currently in the stable store. *)
let file ~fault ?obs ~page_size ~path () =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let lock_key = lock_key_of path in
  register_open ~path ~key:lock_key fd;
  let unregister_and f = unregister_open lock_key; f () in
  let size = file_size fd in
  if size < header_fields then begin
    (* fresh (or a file that died before its header landed): initialise *)
    Unix.ftruncate fd 0;
    write_header fd ~page_size;
    (File { path; lock_key; fd; fault; f_page_size = page_size; obs }, 0)
  end
  else begin
    let h = Bytes.create header_fields in
    ignore (read_at fd ~off:0 h ~pos:0 ~len:header_fields);
    if Bytes.sub_string h 0 4 <> magic then
      unregister_and (fun () ->
          Unix.close fd;
          invalid_arg
            (Printf.sprintf "Backend.file: %s is not a bdbms database" path));
    let stored_version = Int32.to_int (Bytes.get_int32_le h 4) in
    if stored_version <> version then
      unregister_and (fun () ->
          Unix.close fd;
          invalid_arg
            (Printf.sprintf
               "Backend.file: %s has format version %d, expected %d" path
               stored_version version));
    let stored_ps = Int32.to_int (Bytes.get_int32_le h 8) in
    if stored_ps <> page_size then
      unregister_and (fun () ->
          Unix.close fd;
          invalid_arg
            (Printf.sprintf "Backend.file: %s has page_size %d, requested %d"
               path stored_ps page_size));
    let count = max 0 ((size - page_size) / slot_len page_size) in
    (File { path; lock_key; fd; fault; f_page_size = page_size; obs }, count)
  end

let close = function
  | Mem _ -> ()
  | File f ->
      unregister_open f.lock_key;
      (try Unix.close f.fd with Unix.Unix_error _ -> ())

(* ---------------------------------------------------------- page ops *)

(* Verdict of the CRC trailer check on load.  An all-zero slot is a page
   that was allocated (by growing the file) but never stored — valid and
   empty, not corrupt. *)
type verdict = Crc_ok | Crc_zero | Crc_bad

(* Fills [page] with slot [id]'s image in one positional read and
   checks it against the trailer.  A slot past end of file reads as zero
   bytes, as the file would after growing. *)
let load_into t id page =
  match t with
  | Mem _ -> invalid_arg "Backend.load_into: in-memory backend has no stable store"
  | File f ->
      let ps = f.f_page_size in
      if Page.size page <> ps then invalid_arg "Backend.load_into: page size mismatch";
      let buf = Page.unsafe_bytes page in
      match read_slot f.fd (slot_off ps id) trailer_magic buf with
      | -1 -> Crc_zero
      | -2 -> Crc_bad
      | stored -> if stored = Crc32.bytes buf then Crc_ok else Crc_bad

let store t id page =
  match t with
  | Mem _ -> ()
  | File f ->
      let ps = f.f_page_size in
      let slot = Bytes.create (slot_len ps) in
      Bytes.blit (Page.unsafe_bytes page) 0 slot 0 ps;
      Bytes.blit_string trailer_magic 0 slot ps 4;
      Bytes.set_int32_le slot (ps + 4)
        (Int32.of_int (Crc32.bytes (Page.unsafe_bytes page) ~pos:0 ~len:ps));
      retrying f ~op:"store" (fun () ->
          (try Fault.transient f.fault ~op:"store"
           with Fault.Io { kind = Fault.Short_write; _ } as e ->
             (* land a torn prefix before failing: the retry rewrites the
                whole slot at the same offset, repairing it *)
             pwrite_raw f.fd ~off:(slot_off ps id) slot
               ~len:(Bytes.length slot / 2);
             raise e);
          guarded_pwrite f.fault f.fd ~off:(slot_off ps id) slot)

(* Sets the stable page count (grows with zero pages, shrinks by
   truncation); atomic under fault injection. *)
let set_count t n =
  match t with
  | Mem _ -> ()
  | File f ->
      retrying f ~op:"truncate" (fun () ->
          Fault.transient f.fault ~op:"truncate";
          Fault.guard f.fault;
          Unix.ftruncate f.fd (f.f_page_size + (n * slot_len f.f_page_size)))

let sync t =
  match t with
  | Mem _ -> ()
  | File f ->
      retrying f ~op:"fsync" (fun () ->
          Fault.transient f.fault ~op:"fsync";
          Fault.guard f.fault;
          Unix.fsync f.fd)

(* Single-attempt health check for degraded-mode recovery: true iff one
   fsync gets through cleanly.  No retry — the caller polls. *)
let probe t =
  match t with
  | Mem _ -> true
  | File f -> (
      match
        Fault.transient f.fault ~op:"probe";
        Fault.check f.fault;
        Unix.fsync f.fd
      with
      | () -> true
      | exception e when io_retryable e -> false)
