(* Tests for the durability subsystem: file-backed disk, write-ahead log,
   checkpointing, crash recovery, and the fault-injection harness.

   The centrepiece is a randomized crash-replay test: a workload of
   committed batches runs against a durable disk with a fault armed to
   crash the N-th stable-storage operation (possibly tearing the final
   write); the database is then reopened and must contain exactly the
   committed prefix — no lost committed writes, no resurrected
   uncommitted ones. *)

open Bdbms_storage
module Stats = Bdbms_obs.Stats
module Prng = Bdbms_util.Prng
module Crc32 = Bdbms_util.Crc32

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let page_size = 256
let val_len = 16

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_recovery_%d_%d.db" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

(* Write a fixed-width value at the start of a page via the disk. *)
let write_val disk id v =
  let p = Disk.read disk id in
  Page.set_bytes p ~pos:0 (Printf.sprintf "%-*s" val_len v);
  Disk.write disk id p

let read_val disk id =
  let raw = Page.get_bytes (Disk.read disk id) ~pos:0 ~len:val_len in
  let raw =
    match String.index_opt raw '\000' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  String.trim raw

(* ------------------------------------------------------------- basics *)

let test_crc32_vector () =
  checki "check value" 0xCBF43926 (Crc32.string "123456789");
  checki "bytes agrees" (Crc32.string "abc") (Crc32.bytes (Bytes.of_string "abc"))

(* The textbook one-byte-at-a-time CRC-32 the sliced kernel must match. *)
let crc32_reference s pos len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let test_crc32_reference () =
  let rng = Random.State.make [| 0xC3C |] in
  let random_string n =
    String.init n (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let agree what s pos len =
    let want = crc32_reference s pos len in
    checki (what ^ " string") want (Crc32.string ~pos ~len s);
    checki (what ^ " bytes") want (Crc32.bytes ~pos ~len (Bytes.of_string s))
  in
  for n = 0 to 70 do
    let s = random_string n in
    let what = Printf.sprintf "length %d" n in
    checki (what ^ " whole") (crc32_reference s 0 n) (Crc32.string s);
    checki (what ^ " whole bytes") (crc32_reference s 0 n)
      (Crc32.bytes (Bytes.of_string s));
    for _ = 1 to 8 do
      let pos = Random.State.int rng (n + 1) in
      let len = Random.State.int rng (n - pos + 1) in
      agree (Printf.sprintf "%s pos %d len %d" what pos len) s pos len
    done
  done;
  let n = (1 lsl 20) + 13 in
  let big = random_string n in
  checki "1 MiB whole" (crc32_reference big 0 n) (Crc32.string big);
  for _ = 1 to 6 do
    let pos = Random.State.int rng 4096 in
    let len = n - pos - Random.State.int rng 4096 in
    agree (Printf.sprintf "1 MiB pos %d len %d" pos len) big pos len
  done

let test_crc32_bounds () =
  let s = "abcdef" in
  let b = Bytes.of_string s in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (pos, len) ->
      let what = Printf.sprintf "pos %d len %s" pos
          (match len with None -> "-" | Some l -> string_of_int l) in
      rejects (what ^ " string") (fun () -> Crc32.string ~pos ?len s);
      rejects (what ^ " bytes") (fun () -> Crc32.bytes ~pos ?len b))
    [
      (-1, None); (-1, Some 2); (7, None); (7, Some 0); (0, Some 7);
      (3, Some 4); (2, Some (-1)); (0, Some max_int); (max_int, Some 1);
    ];
  checki "empty range at the end" 0 (Crc32.string ~pos:6 s);
  checki "empty range mid-string" 0 (Crc32.bytes ~pos:3 ~len:0 b)

let test_persist_across_close () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  let a = Disk.alloc d in
  let b = Disk.alloc d in
  write_val d a "alpha";
  write_val d b "beta";
  Disk.close d;
  let d2 = Disk.open_file ~page_size path in
  checki "pages survive" 2 (Disk.page_count d2);
  checks "a" "alpha" (read_val d2 a);
  checks "b" "beta" (read_val d2 b);
  checki "nothing replayed after clean close" 0
    (match Disk.recovery_info d2 with Some o -> o.Recovery.applied | None -> -1);
  Disk.close d2;
  cleanup path

let test_commit_survives_crash () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  let a = Disk.alloc d in
  write_val d a "committed";
  Disk.commit d;
  Disk.abandon d;
  (* no checkpoint, no close: only the WAL holds the data *)
  let d2 = Disk.open_file ~page_size path in
  let o = Option.get (Disk.recovery_info d2) in
  checkb "replayed something" true (o.Recovery.applied > 0);
  checks "committed survives" "committed" (read_val d2 a);
  Disk.close d2;
  cleanup path

(* A rollback whose re-open fails abandons the same disk again on retry;
   the second abandon must not close descriptor numbers the process has
   reused since (here: a pipe taking the freed numbers). *)
let test_abandon_twice () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  Disk.abandon d;
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w;
      cleanup path)
    (fun () ->
      Disk.abandon d;
      checki "reused descriptor still open" 1 (Unix.write_substring w "x" 0 1);
      (* nor does I/O through the abandoned disk reach the reused numbers *)
      checkb "probe refuses" false (Disk.probe_io d);
      (match Disk.alloc d with
      | _ -> Alcotest.fail "alloc on an abandoned disk"
      | exception Backend.Io_degraded _ -> ());
      (match Disk.commit d with
      | () -> Alcotest.fail "commit on an abandoned disk"
      | exception Backend.Io_degraded _ -> ());
      checki "reused descriptor untouched" 1 (Unix.write_substring w "y" 0 1))

let test_uncommitted_discarded () =
  let path = tmp_path () in
  (* a tiny group-flush threshold forces every record into the file as
     soon as it is appended — uncommitted records ARE on disk, and must
     still not be recovered without their commit marker *)
  let d = Disk.open_file ~page_size ~wal_group_bytes:8 path in
  let a = Disk.alloc d in
  write_val d a "v1";
  Disk.commit d;
  write_val d a "v2-uncommitted";
  let _b = Disk.alloc d in
  Disk.abandon d;
  let d2 = Disk.open_file ~page_size path in
  let o = Option.get (Disk.recovery_info d2) in
  checks "committed version" "v1" (read_val d2 a);
  checki "uncommitted alloc not resurrected" 1 (Disk.page_count d2);
  checki "uncommitted tail discarded" 2 o.Recovery.discarded;
  Disk.close d2;
  cleanup path

let test_torn_tail_skipped () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  let a = Disk.alloc d in
  write_val d a "good";
  Disk.commit d;
  Disk.abandon d;
  (* corrupt the log tail: garbage after the valid committed records *)
  let fd = Unix.openfile (path ^ ".wal") [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  let junk = Bytes.of_string "\x42\xff\x00garbage-not-a-record" in
  ignore (Unix.write fd junk 0 (Bytes.length junk));
  Unix.close fd;
  let d2 = Disk.open_file ~page_size path in
  let o = Option.get (Disk.recovery_info d2) in
  checkb "torn tail detected" true o.Recovery.torn_tail;
  checkb "committed prefix still replayed" true (o.Recovery.applied > 0);
  checks "data recovered" "good" (read_val d2 a);
  Disk.close d2;
  cleanup path

let test_truncated_tail_prefix () =
  (* Batches write a uniform value across all pages; cutting K bytes off
     the log tail must always recover a consistent batch prefix, never a
     mix. *)
  let path = tmp_path () in
  let build () =
    let d = Disk.open_file ~page_size path in
    let ids = List.init 3 (fun _ -> Disk.alloc d) in
    Disk.commit d;
    for batch = 1 to 3 do
      List.iter (fun id -> write_val d id (Printf.sprintf "batch%d" batch)) ids;
      Disk.commit d
    done;
    Disk.abandon d;
    ids
  in
  let ids = build () in
  let wal = path ^ ".wal" in
  let full = (Unix.stat wal).Unix.st_size in
  (* cut ever deeper into the log; rebuild from scratch each time *)
  let cuts = List.init 24 (fun i -> full - (1 + (i * full / 24))) in
  List.iter
    (fun keep ->
      cleanup path;
      ignore (build ());
      let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (max 0 keep);
      Unix.close fd;
      let d = Disk.open_file ~page_size path in
      (if Disk.page_count d > 0 then begin
         let v0 = read_val d (List.hd ids) in
         checkb
           (Printf.sprintf "uniform state at cut %d (got %S)" keep v0)
           true
           (List.for_all (fun id -> read_val d id = v0) ids
           && List.mem v0 [ ""; "batch1"; "batch2"; "batch3" ])
       end);
      Disk.close d)
    cuts;
  cleanup path

(* ------------------------------------- randomized crash-replay harness *)

(* One workload run against [path] with a fault armed to crash after
   [crash_after] stable-storage ops.  Returns the committed model (value
   per page, in batch order) and, if the crash hit mid-batch/commit, the
   model as it would look had that in-flight batch landed. *)
let run_workload ~rng ~path ~crash_after ~tear_frac =
  let fault = Fault.create () in
  let model = ref [||] in
  (* apply a batch of (page, value) writes to a model copy *)
  let apply m batch =
    let top =
      List.fold_left (fun acc (id, _) -> max acc (id + 1)) (Array.length m) batch
    in
    let m' = Array.make top "" in
    Array.blit m 0 m' 0 (Array.length m);
    List.iter (fun (id, v) -> m'.(id) <- v) batch;
    m'
  in
  let inflight = ref None in
  let crashed = ref false in
  (* the fault is armed only after the open, so the open itself cannot
     crash; holding [d] outside the handler lets the crash path release
     its descriptors (and the file lock) like a real process death would *)
  let d = Disk.open_file ~page_size ~fault ~wal_group_bytes:512 path in
  (try
     (* initial committed pages *)
     let n0 = 4 in
     let ids = ref (List.init n0 (fun _ -> Disk.alloc d)) in
     let batch0 = List.map (fun id -> (id, "init")) !ids in
     inflight := Some batch0;
     List.iter (fun (id, v) -> write_val d id v) batch0;
     Disk.commit d;
     model := apply !model batch0;
     inflight := None;
     Fault.arm fault ~tear_frac ~after_ops:crash_after ();
     for batch = 1 to 12 do
       (* a random subset of pages, occasionally a fresh allocation *)
       let members =
         List.filter (fun _ -> Prng.bool rng) !ids
         @ (if Prng.int rng 3 = 0 then [ -1 ] else [])
       in
       let members = if members = [] then [ List.hd !ids ] else members in
       let batch_writes = ref [] in
       inflight := Some [];
       List.iter
         (fun id ->
           let id =
             if id >= 0 then id
             else begin
               let id = Disk.alloc d in
               ids := !ids @ [ id ];
               id
             end
           in
           let v = Printf.sprintf "b%d-%d" batch id in
           batch_writes := (id, v) :: !batch_writes;
           inflight := Some !batch_writes;
           write_val d id v)
         members;
       if Prng.int rng 4 = 0 then Disk.checkpoint d else Disk.commit d;
       model := apply !model !batch_writes;
       inflight := None
     done;
     Disk.close d
   with Fault.Crash _ ->
     crashed := true;
     Disk.abandon d);
  let committed = !model in
  let alt =
    match !inflight with
    | Some batch when !crashed -> Some (apply committed batch)
    | _ -> None
  in
  (!crashed, committed, alt)

let check_state ~what path expected alt =
  let d = Disk.open_file ~page_size path in
  let matches m =
    Disk.page_count d = Array.length m
    && Array.for_all
         (fun ok -> ok)
         (Array.mapi (fun id v -> read_val d id = v || v = "") m)
  in
  let ok = matches expected || match alt with Some m -> matches m | None -> false in
  if not ok then begin
    let dump m = String.concat "," (Array.to_list m) in
    Alcotest.failf "%s: recovered state matches neither model\n committed=[%s]%s\n disk(%d pages)=[%s]"
      what (dump expected)
      (match alt with
      | Some m -> Printf.sprintf "\n in-flight=[%s]" (dump m)
      | None -> "")
      (Disk.page_count d)
      (String.concat ","
         (List.init (Disk.page_count d) (fun id -> read_val d id)))
  end;
  Disk.close d

let test_randomized_crash_points () =
  let rng = Prng.create 20260806 in
  let crashes = ref 0 in
  let iters = 64 in
  for i = 1 to iters do
    let path = tmp_path () in
    let crash_after = Prng.int_in rng ~lo:1 ~hi:45 in
    let tear_frac = [| 0.0; 0.0; 0.3; 0.7; 0.95 |].(Prng.int rng 5) in
    let crashed, committed, alt =
      run_workload ~rng ~path ~crash_after ~tear_frac
    in
    if crashed then incr crashes;
    check_state ~what:(Printf.sprintf "iter %d (crash_after=%d tear=%.2f)" i crash_after tear_frac)
      path committed alt;
    cleanup path
  done;
  checkb
    (Printf.sprintf "enough crash points exercised (%d/%d)" !crashes iters)
    true (!crashes >= 50)

(* -------------------------- buffer pool + WAL ordering (LRU and Clock) *)

(* Dirty pages evicted by the pool reach the disk as WAL records; the
   database file itself is only written at a checkpoint, after the log is
   flushed.  Crashing at every point of a pool-driven workload must never
   surface a page image whose log record did not precede it: recovery
   always yields a committed batch prefix. *)
let pool_workload ~policy ~path ~crash_after =
  let fault = Fault.create () in
  let committed = ref 0 in
  let d = Disk.open_file ~page_size ~fault ~wal_group_bytes:256 ~pool_pages:2 ~policy path in
  (try
     let bp = Disk.pager d in
     let ids = List.init 6 (fun _ -> Pager.alloc_page bp) in
     List.iteri
       (fun i id ->
         Pager.with_page_mut bp id (fun p ->
             Page.set_bytes p ~pos:0 (Printf.sprintf "%-*s" val_len (Printf.sprintf "init-%d" i))))
       ids;
     Pager.flush_dirty bp;
     Disk.commit d;
     committed := 0;
     Fault.arm fault ~tear_frac:0.5 ~after_ops:crash_after ();
     for batch = 1 to 8 do
       (* touching every page through a 2-frame pool forces evictions
          (and hence mid-batch Disk.writes) in both policies *)
       List.iter
         (fun id ->
           Pager.with_page_mut bp id (fun p ->
               Page.set_bytes p ~pos:0
                 (Printf.sprintf "%-*s" val_len (Printf.sprintf "b%d-%d" batch id))))
         ids;
       Pager.flush_dirty bp;
       if batch mod 3 = 0 then Disk.checkpoint d else Disk.commit d;
       committed := batch
     done;
     Disk.close d
   with Fault.Crash _ -> Disk.abandon d);
  !committed

let check_pool_state ~what path committed =
  let d = Disk.open_file ~page_size path in
  if Disk.page_count d > 0 then begin
    checki (what ^ ": all six pages") 6 (Disk.page_count d);
    let vals = List.init 6 (fun id -> read_val d id) in
    (* all pages must reflect the same committed batch: either the batch
       we know committed, or the next one if the crash hit between its
       durable commit and our bookkeeping *)
    let batch_of v =
      if String.length v >= 4 && v.[0] = 'b' then
        int_of_string (String.sub v 1 (String.index v '-' - 1))
      else 0
    in
    let batches = List.sort_uniq compare (List.map batch_of vals) in
    (match batches with
    | [ b ] ->
        checkb
          (Printf.sprintf "%s: batch %d vs committed %d" what b committed)
          true
          (b = committed || b = committed + 1)
    | _ ->
        Alcotest.failf "%s: mixed batches after recovery: %s" what
          (String.concat "," vals))
  end;
  Disk.close d

let test_pool_wal_ordering policy () =
  let rng = Prng.create 77 in
  for _ = 1 to 20 do
    let path = tmp_path () in
    let crash_after = Prng.int_in rng ~lo:1 ~hi:30 in
    let committed = pool_workload ~policy ~path ~crash_after in
    check_pool_state
      ~what:(Printf.sprintf "crash_after=%d" crash_after)
      path committed;
    cleanup path
  done

(* --------------------------------------------------- stats and control *)

let test_stats_counters () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  let before = Stats.snapshot (Disk.stats d) in
  let a = Disk.alloc d in
  write_val d a "x";
  Disk.commit d;
  Disk.checkpoint d;
  let s = Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before in
  checki "wal appends (alloc + write + commit marker)" 3 s.Stats.wal_appends;
  checkb "wal flushed" true (s.Stats.wal_flushes >= 1);
  checki "one checkpoint" 1 s.Stats.checkpoints;
  Disk.close d;
  (* diff/reset must cover the new counters too *)
  let d2 = Disk.open_file ~page_size path in
  Stats.reset (Disk.stats d2);
  let z = Stats.snapshot (Disk.stats d2) in
  checki "reset zeroes wal_appends" 0 z.Stats.wal_appends;
  checki "reset zeroes checkpoints" 0 z.Stats.checkpoints;
  checki "reset zeroes recovered" 0 z.Stats.recovered_records;
  Disk.close d2;
  cleanup path

let test_recovered_counter () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  let a = Disk.alloc d in
  write_val d a "x";
  Disk.commit d;
  Disk.abandon d;
  let d2 = Disk.open_file ~page_size path in
  let s = Stats.snapshot (Disk.stats d2) in
  checki "recovered_records counted" 2 s.Stats.recovered_records;
  Disk.close d2;
  cleanup path

let test_autocheckpoint () =
  let path = tmp_path () in
  (* tiny WAL budget: every commit should trigger a checkpoint *)
  let d = Disk.open_file ~page_size ~wal_autocheckpoint:64 path in
  let a = Disk.alloc d in
  write_val d a "x";
  Disk.commit d;
  write_val d a "y";
  Disk.commit d;
  let s = Stats.snapshot (Disk.stats d) in
  checkb "auto-checkpoints fired" true (s.Stats.checkpoints >= 2);
  checkb "wal stays small" true (Disk.wal_size d <= 64);
  Disk.close d;
  cleanup path

let test_db_facade_durable () =
  let path = tmp_path () in
  let db = Bdbms.Db.create ~path () in
  checkb "durable" true (Bdbms.Db.durable db);
  ignore (Bdbms.Db.exec_exn db "CREATE TABLE G (k TEXT, v INT)");
  ignore (Bdbms.Db.exec_exn db "INSERT INTO G VALUES ('a', 1)");
  let s = Bdbms.Db.io_stats db in
  checkb "statements auto-committed to the wal" true (s.Stats.wal_appends > 0);
  Bdbms.Db.close db;
  (* reopen: the durable catalog rebuilds the logical state *)
  let db2 = Bdbms.Db.create ~path () in
  checkb "catalog bootstrapped" true (Bdbms.Db.catalog_records db2 > 0);
  checks "data queryable with zero re-registration" "a"
    (String.trim
       (List.nth (String.split_on_char '\n' (Bdbms.Db.render_exn db2 "SELECT k FROM G")) 1));
  Bdbms.Db.close db2;
  cleanup path

(* ----------------------- self-bootstrapping durable catalog (page 0) *)

(* ---------------------------------------------------------- meta page *)

(* A durable disk with page 0 reserved for the catalog root; chain pages
   carry [page_size - 4] blob bytes, so [meta_blob 1000] spans 4. *)
let with_meta_disk f =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  Fun.protect
    ~finally:(fun () ->
      (try Disk.close d with _ -> ());
      cleanup path)
    (fun () ->
      Meta_page.ensure_root d;
      Disk.commit d;
      f path d)

let meta_blob ?(salt = 0) n =
  Bytes.init n (fun i -> Char.chr (((i * 31) + salt) land 0xff))

let read_root_exn d =
  match Meta_page.read_root d with
  | Some b -> b
  | None -> Alcotest.fail "no catalog root"

let check_root what d blob =
  checks what (Bytes.to_string blob) (Bytes.to_string (read_root_exn d))

(* Writing the blob the live root already holds dirties nothing: no
   generation bump, no swap, no page write, no log record. *)
let test_meta_same_blob_skips () =
  with_meta_disk (fun _ d ->
      let blob = meta_blob 1000 in
      Meta_page.write_root d blob;
      Disk.commit d;
      let gen = Meta_page.generation d in
      let before = Stats.snapshot (Disk.stats d) in
      Meta_page.write_root d (Bytes.copy blob);
      checkb "nothing dirty" false (Disk.has_uncommitted d);
      Disk.commit d;
      let s = Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before in
      checki "generation unchanged" gen (Meta_page.generation d);
      checki "no root swap" 0 s.Stats.root_swaps;
      checki "no page writes" 0 s.Stats.writes;
      checki "no WAL appends" 0 s.Stats.wal_appends;
      checki "no WAL flushes" 0 s.Stats.wal_flushes;
      check_root "root still holds the blob" d blob)

(* Any difference swaps: one flipped byte in the last chain page, and a
   blob one byte longer or shorter. *)
let test_meta_changed_blob_swaps () =
  with_meta_disk (fun _ d ->
      let blob = meta_blob 1000 in
      Meta_page.write_root d blob;
      Disk.commit d;
      let flipped = Bytes.copy blob in
      Bytes.set flipped 999 (Char.chr (Char.code (Bytes.get blob 999) lxor 1));
      List.iter
        (fun (what, next) ->
          let gen = Meta_page.generation d in
          let before = Stats.snapshot (Disk.stats d) in
          Meta_page.write_root d next;
          Disk.commit d;
          let s = Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before in
          checki (what ^ ": generation bumped") (gen + 1) (Meta_page.generation d);
          checki (what ^ ": one root swap") 1 s.Stats.root_swaps;
          checkb (what ^ ": logged") true (s.Stats.wal_flushes > 0);
          check_root (what ^ ": root holds it") d next)
        [
          ("one byte changed", flipped);
          ("one byte longer", meta_blob 1001);
          ("one byte shorter", meta_blob 1000);
          ("same length, other bytes", meta_blob ~salt:7 1000);
        ])

(* Each slot owns its chain: once both have held the large blob,
   alternating small and large blobs reuses the chains and allocates
   nothing. *)
let test_meta_shrink_regrow () =
  with_meta_disk (fun _ d ->
      let big = meta_blob 1000 and small = meta_blob ~salt:3 10 in
      Meta_page.write_root d big;
      Meta_page.write_root d (meta_blob ~salt:1 1000);
      Disk.commit d;
      let pages = Disk.page_count d in
      for i = 1 to 6 do
        let blob = if i mod 2 = 1 then small else meta_blob ~salt:(i + 1) 1000 in
        Meta_page.write_root d blob;
        Disk.commit d;
        check_root (Printf.sprintf "round %d" i) d blob;
        checki (Printf.sprintf "round %d: no new pages" i) pages (Disk.page_count d)
      done)

let test_meta_empty_blob () =
  with_meta_disk (fun _ d ->
      let empty = Bytes.empty in
      Meta_page.write_root d empty;
      Disk.commit d;
      check_root "empty blob reads back" d empty;
      let gen = Meta_page.generation d in
      Meta_page.write_root d empty;
      checki "empty rewrite skipped" gen (Meta_page.generation d);
      checkb "nothing dirty" false (Disk.has_uncommitted d);
      Meta_page.write_root d (meta_blob 300);
      Disk.commit d;
      checki "non-empty swaps" (gen + 1) (Meta_page.generation d);
      Meta_page.write_root d empty;
      Disk.commit d;
      checki "back to empty swaps" (gen + 2) (Meta_page.generation d);
      check_root "empty again" d empty)

(* A skipped write followed by a crash: the committed root is what a
   reopen finds. *)
let test_meta_skip_then_crash () =
  with_meta_disk (fun path d ->
      let blob = meta_blob 700 in
      Meta_page.write_root d blob;
      Disk.commit d;
      let gen = Meta_page.generation d in
      Meta_page.write_root d (Bytes.copy blob);
      Disk.commit d;
      Disk.abandon d;
      let d2 = Disk.open_file ~page_size path in
      Fun.protect
        ~finally:(fun () -> Disk.close d2)
        (fun () ->
          checki "generation survives" gen (Meta_page.generation d2);
          check_root "blob survives" d2 blob))

module Db = Bdbms.Db
module Context = Bdbms_asql.Context
module Catalog = Bdbms_relation.Catalog
module Table = Bdbms_relation.Table
module Schema = Bdbms_relation.Schema
module Value = Bdbms_relation.Value
module Manager = Bdbms_annotation.Manager
module Tracker = Bdbms_dependency.Tracker
module Rule = Bdbms_dependency.Rule
module Rule_set = Bdbms_dependency.Rule_set
module Principal = Bdbms_auth.Principal
module Acl = Bdbms_auth.Acl
module Approval = Bdbms_auth.Approval
module Prov_store = Bdbms_provenance.Prov_store
module Clock = Bdbms_util.Clock

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A full logical fingerprint of the engine: schemas, data and attached
   annotation envelopes (via rendered annotated SELECTs), outdated marks,
   annotation tables, dependency rules, principals, grants, the approval
   log, provenance tools, index definitions, and the logical clock.  The
   clock is deterministic (it only ticks on statements), so a bootstrapped
   engine must fingerprint identically to an in-memory oracle that
   replayed the same statement prefix. *)
let fingerprint db =
  let ctx = Db.context db in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun name ->
      let tbl = Catalog.find_exn ctx.Context.catalog name in
      add "table %s" (Table.name tbl);
      List.iter
        (fun (c : Schema.column) -> add "  col %s:%s" c.Schema.name (Value.type_name c.ty))
        (Schema.columns (Table.schema tbl));
      add "%s" (Db.render_exn db (Printf.sprintf "SELECT * FROM %s ANNOTATION(*)" name));
      List.iter
        (fun (r, c) -> add "  outdated %d.%d" r c)
        (List.sort compare (Tracker.outdated_cells ctx.Context.tracker ~table:name));
      List.iter
        (fun n -> add "  anntab %s" n)
        (List.sort compare
           (Manager.annotation_table_names ctx.Context.ann ~table_name:name)))
    (List.sort compare (Catalog.table_names ctx.Context.catalog));
  List.iter
    (fun (r : Rule.t) -> add "rule %s" (Rule.describe r))
    (Rule_set.rules (Tracker.rule_set ctx.Context.tracker));
  add "users %s" (String.concat "," (Principal.users ctx.Context.principals));
  add "groups %s" (String.concat "," (Principal.groups ctx.Context.principals));
  List.iter
    (fun (u, gs) -> add "member %s: %s" u (String.concat "," gs))
    (Principal.memberships ctx.Context.principals);
  List.iter
    (fun (table, entries) ->
      List.iter
        (fun (e : Acl.grant_entry) ->
          add "grant %s %s %s %s" table
            (Acl.privilege_name e.privilege)
            (match e.grantee with Acl.User u -> "u:" ^ u | Acl.Group g -> "g:" ^ g)
            (match e.columns with None -> "*" | Some cs -> String.concat "," cs))
        entries)
    (Acl.dump_grants ctx.Context.acl);
  List.iter
    (fun (e : Approval.entry) ->
      add "approval #%d by %s at t%d [%s] decided by %s: %s" e.Approval.id
        e.Approval.user e.Approval.at
        (match e.Approval.status with
        | Approval.Pending -> "pending"
        | Approval.Approved -> "approved"
        | Approval.Disapproved -> "disapproved")
        (match e.Approval.decided_by with None -> "-" | Some u -> u)
        (Approval.inverse_description e.Approval.operation))
    (Approval.entries ctx.Context.approval);
  List.iter (fun t -> add "provtool %s" t) (Prov_store.tools ctx.Context.prov);
  List.iter
    (fun (idx : Context.index_def) ->
      add "index %s on %s(%s)" idx.Context.idx_name idx.Context.idx_table
        idx.Context.idx_column)
    (List.sort compare
       (Hashtbl.fold (fun _ i acc -> i :: acc) ctx.Context.indexes []));
  add "clock t%d" (Clock.now ctx.Context.clock);
  Buffer.contents b

(* The mixed workload the crash harness sweeps over: DDL, DML (driving
   dependency recomputation), annotations, dependency rules and links,
   principals/grants, a secondary index, content approval with a
   disapproval (running an inverse statement), and a delete.  Every
   statement is valid, so any [Error] is a harness bug. *)
let workload =
  [
    "CREATE TABLE Gene (GID TEXT, GSequence DNA)";
    "CREATE TABLE Protein (PName TEXT, PSequence PROTEIN)";
    "INSERT INTO Gene VALUES ('g1', 'ATGATG')";
    "INSERT INTO Gene VALUES ('g2', 'CCGTTA')";
    "INSERT INTO Protein VALUES ('p1', 'MM')";
    "CREATE ANNOTATION TABLE notes ON Gene";
    "CREATE ANNOTATION TABLE curation ON Protein";
    "ADD ANNOTATION TO Gene.notes VALUE 'from GenoBase' ON (SELECT * FROM Gene WHERE GID = 'g1')";
    "CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P";
    "LINK DEPENDENCY r1 FROM (0) TO 0";
    "CREATE USER alice";
    "CREATE GROUP lab";
    "ADD USER alice TO GROUP lab";
    "GRANT SELECT ON Gene TO alice";
    "GRANT UPDATE ON Gene TO GROUP lab";
    "CREATE INDEX gidx ON Gene (GID)";
    "UPDATE Gene SET GSequence = 'TTGTTG' WHERE GID = 'g1'";
    "START CONTENT APPROVAL ON Protein APPROVED BY admin";
    "INSERT INTO Protein VALUES ('p2', 'MV')";
    "UPDATE Protein SET PName = 'p2x' WHERE PName = 'p2'";
    "ADD ANNOTATION TO Protein.curation VALUE 'curator checked' ON (SELECT * FROM Protein WHERE PName = 'p1')";
    "DISAPPROVE 2";
    "INSERT INTO Gene VALUES ('g3', 'AAACCC')";
    "DELETE FROM Gene WHERE GID = 'g2'";
  ]

(* Oracle: an in-memory engine that replayed the first [k] statements. *)
let oracle_fps =
  lazy
    (Array.init
       (List.length workload + 1)
       (fun k ->
         let db = Db.create () in
         List.iteri (fun i sql -> if i < k then ignore (Db.exec_exn db sql)) workload;
         let fp = fingerprint db in
         Db.close db;
         fp))

type arming = Ops of int * float | Point of Fault.point * int

let describe_arming = function
  | Ops (n, tear) -> Printf.sprintf "after %d ops (tear %.2f)" n tear
  | Point (p, after) ->
      Printf.sprintf "point %s #%d"
        (Fault.point_name p)
        after

(* Run the workload against [path] with [arming] armed; returns whether
   the fault fired and how many statements returned before it did.
   [pool_pages] shrinks the pager so the sweep exercises demand paging
   and eviction-time write-back on every statement. *)
let run_bootstrap_workload ?pool_pages ~path ~arming () =
  let fault = Fault.create () in
  let db = Db.create ~page_size ?pool_pages ~path ~fault () in
  (match arming with
  | Ops (n, tear_frac) -> Fault.arm fault ~tear_frac ~after_ops:n ()
  | Point (p, after) -> Fault.arm_point fault ~after p);
  let applied = ref 0 in
  let crashed = ref false in
  (try
     List.iter
       (fun sql ->
         match Db.exec db sql with
         | Ok _ -> incr applied
         | Error e -> Alcotest.failf "workload statement failed: %s (%s)" e sql)
       workload;
     (* the fault can also fire inside the close checkpoint *)
     Db.close db
   with Fault.Crash _ ->
     crashed := true;
     (try Disk.abandon (Db.context db).Context.disk with Fault.Crash _ -> ()));
  (!crashed, !applied)

(* Reopen with [Db.create ~path] alone and differentially compare against
   the oracle.  A crash can land between a statement's durable commit and
   the harness bumping [applied], so prefix [applied] or [applied + 1]
   both count as exact recovery. *)
let check_bootstrap ~what path applied =
  let oracles = Lazy.force oracle_fps in
  let db = Db.create ~page_size ~path () in
  let fp = fingerprint db in
  Db.close db;
  let matches k = k >= 0 && k < Array.length oracles && fp = oracles.(k) in
  if not (matches applied || matches (applied + 1)) then
    Alcotest.failf "%s: bootstrapped state differs from oracle prefix %d/%d\n--- got:\n%s\n--- oracle %d:\n%s"
      what applied (applied + 1) fp applied oracles.(min applied (Array.length oracles - 1))

let test_bootstrap_roundtrip () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  List.iter (fun sql -> ignore (Db.exec_exn db sql)) workload;
  Db.close db;
  check_bootstrap ~what:"clean close" path (List.length workload);
  (* double bootstrap: reopening again must be stable *)
  check_bootstrap ~what:"second reopen" path (List.length workload);
  (* and the rebuilt index must actually serve probes *)
  let db2 = Db.create ~page_size ~path () in
  checkb "index probe after bootstrap" true
    (contains ~needle:"g1" (Db.render_exn db2 "SELECT GID FROM Gene WHERE GID = 'g1'"));
  let s = Db.io_stats db2 in
  checkb "catalog records counted" true (s.Stats.catalog_replayed > 0);
  checkb "pages CRC-verified on load" true (s.Stats.pages_crc_verified > 0);
  checki "no CRC failures on a healthy file" 0 s.Stats.crc_failures;
  ignore (Db.exec_exn db2 "INSERT INTO Gene VALUES ('g9', 'ACGT')");
  checkb "commits swap the catalog root" true ((Db.io_stats db2).Stats.root_swaps > 0);
  Db.close db2;
  cleanup path

let test_bootstrap_crash_anywhere () =
  let deep = Sys.getenv_opt "BDBMS_FUZZ_DEEP" = Some "1" in
  let op_points =
    if deep then List.init 240 (fun i -> i + 1)
    else [ 1; 2; 3; 5; 7; 10; 14; 19; 25; 33; 43; 56; 73; 95; 120; 160; 210; 400 ]
  in
  let armings =
    List.mapi (fun i n -> Ops (n, if i mod 2 = 0 then 0.0 else 0.6)) op_points
    @ List.concat_map
        (fun p -> List.map (fun k -> Point (p, k)) [ 0; 1; 3; 7; 15 ])
        [ Fault.Catalog_write; Fault.Root_swap ]
    @ List.map (fun k -> Point (Fault.Ddl, k)) [ 0; 1; 2; 3; 4; 5 ]
  in
  let crashes = ref 0 and completions = ref 0 in
  List.iter
    (fun arming ->
      let path = tmp_path () in
      let crashed, applied = run_bootstrap_workload ~path ~arming () in
      if crashed then incr crashes else incr completions;
      check_bootstrap ~what:(describe_arming arming) path applied;
      cleanup path)
    armings;
  checkb
    (Printf.sprintf "crash points exercised (%d crashed)" !crashes)
    true (!crashes > 10);
  checkb "some sweeps outlived the fault" true (!completions >= 1)

(* Same differential sweep squeezed through a 4-frame pager, so nearly
   every page touch evicts: steal write-backs and WAL-forced flushes run
   under the same crash-anywhere contract.  The two eviction-time fault
   points crash (a) as a dirty page's redo record is appended mid-scan
   and (b) in the window between the eviction's WAL flush and the stolen
   page's store into its file slot — the spot where a data write
   overtaking the log would corrupt recovery.  [BDBMS_FUZZ_PAGING=1]
   (the [make fuzz-paging] target) widens the sweep. *)
let test_paging_crash_anywhere () =
  let deep = Sys.getenv_opt "BDBMS_FUZZ_PAGING" = Some "1" in
  let op_points =
    if deep then List.init 240 (fun i -> i + 1)
    else [ 1; 3; 7; 14; 25; 43; 73; 120; 210; 400 ]
  in
  let point_hits = if deep then List.init 16 (fun k -> k) else [ 0; 1; 3; 7; 15 ] in
  let armings =
    List.mapi (fun i n -> Ops (n, if i mod 2 = 0 then 0.0 else 0.6)) op_points
    @ List.concat_map
        (fun p -> List.map (fun k -> Point (p, k)) point_hits)
        [ Fault.Evict_writeback; Fault.Evict_store ]
  in
  let crashes = ref 0 and evict_crashes = ref 0 in
  List.iter
    (fun arming ->
      let path = tmp_path () in
      let crashed, applied = run_bootstrap_workload ~pool_pages:4 ~path ~arming () in
      if crashed then begin
        incr crashes;
        match arming with Point _ -> incr evict_crashes | Ops _ -> ()
      end;
      check_bootstrap ~what:("pool=4 " ^ describe_arming arming) path applied;
      cleanup path)
    armings;
  checkb
    (Printf.sprintf "paging crash points exercised (%d crashed)" !crashes)
    true (!crashes > 10);
  checkb
    (Printf.sprintf "eviction fault points fired (%d)" !evict_crashes)
    true (!evict_crashes >= List.length point_hits)

let test_corruption_detected () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  ignore (Db.exec_exn db "CREATE TABLE T (k TEXT, v INT)");
  for i = 1 to 30 do
    ignore (Db.exec_exn db (Printf.sprintf "INSERT INTO T VALUES ('key%d', %d)" i i))
  done;
  Db.close db;
  (* flip one byte inside a checkpointed page's stored image (the clean
     close reset the WAL, so nothing can repair it) *)
  let slot_len = page_size + 8 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let off = page_size + (2 * slot_len) + 17 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  (* the flip must surface as a typed corruption error, never as data *)
  (match Db.create ~page_size ~path () with
  | exception Backend.Corrupt { page; _ } -> checki "corrupt page identified" 2 page
  | db ->
      Db.close db;
      Alcotest.fail "flipped byte was not detected");
  cleanup path

let test_script_atomicity () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  ignore (Db.exec_exn db "CREATE TABLE T (k TEXT)");
  ignore (Db.exec_exn db "INSERT INTO T VALUES ('a')");
  (match
     Db.exec_script db
       "INSERT INTO T VALUES ('b'); INSERT INTO T VALUES ('c'); INSERT INTO nosuch VALUES ('x')"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected the script to fail");
  checkb "no committed WAL tail left behind" false
    (Disk.has_uncommitted (Db.context db).Context.disk);
  let out = Db.render_exn db "SELECT k FROM T" in
  checkb "rolled back in memory too" false (contains ~needle:"b" out);
  checkb "committed row survives" true (contains ~needle:"a" out);
  Db.close db;
  let db2 = Db.create ~path:path ~page_size () in
  let out2 = Db.render_exn db2 "SELECT k FROM T" in
  checkb "after reopen: only the committed prefix" true
    (contains ~needle:"a" out2 && not (contains ~needle:"b" out2));
  Db.close db2;
  cleanup path

let test_script_crash_prefix () =
  let path = tmp_path () in
  let fault = Fault.create () in
  let db = Db.create ~page_size ~path ~fault () in
  ignore (Db.exec_exn db "CREATE TABLE T (k TEXT)");
  ignore (Db.exec_exn db "INSERT INTO T VALUES ('a')");
  (* crash inside the script's commit, before the catalog write lands *)
  Fault.arm_point fault Fault.Catalog_write;
  (try
     ignore
       (Db.exec_script db "INSERT INTO T VALUES ('b'); INSERT INTO T VALUES ('c')")
   with Fault.Crash _ -> ());
  Disk.abandon (Db.context db).Context.disk;
  let db2 = Db.create ~page_size ~path () in
  let out = Db.render_exn db2 "SELECT k FROM T" in
  checkb "exactly the pre-script state" true
    (contains ~needle:"a" out
    && (not (contains ~needle:"b" out))
    && not (contains ~needle:"c" out));
  Db.close db2;
  cleanup path

let test_use_after_close () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  ignore (Db.exec_exn db "CREATE TABLE T (k TEXT)");
  Db.close db;
  checkb "marked closed" true (Db.is_closed db);
  (match Db.exec db "SELECT k FROM T" with
  | Error e -> checks "exec rejected" "database is closed" e
  | Ok _ -> Alcotest.fail "exec on a closed handle succeeded");
  (match Db.commit db with
  | Error e -> checks "commit rejected" "database is closed" e
  | Ok () -> Alcotest.fail "commit on a closed handle succeeded");
  (match Db.checkpoint db with
  | Error e -> checks "checkpoint rejected" "database is closed" e
  | Ok () -> Alcotest.fail "checkpoint on a closed handle succeeded");
  Db.close db;
  (* double close is a no-op *)
  Db.close db;
  cleanup path

(* ANALYZE statistics are versioned blobs in the durable catalog: a
   close + reopen (the crash-recovery bootstrap path) must bring them
   back — including the DML deltas taken after the ANALYZE — and the
   optimizer must keep planning from stats, not heuristics. *)
let test_stats_survive_recovery () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  ignore (Db.exec_exn db "CREATE TABLE S (k INT, v TEXT)");
  ignore
    (Db.exec_exn db
       "INSERT INTO S VALUES (1, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e'), \
        (5, 'f'), (6, 'g'), (7, 'h'), (8, 'i'), (9, 'j')");
  (match Db.exec_exn db "ANALYZE S" with
  | Bdbms_asql.Executor.Message m ->
      checkb "analyze reports" true (contains ~needle:"analyzed 1 table" m)
  | _ -> Alcotest.fail "ANALYZE did not return a message");
  (* a post-ANALYZE delta under the staleness threshold: live_rows moves
     without a re-analyze, and the updated blob rides the commit *)
  ignore (Db.exec_exn db "INSERT INTO S VALUES (10, 'k')");
  checkb "stats-tagged plan before close" true
    (contains ~needle:"est src=stats"
       (Db.render_exn db "EXPLAIN SELECT * FROM S WHERE k = 1"));
  Db.close db;
  let db2 = Db.create ~page_size ~path () in
  let reg = (Db.context db2).Context.tstats in
  (match Bdbms_stats.Registry.find reg "s" with
  | None -> Alcotest.fail "statistics lost across recovery"
  | Some ts ->
      checki "analyzed rows restored" 10
        ts.Bdbms_stats.Table_stats.analyzed_rows;
      checki "post-analyze delta restored" 11
        ts.Bdbms_stats.Table_stats.live_rows);
  checkb "stats-tagged plan after recovery" true
    (contains ~needle:"est src=stats"
       (Db.render_exn db2 "EXPLAIN SELECT * FROM S WHERE k = 1"));
  ignore (Db.exec_exn db2 "DROP TABLE S");
  checkb "drop discards the stats" true
    (Bdbms_stats.Registry.find reg "s" = None);
  Db.close db2;
  cleanup path

(* ------------------------------------------------------ commit path *)

(* Autocommit reads leave the catalog as it is, so their commits write no
   page, flush no log and swap no root; a write swaps exactly once; and a
   read whose statement boundary re-analyzes stale statistics changes
   the catalog, so it does swap. *)
let test_read_only_commits_write_nothing () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      cleanup path)
    (fun () ->
      let e sql = ignore (Db.exec_exn db sql) in
      let delta before = Stats.diff ~after:(Db.io_stats db) ~before in
      e "CREATE TABLE d (k1 INT, k2 INT)";
      e ("INSERT INTO d VALUES " ^ Fixtures.correlated_rows);
      e "ANALYZE d";
      let s0 = Db.io_stats db in
      for k = 0 to 19 do
        e (Printf.sprintf "SELECT * FROM d WHERE k1 = %d" (k mod 10))
      done;
      e "SELECT COUNT(*) FROM d";
      let s = delta s0 in
      checki "reads: no root swaps" 0 s.Stats.root_swaps;
      checki "reads: no page writes" 0 s.Stats.writes;
      checki "reads: no WAL flushes" 0 s.Stats.wal_flushes;
      checki "reads: no checkpoints" 0 s.Stats.checkpoints;
      let s1 = Db.io_stats db in
      e "INSERT INTO d VALUES (50, 50)";
      checki "insert: one root swap" 1 (delta s1).Stats.root_swaps;
      let s2 = Db.io_stats db in
      e Fixtures.drift_query;
      let s = delta s2 in
      checkb "boundary re-analyze fired" true (s.Stats.stats_analyzed > 0);
      checki "re-analyzing read: one root swap" 1 s.Stats.root_swaps;
      checkb "re-analyzing read: logged" true (s.Stats.wal_flushes > 0))

(* Bootstrapping a blob and re-encoding it gives the same bytes, so the
   first read after a reopen finds the catalog unchanged. *)
let test_catalog_encode_fixpoint () =
  let path = tmp_path () in
  let db = Db.create ~page_size ~path () in
  List.iter (fun sql -> ignore (Db.exec_exn db sql)) (workload @ [ "ANALYZE" ]);
  Db.close db;
  let db = Db.create ~page_size ~path () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db;
      cleanup path)
    (fun () ->
      let ctx = Db.context db in
      let stored =
        match Meta_page.read_root ctx.Context.disk with
        | Some b -> b
        | None -> Alcotest.fail "no catalog root after close"
      in
      checks "restore then encode is the identity" (Bytes.to_string stored)
        (Bytes.to_string (Context.encode_catalog ctx));
      let before = Db.io_stats db in
      ignore (Db.exec_exn db "SELECT * FROM Gene");
      checki "first read after reopen swaps nothing" 0
        (Stats.diff ~after:(Db.io_stats db) ~before).Stats.root_swaps)

(* MD5 of the encoding of [workload] plus ANALYZE on an in-memory
   engine, pinned from the code before the codec's word helpers changed:
   the catalog format must stay byte-identical. *)
let golden_catalog_digest = "cdca43bd856d6f291a1c7f4306bf58aa"

let test_catalog_golden_digest () =
  let db = Db.create ~page_size () in
  List.iter (fun sql -> ignore (Db.exec_exn db sql)) (workload @ [ "ANALYZE" ]);
  let blob = Context.encode_catalog (Db.context db) in
  Db.close db;
  checks "catalog encoding digest" golden_catalog_digest
    (Digest.to_hex (Digest.bytes blob))

let test_page_size_mismatch () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size path in
  Disk.close d;
  (match Disk.open_file ~page_size:(page_size * 2) path with
  | exception Invalid_argument _ -> ()
  | d -> Disk.close d; Alcotest.fail "expected page-size mismatch rejection");
  cleanup path

let () =
  Alcotest.run "bdbms_recovery"
    [
      ( "wal",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "crc32 vs bytewise reference" `Quick
            test_crc32_reference;
          Alcotest.test_case "crc32 out-of-range pos/len" `Quick
            test_crc32_bounds;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "recovered counter" `Quick test_recovered_counter;
          Alcotest.test_case "auto-checkpoint" `Quick test_autocheckpoint;
        ] );
      ( "meta-page",
        [
          Alcotest.test_case "same blob skips" `Quick test_meta_same_blob_skips;
          Alcotest.test_case "changed blob swaps" `Quick
            test_meta_changed_blob_swaps;
          Alcotest.test_case "shrink and regrow" `Quick test_meta_shrink_regrow;
          Alcotest.test_case "empty blob" `Quick test_meta_empty_blob;
          Alcotest.test_case "skip then crash" `Quick test_meta_skip_then_crash;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "persist across close" `Quick test_persist_across_close;
          Alcotest.test_case "commit survives crash" `Quick test_commit_survives_crash;
          Alcotest.test_case "abandon twice" `Quick test_abandon_twice;
          Alcotest.test_case "uncommitted discarded" `Quick test_uncommitted_discarded;
          Alcotest.test_case "torn tail skipped" `Quick test_torn_tail_skipped;
          Alcotest.test_case "truncated tail prefixes" `Quick test_truncated_tail_prefix;
          Alcotest.test_case "randomized crash points" `Quick test_randomized_crash_points;
          Alcotest.test_case "stats survive recovery" `Quick
            test_stats_survive_recovery;
        ] );
      ( "pool-ordering",
        [
          Alcotest.test_case "LRU log-before-data" `Quick
            (test_pool_wal_ordering Pager.Lru);
          Alcotest.test_case "Clock log-before-data" `Quick
            (test_pool_wal_ordering Pager.Clock);
        ] );
      ( "commit-path",
        [
          Alcotest.test_case "read-only commits write nothing" `Quick
            test_read_only_commits_write_nothing;
          Alcotest.test_case "encode-restore fixpoint" `Quick
            test_catalog_encode_fixpoint;
          Alcotest.test_case "golden catalog digest" `Quick
            test_catalog_golden_digest;
        ] );
      ( "facade",
        [
          Alcotest.test_case "durable Db" `Quick test_db_facade_durable;
          Alcotest.test_case "page-size mismatch" `Quick test_page_size_mismatch;
          Alcotest.test_case "use after close" `Quick test_use_after_close;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "catalog round-trip" `Quick test_bootstrap_roundtrip;
          Alcotest.test_case "crash anywhere" `Quick test_bootstrap_crash_anywhere;
          Alcotest.test_case "crash anywhere, 4-frame pool" `Quick
            test_paging_crash_anywhere;
          Alcotest.test_case "flipped byte is typed corruption" `Quick
            test_corruption_detected;
          Alcotest.test_case "script error atomicity" `Quick test_script_atomicity;
          Alcotest.test_case "script crash keeps prefix" `Quick
            test_script_crash_prefix;
        ] );
    ]
