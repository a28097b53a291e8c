(* Tests for the demand-paged pager: pin/unpin discipline, bounded
   residency, steal eviction, typed pool exhaustion, the debug read-only
   guard, and the acceptance workload — a durable table ten times the
   pool, scanned and probed with residency asserted under the cap. *)

open Bdbms_storage
module Stats = Bdbms_obs.Stats
module Db = Bdbms.Db
module Context = Bdbms_asql.Context
module Btree = Bdbms_index.Btree
module Key_codec = Bdbms_index.Key_codec

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bdbms_paging_%d_%d.db" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".wal" ]

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------- pin semantics *)

let test_all_pinned_exhausts () =
  let d = Disk.create ~page_size:128 ~pool_pages:2 () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  let p2 = Pager.alloc_page bp in
  let p3 = Pager.alloc_page bp in
  (* p1 got evicted allocating p3; pin p2 and p3, then fault p1 back in:
     no evictable frame remains *)
  Pager.with_page bp p2 (fun _ ->
      Pager.with_page bp p3 (fun _ ->
          match Pager.with_page bp p1 (fun _ -> ()) with
          | () -> Alcotest.fail "expected Pool_exhausted"
          | exception Pager.Pool_exhausted { capacity; pinned } ->
              checki "capacity in payload" 2 capacity;
              checki "pinned in payload" 2 pinned));
  checki "pins released after exhaustion" 0 (Pager.pinned bp)

let test_nested_pins () =
  let d = Disk.create ~page_size:128 ~pool_pages:1 () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  (* re-pinning the same frame must not try to evict it *)
  Pager.with_page bp p1 (fun a ->
      Pager.with_page bp p1 (fun b -> checkb "same frame" true (a == b)));
  checki "pins drain to zero" 0 (Pager.pinned bp);
  let s = Stats.snapshot (Disk.stats d) in
  checkb "peak pinned saw the nesting" true (s.Stats.peak_pinned >= 1)

let test_guard_catches_mutation () =
  let d = Disk.create ~page_size:128 ~pool_pages:4 ~guard:true () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  (match Pager.with_page bp p1 (fun p -> Page.set_byte p 0 0xFF) with
  | () -> Alcotest.fail "guard missed an in-place mutation"
  | exception Failure _ -> ());
  (* the same mutation through the mutable pin is fine *)
  Pager.with_page_mut bp p1 (fun p -> Page.set_byte p 0 0xFF);
  Pager.with_page bp p1 (fun p -> checki "mutation kept" 0xFF (Page.get_byte p 0))

(* The dirty-frame count against a model.  A pager over a store that
   records each write-back; the model holds each page's last written
   byte and the set of pages mutated since their last write-back.
   Through random pins, mutable pins (some nested in a read pin of
   another page), allocations, single flushes and the evictions they
   force in 4 frames, under both policies: no clean page is ever written
   back, [flush_one] writes back exactly a dirty page, [flush_dirty]
   exactly the model's dirty pages in id order, [has_dirty] agrees after
   every step, and the store ends holding every last write. *)
let test_dirty_count_oracle () =
  List.iter
    (fun policy ->
      for seed = 1 to 30 do
        let what fmt =
          Printf.ksprintf
            (Printf.sprintf "%s seed %d: %s"
               (match policy with Pager.Lru -> "lru" | Pager.Clock -> "clock")
               seed)
            fmt
        in
        let rng = Bdbms_util.Prng.create seed in
        let store = Hashtbl.create 64 and count = ref 0 and written = ref [] in
        let dirty = Hashtbl.create 16 and last = Hashtbl.create 64 in
        let src =
          {
            Pager.src_page_size = 64;
            src_stats = Stats.create ();
            src_page_count = (fun () -> !count);
            src_load =
              (fun id ->
                match Hashtbl.find_opt store id with
                | Some p -> Page.copy p
                | None -> Page.create ~size:64 ());
            src_write_back =
              (fun id page ~evicting:_ ->
                if not (Hashtbl.mem dirty id) then
                  Alcotest.failf "%s" (what "clean page %d written back" id);
                Hashtbl.remove dirty id;
                Hashtbl.replace store id (Page.copy page);
                written := id :: !written);
            src_alloc =
              (fun () ->
                incr count;
                !count - 1);
          }
        in
        let bp = Pager.create ~policy ~guard:true ~capacity:4 src in
        let writes () =
          let w = List.rev !written in
          written := [];
          w
        in
        let mutate id =
          let b = Bdbms_util.Prng.int rng 256 in
          Pager.with_page_mut bp id (fun p ->
              Page.set_byte p 0 b;
              Hashtbl.replace dirty id ());
          Hashtbl.replace last id b
        in
        let pick () = Bdbms_util.Prng.int rng !count in
        for step = 1 to 200 do
          (if !count = 0 then ignore (Pager.alloc_page bp)
           else
             match Bdbms_util.Prng.int rng 10 with
             | 0 -> ignore (Pager.alloc_page bp)
             | 1 | 2 | 3 -> Pager.with_page bp (pick ()) ignore
             | 4 | 5 -> mutate (pick ())
             | 6 ->
                 let a = pick () and b = pick () in
                 if a = b then mutate b else Pager.with_page bp a (fun _ -> mutate b)
             | 7 ->
                 let id = pick () in
                 let want = if Hashtbl.mem dirty id then [ id ] else [] in
                 Pager.flush_one bp id;
                 Alcotest.(check (list int)) (what "flush_one %d at step %d" id step) want
                   (writes ())
             | _ ->
                 let want = List.sort compare (List.of_seq (Hashtbl.to_seq_keys dirty)) in
                 Pager.flush_dirty bp;
                 Alcotest.(check (list int)) (what "flush_dirty at step %d" step) want
                   (writes ()));
          ignore (writes ());
          checkb (what "has_dirty at step %d" step) (Hashtbl.length dirty > 0)
            (Pager.has_dirty bp)
        done;
        Pager.flush_dirty bp;
        ignore (writes ());
        checkb (what "clean after flush_dirty") false (Pager.has_dirty bp);
        Pager.flush_dirty bp;
        Alcotest.(check (list int)) (what "a clean pool writes nothing") [] (writes ());
        Hashtbl.iter
          (fun id b ->
            checki (what "page %d holds its last write" id) b
              (Page.get_byte (Hashtbl.find store id) 0))
          last;
        checkb (what "evictions exercised") true
          ((Stats.snapshot src.Pager.src_stats).Stats.evictions > 0)
      done)
    [ Pager.Lru; Pager.Clock ]

let test_eviction_stats () =
  let d = Disk.create ~page_size:128 ~pool_pages:2 () in
  let bp = Disk.pager d in
  let ids = List.init 8 (fun _ -> Pager.alloc_page bp) in
  List.iter (fun id -> Pager.with_page_mut bp id (fun p -> Page.set_byte p 0 1)) ids;
  List.iter (fun id -> Pager.with_page bp id (fun _ -> ())) ids;
  let s = Stats.snapshot (Disk.stats d) in
  checkb "page-ins counted" true (s.Stats.page_ins > 0);
  checkb "evictions counted" true (s.Stats.evictions > 0);
  checkb "dirty write-backs counted" true (s.Stats.writebacks > 0);
  checki "resident bounded" 2 (Pager.resident bp)

(* Uncommitted dirty pages stolen by eviction land in the WAL, not the
   database file: abandoning the process must roll them all back. *)
let test_steal_respects_commit () =
  let path = tmp_path () in
  let d = Disk.open_file ~page_size:128 ~pool_pages:2 path in
  let ids = List.init 6 (fun _ -> Disk.alloc d) in
  List.iter
    (fun id -> Disk.with_page_mut d id (fun p -> Page.set_bytes p ~pos:0 "base"))
    ids;
  Disk.commit d;
  (* overwrite all six through two frames: every statement evicts dirty
     uncommitted pages *)
  List.iter
    (fun id -> Disk.with_page_mut d id (fun p -> Page.set_bytes p ~pos:0 "gone"))
    ids;
  let s = Stats.snapshot (Disk.stats d) in
  checkb "steals happened while uncommitted" true (s.Stats.writebacks > 0);
  Disk.abandon d;
  let d2 = Disk.open_file ~page_size:128 ~pool_pages:2 path in
  List.iter
    (fun id ->
      Disk.with_page d2 id (fun p ->
          Alcotest.check Alcotest.string "committed image survives" "base"
            (Page.get_bytes p ~pos:0 ~len:4)))
    ids;
  Disk.close d2;
  cleanup path

(* ------------------------------------------------------ pin-leak suite *)

(* Every public operation must return with zero pinned frames: a leaked
   pin silently shrinks the evictable pool until it exhausts. *)

let leak_workload =
  [
    "CREATE TABLE Gene (GID TEXT, GSequence DNA)";
    "INSERT INTO Gene VALUES ('g1', 'ATGATG')";
    "INSERT INTO Gene VALUES ('g2', 'CCGTTA')";
    "CREATE INDEX gidx ON Gene (GID)";
    "SELECT * FROM Gene";
    "SELECT GID FROM Gene WHERE GID = 'g1'";
    "CREATE ANNOTATION TABLE notes ON Gene";
    "ADD ANNOTATION TO Gene.notes VALUE 'curated' ON (SELECT * FROM Gene WHERE GID = 'g1')";
    "SELECT GID FROM Gene ANNOTATION(notes)";
    "CREATE TABLE Protein (PName TEXT, PSequence PROTEIN)";
    "INSERT INTO Protein VALUES ('p1', 'MM')";
    "CREATE DEPENDENCY r1 FROM Gene.GSequence TO Protein.PSequence USING P";
    "LINK DEPENDENCY r1 FROM (0) TO 0";
    "UPDATE Gene SET GSequence = 'TTGTTG' WHERE GID = 'g1'";
    "CREATE USER alice";
    "GRANT SELECT ON Gene TO alice";
    "DELETE FROM Gene WHERE GID = 'g2'";
  ]

let assert_no_pins db what =
  checki (what ^ ": zero pinned frames")
    0
    (Pager.pinned (Disk.pager (Db.context db).Context.disk))

let test_pin_leaks_mem () =
  let db = Db.create ~page_size:512 ~pool_pages:8 () in
  List.iter
    (fun sql ->
      (match Db.exec db sql with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "statement failed: %s (%s)" e sql);
      assert_no_pins db sql)
    leak_workload;
  ignore (Db.render_exn db "SELECT * FROM Gene");
  assert_no_pins db "render";
  Db.close db

let test_pin_leaks_durable () =
  let path = tmp_path () in
  let db = Db.create ~page_size:512 ~pool_pages:4 ~path () in
  List.iter
    (fun sql ->
      (match Db.exec db sql with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "statement failed: %s (%s)" e sql);
      assert_no_pins db sql)
    leak_workload;
  Db.close db;
  (* bootstrap from disk holds no pins either *)
  let db2 = Db.create ~page_size:512 ~pool_pages:4 ~path () in
  assert_no_pins db2 "bootstrap";
  ignore (Db.render_exn db2 "SELECT GID FROM Gene WHERE GID = 'g1'");
  assert_no_pins db2 "probe after bootstrap";
  Db.close db2;
  cleanup path

let test_pin_leaks_btree () =
  let d = Disk.create ~page_size:256 ~pool_pages:8 () in
  let bp = Disk.pager d in
  let t = Btree.create bp in
  for i = 0 to 499 do
    Btree.insert t ~key:(Key_codec.of_int i) ~value:i;
    checki "insert leaves no pins" 0 (Pager.pinned bp)
  done;
  ignore (Btree.search t (Key_codec.of_int 250));
  checki "search leaves no pins" 0 (Pager.pinned bp);
  ignore
    (Btree.range t
       ~lo:(Key_codec.of_int 100, true)
       ~hi:(Key_codec.of_int 200, true)
       ());
  checki "range leaves no pins" 0 (Pager.pinned bp)

(* ------------------------------------------------- acceptance workload *)

(* A durable table at least ten times the pool: sequential scan and
   indexed probes complete with resident <= capacity throughout. *)
let test_table_10x_pool () =
  let path = tmp_path () in
  let pool = 8 in
  let db = Db.create ~page_size:256 ~pool_pages:pool ~path () in
  let disk = (Db.context db).Context.disk in
  let assert_bounded what =
    let r = Disk.resident disk in
    if r > pool then Alcotest.failf "%s: resident %d > pool %d" what r pool
  in
  ignore (Db.exec_exn db "CREATE TABLE T (k TEXT, v INT)");
  let rows = ref 0 in
  while Disk.page_count disk < 10 * pool && !rows < 5000 do
    incr rows;
    ignore
      (Db.exec_exn db
         (Printf.sprintf "INSERT INTO T VALUES ('key%04d', %d)" !rows !rows));
    assert_bounded "insert"
  done;
  checkb
    (Printf.sprintf "table is 10x the pool (%d pages)" (Disk.page_count disk))
    true
    (Disk.page_count disk >= 10 * pool);
  ignore (Db.exec_exn db "CREATE INDEX tk ON T (k)");
  assert_bounded "create index";
  (* sequential scan touches every heap page *)
  let scan = Db.render_exn db "SELECT k FROM T" in
  assert_bounded "scan";
  checkb "scan reached first row" true (contains ~needle:"key0001" scan);
  checkb "scan reached last row" true
    (contains ~needle:(Printf.sprintf "key%04d" !rows) scan);
  (* indexed point probes page leaf chains back in *)
  List.iter
    (fun i ->
      let needle = Printf.sprintf "key%04d" i in
      let out =
        Db.render_exn db (Printf.sprintf "SELECT v FROM T WHERE k = '%s'" needle)
      in
      assert_bounded "probe";
      checkb ("probe " ^ needle) true (contains ~needle:(string_of_int i) out))
    [ 1; !rows / 2; !rows ];
  assert_no_pins db "acceptance workload";
  let s = Stats.snapshot (Disk.stats disk) in
  checkb "evictions exercised" true (s.Stats.evictions > 0);
  checkb "page-ins exercised" true (s.Stats.page_ins > 0);
  checkb "steals exercised" true (s.Stats.writebacks > 0);
  Db.close db;
  cleanup path

let () =
  Alcotest.run "bdbms_paging"
    [
      ( "pins",
        [
          Alcotest.test_case "all-pinned raises Pool_exhausted" `Quick
            test_all_pinned_exhausts;
          Alcotest.test_case "nested pins on one frame" `Quick test_nested_pins;
          Alcotest.test_case "guard catches read-only violation" `Quick
            test_guard_catches_mutation;
          Alcotest.test_case "eviction counters" `Quick test_eviction_stats;
          Alcotest.test_case "steal keeps uncommitted out of the file" `Quick
            test_steal_respects_commit;
          Alcotest.test_case "dirty count agrees with a model" `Quick
            test_dirty_count_oracle;
        ] );
      ( "pin-leaks",
        [
          Alcotest.test_case "A-SQL ops, in-memory" `Quick test_pin_leaks_mem;
          Alcotest.test_case "A-SQL ops, durable 4-frame pool" `Quick
            test_pin_leaks_durable;
          Alcotest.test_case "B-tree ops" `Quick test_pin_leaks_btree;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "scan + probe a table 10x the pool" `Quick
            test_table_10x_pool;
        ] );
    ]
