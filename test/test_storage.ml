(* Tests for bdbms_storage: pages, disk, buffer pool, heap files. *)

open Bdbms_storage
module Stats = Bdbms_obs.Stats

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ----------------------------------------------------------------- Page *)

let test_page_ints () =
  let p = Page.create () in
  Page.set_u16 p 10 0xBEEF;
  checki "u16" 0xBEEF (Page.get_u16 p 10);
  Page.set_u32 p 20 0x12345678;
  checki "u32" 0x12345678 (Page.get_u32 p 20);
  Page.set_byte p 0 0x7F;
  checki "byte" 0x7F (Page.get_byte p 0)

let test_page_bytes () =
  let p = Page.create ~size:128 () in
  Page.set_bytes p ~pos:5 "hello";
  checks "bytes" "hello" (Page.get_bytes p ~pos:5 ~len:5);
  let q = Page.copy p in
  Page.set_bytes p ~pos:5 "world";
  checks "copy isolated" "hello" (Page.get_bytes q ~pos:5 ~len:5)

(* ----------------------------------------------------------------- Disk *)

let test_disk_alloc_rw () =
  let d = Disk.create ~page_size:256 () in
  checki "empty" 0 (Disk.page_count d);
  let id = Disk.alloc d in
  checki "one page" 1 (Disk.page_count d);
  let p = Page.create ~size:256 () in
  Page.set_bytes p ~pos:0 "data";
  Disk.write d id p;
  let p' = Disk.read d id in
  checks "read back" "data" (Page.get_bytes p' ~pos:0 ~len:4);
  checki "used bytes" 256 (Disk.used_bytes d)

let test_disk_stats () =
  let d = Disk.create () in
  let id = Disk.alloc d in
  let before = Stats.snapshot (Disk.stats d) in
  ignore (Disk.read d id);
  ignore (Disk.read d id);
  Disk.write d id (Page.create ());
  let s = Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before in
  checki "reads" 2 s.Stats.reads;
  checki "writes" 1 s.Stats.writes;
  checki "total" 3 (Stats.total_io s)

let test_disk_bad_page () =
  let d = Disk.create () in
  (match Disk.read d 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid read");
  (match Disk.write d 5 (Page.create ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid write")

(* --------------------------------------------------------------- Pager *)

let test_pool_hit_miss () =
  let d = Disk.create ~pool_pages:2 () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  let before = Stats.snapshot (Disk.stats d) in
  (* cached: no disk read *)
  Pager.with_page bp p1 (fun _ -> ());
  Pager.with_page bp p1 (fun _ -> ());
  let s = Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before in
  checki "no reads" 0 s.Stats.reads;
  checki "two hits" 2 s.Stats.hits

let test_pool_eviction_lru () =
  let d = Disk.create ~pool_pages:2 ~policy:Pager.Lru () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  let p2 = Pager.alloc_page bp in
  let p3 = Pager.alloc_page bp in
  (* p1 was least recently used; it must have been evicted *)
  checki "resident at cap" 2 (Pager.resident bp);
  let before = Stats.snapshot (Disk.stats d) in
  Pager.with_page bp p1 (fun _ -> ());
  let s = Stats.diff ~after:(Stats.snapshot (Disk.stats d)) ~before in
  checki "p1 was a miss" 1 s.Stats.reads;
  checki "p1 was a page-in" 1 s.Stats.page_ins;
  ignore p2;
  ignore p3

let test_pool_dirty_writeback () =
  let d = Disk.create ~page_size:64 ~pool_pages:1 () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  Pager.with_page_mut bp p1 (fun p -> Page.set_bytes p ~pos:0 "dirty!");
  (* force eviction by touching another page *)
  let _p2 = Pager.alloc_page bp in
  let p = Disk.read d p1 in
  checks "written back" "dirty!" (Page.get_bytes p ~pos:0 ~len:6)

let test_pool_flush_all () =
  let d = Disk.create ~page_size:64 ~pool_pages:4 () in
  let bp = Disk.pager d in
  let p1 = Pager.alloc_page bp in
  Pager.with_page_mut bp p1 (fun p -> Page.set_bytes p ~pos:0 "x");
  Pager.flush_dirty bp;
  let p = Disk.read d p1 in
  checks "flushed" "x" (Page.get_bytes p ~pos:0 ~len:1)

let test_pool_clock_policy () =
  let d = Disk.create ~pool_pages:3 ~policy:Pager.Clock () in
  let bp = Disk.pager d in
  let pages = List.init 6 (fun _ -> Pager.alloc_page bp) in
  checkb "resident bounded" true (Pager.resident bp <= 3);
  (* every page still readable after evictions *)
  List.iter (fun id -> Pager.with_page bp id (fun _ -> ())) pages;
  checkb "resident still bounded" true (Pager.resident bp <= 3)

let test_pool_bad_capacity () =
  match Disk.create ~pool_pages:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid capacity"

(* ------------------------------------------------------------ Heap file *)

let mk_heap ?(page_size = 256) ?(capacity = 8) () =
  let d = Disk.create ~page_size ~pool_pages:capacity () in
  (d, Heap_file.create (Disk.pager d))

let test_heap_insert_get () =
  let _, h = mk_heap () in
  let r1 = Heap_file.insert h "alpha" in
  let r2 = Heap_file.insert h "beta" in
  Alcotest.check Alcotest.(option string) "r1" (Some "alpha") (Heap_file.get h r1);
  Alcotest.check Alcotest.(option string) "r2" (Some "beta") (Heap_file.get h r2);
  checki "count" 2 (Heap_file.record_count h)

let test_heap_delete () =
  let _, h = mk_heap () in
  let r1 = Heap_file.insert h "gone" in
  checkb "delete live" true (Heap_file.delete h r1);
  checkb "delete dead" false (Heap_file.delete h r1);
  Alcotest.check Alcotest.(option string) "get dead" None (Heap_file.get h r1);
  checki "count" 0 (Heap_file.record_count h)

let test_heap_update_in_place () =
  let _, h = mk_heap () in
  let r1 = Heap_file.insert h "aaaa" in
  let r1' = Heap_file.update h r1 "bb" in
  checkb "same rid when smaller" true (Heap_file.rid_equal r1 r1');
  Alcotest.check Alcotest.(option string) "updated" (Some "bb") (Heap_file.get h r1')

let test_heap_update_grow () =
  let _, h = mk_heap ~page_size:128 () in
  (* Fill the first page nearly full so a grown record must move. *)
  let r1 = Heap_file.insert h (String.make 40 'a') in
  let _r2 = Heap_file.insert h (String.make 60 'b') in
  let r1' = Heap_file.update h r1 (String.make 100 'c') in
  Alcotest.check Alcotest.(option string) "moved record readable"
    (Some (String.make 100 'c'))
    (Heap_file.get h r1');
  checki "live count unchanged" 2 (Heap_file.record_count h)

let test_heap_update_dead () =
  let _, h = mk_heap () in
  let r1 = Heap_file.insert h "x" in
  ignore (Heap_file.delete h r1);
  match Heap_file.update h r1 "y" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_heap_multi_page () =
  let _, h = mk_heap ~page_size:128 ~capacity:4 () in
  let records = List.init 50 (fun i -> Printf.sprintf "record-%03d" i) in
  let rids = List.map (Heap_file.insert h) records in
  checkb "multiple pages" true (Heap_file.page_count h > 1);
  List.iter2
    (fun rid payload ->
      Alcotest.check Alcotest.(option string) payload (Some payload) (Heap_file.get h rid))
    rids records

let test_heap_iter_order_and_fold () =
  let _, h = mk_heap () in
  let _ = Heap_file.insert h "a" in
  let rb = Heap_file.insert h "b" in
  let _ = Heap_file.insert h "c" in
  ignore (Heap_file.delete h rb);
  let collected = Heap_file.fold h ~init:[] ~f:(fun acc _ payload -> payload :: acc) in
  Alcotest.check Alcotest.(list string) "live records" [ "c"; "a" ] collected

let test_heap_slot_reuse () =
  let _, h = mk_heap () in
  let r1 = Heap_file.insert h "first" in
  ignore (Heap_file.delete h r1);
  let r2 = Heap_file.insert h "second" in
  (* dead slot is reused, so same page and slot *)
  checkb "slot reused" true (Heap_file.rid_equal r1 r2)

let test_heap_too_large () =
  let _, h = mk_heap ~page_size:128 () in
  match Heap_file.insert h (String.make 1000 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected size rejection"

let heap_qcheck =
  let open QCheck in
  let ops_gen =
    (* A random interleaving of inserts and deletes, checked against a
       reference association list. *)
    make
      ~print:(fun l ->
        String.concat ";"
          (List.map (function `I s -> "I" ^ s | `D i -> "D" ^ string_of_int i) l))
      Gen.(
        list_size (int_bound 60)
          (oneof
             [
               (small_string ~gen:printable >|= fun s -> `I s);
               (int_bound 30 >|= fun i -> `D i);
             ]))
  in
  [
    Test.make ~name:"heap file model check" ~count:200 ops_gen (fun ops ->
        let _, h = mk_heap ~page_size:256 ~capacity:4 () in
        let model = Hashtbl.create 16 in
        let rids = ref [||] in
        List.iter
          (function
            | `I payload ->
                let rid = Heap_file.insert h payload in
                rids := Array.append !rids [| rid |];
                Hashtbl.replace model (Array.length !rids - 1) payload
            | `D i ->
                if Array.length !rids > 0 then begin
                  let idx = i mod Array.length !rids in
                  if Hashtbl.mem model idx then begin
                    ignore (Heap_file.delete h !rids.(idx));
                    Hashtbl.remove model idx
                  end
                end)
          ops;
        Hashtbl.fold
          (fun idx payload ok -> ok && Heap_file.get h !rids.(idx) = Some payload)
          model true
        && Heap_file.record_count h = Hashtbl.length model);
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdbms_storage"
    [
      ( "page",
        [
          Alcotest.test_case "ints" `Quick test_page_ints;
          Alcotest.test_case "bytes" `Quick test_page_bytes;
        ] );
      ( "disk",
        [
          Alcotest.test_case "alloc/read/write" `Quick test_disk_alloc_rw;
          Alcotest.test_case "stats" `Quick test_disk_stats;
          Alcotest.test_case "bad page" `Quick test_disk_bad_page;
        ] );
      ( "buffer-pool",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_pool_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_pool_eviction_lru;
          Alcotest.test_case "dirty write-back" `Quick test_pool_dirty_writeback;
          Alcotest.test_case "flush all" `Quick test_pool_flush_all;
          Alcotest.test_case "clock policy" `Quick test_pool_clock_policy;
          Alcotest.test_case "bad capacity" `Quick test_pool_bad_capacity;
        ] );
      ( "heap-file",
        [
          Alcotest.test_case "insert/get" `Quick test_heap_insert_get;
          Alcotest.test_case "delete" `Quick test_heap_delete;
          Alcotest.test_case "update in place" `Quick test_heap_update_in_place;
          Alcotest.test_case "update grows" `Quick test_heap_update_grow;
          Alcotest.test_case "update dead" `Quick test_heap_update_dead;
          Alcotest.test_case "multi page" `Quick test_heap_multi_page;
          Alcotest.test_case "iter and fold" `Quick test_heap_iter_order_and_fold;
          Alcotest.test_case "slot reuse" `Quick test_heap_slot_reuse;
          Alcotest.test_case "record too large" `Quick test_heap_too_large;
        ] );
      ("heap-properties", q heap_qcheck);
    ]
