(* Tests for bdbms_index: key codec, B+-tree, R-tree. *)

open Bdbms_index
module Prng = Bdbms_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkli = Alcotest.check Alcotest.(list int)

let mk_bp ?(page_size = 512) ?(capacity = 64) () =
  let d = Bdbms_storage.Disk.create ~page_size ~pool_pages:capacity () in
  (d, Bdbms_storage.Disk.pager d)

(* ------------------------------------------------------------ key codec *)

let test_key_codec_int_order () =
  let values = [ min_int; -1000000; -1; 0; 1; 42; 1000000; max_int ] in
  let rec pairs = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
        checkb
          (Printf.sprintf "%d < %d encodes in order" a b)
          true
          (String.compare (Key_codec.of_int a) (Key_codec.of_int b) < 0);
        pairs rest
  in
  pairs values;
  List.iter (fun v -> checki "roundtrip" v (Key_codec.to_int (Key_codec.of_int v))) values

let test_key_codec_float_order () =
  let values = [ neg_infinity; -1e10; -1.5; -0.0; 0.0; 1.5; 3.25; 1e10; infinity ] in
  let rec pairs = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
        checkb
          (Printf.sprintf "%g <= %g encodes in order" a b)
          true
          (String.compare (Key_codec.of_float a) (Key_codec.of_float b) <= 0);
        pairs rest
  in
  pairs values;
  List.iter
    (fun v ->
      checkb "roundtrip" true (Key_codec.to_float (Key_codec.of_float v) = v || v <> v))
    values

let test_key_codec_pair () =
  let a, b = Key_codec.split_pair (Key_codec.pair "hello" "world") in
  Alcotest.check Alcotest.string "fst" "hello" a;
  Alcotest.check Alcotest.string "snd" "world" b;
  (* embedded zero bytes survive *)
  let a, b = Key_codec.split_pair (Key_codec.pair "a\000b" "c") in
  Alcotest.check Alcotest.string "escaped fst" "a\000b" a;
  Alcotest.check Alcotest.string "escaped snd" "c" b;
  (* order: pairs sort by first then second *)
  checkb "order" true
    (String.compare (Key_codec.pair "a" "z") (Key_codec.pair "ab" "a") < 0)

let test_key_codec_successor () =
  Alcotest.check Alcotest.(option string) "simple" (Some "ac") (Key_codec.successor "ab");
  Alcotest.check Alcotest.(option string) "carry" (Some "b") (Key_codec.successor "a\xff");
  Alcotest.check Alcotest.(option string) "all ff" None (Key_codec.successor "\xff\xff")

(* --------------------------------------------------------------- B+-tree *)

let test_btree_insert_search () =
  let _, bp = mk_bp () in
  let t = Btree.create bp in
  List.iter
    (fun (k, v) -> Btree.insert t ~key:k ~value:v)
    [ ("banana", 2); ("apple", 1); ("cherry", 3); ("apple", 10) ];
  checkli "apple (duplicates)" [ 1; 10 ] (List.sort compare (Btree.search t "apple"));
  checkli "banana" [ 2 ] (Btree.search t "banana");
  checkli "missing" [] (Btree.search t "durian");
  checki "entries" 4 (Btree.entry_count t)

let test_btree_many_and_splits () =
  let _, bp = mk_bp ~page_size:256 ~capacity:128 () in
  let t = Btree.create bp in
  let n = 500 in
  for i = 0 to n - 1 do
    (* insert in shuffled order *)
    let k = (i * 37) mod n in
    Btree.insert t ~key:(Key_codec.of_int k) ~value:k
  done;
  checkb "grew past one node" true (Btree.node_pages t > 1);
  checkb "height grew" true (Btree.height t > 1);
  for i = 0 to n - 1 do
    checkli (Printf.sprintf "key %d" i) [ i ] (Btree.search t (Key_codec.of_int i))
  done

let test_btree_range () =
  let _, bp = mk_bp () in
  let t = Btree.create bp in
  for i = 0 to 99 do
    Btree.insert t ~key:(Key_codec.of_int i) ~value:i
  done;
  let values r = List.map snd r in
  checkli "closed range" [ 10; 11; 12 ]
    (values (Btree.range t ~lo:(Key_codec.of_int 10, true) ~hi:(Key_codec.of_int 12, true) ()));
  checkli "open low" [ 11; 12 ]
    (values (Btree.range t ~lo:(Key_codec.of_int 10, false) ~hi:(Key_codec.of_int 12, true) ()));
  checkli "open high" [ 10; 11 ]
    (values (Btree.range t ~lo:(Key_codec.of_int 10, true) ~hi:(Key_codec.of_int 12, false) ()));
  checki "unbounded low" 13
    (List.length (Btree.range t ~hi:(Key_codec.of_int 12, true) ()));
  checki "unbounded high" 10
    (List.length (Btree.range t ~lo:(Key_codec.of_int 90, true) ()))

let test_btree_prefix () =
  let _, bp = mk_bp () in
  let t = Btree.create bp in
  List.iteri
    (fun i k -> Btree.insert t ~key:k ~value:i)
    [ "gene"; "genome"; "general"; "protein"; "gens" ];
  let keys = List.map fst (Btree.prefix_search t "gen") in
  checkli "prefix count" [ 0; 1; 2; 4 ]
    (List.sort compare (List.map snd (Btree.prefix_search t "gen")));
  checkb "sorted" true (keys = List.sort compare keys)

let test_btree_delete () =
  let _, bp = mk_bp () in
  let t = Btree.create bp in
  Btree.insert t ~key:"k" ~value:1;
  Btree.insert t ~key:"k" ~value:2;
  checkb "delete existing" true (Btree.delete t ~key:"k" ~value:1);
  checkli "remaining" [ 2 ] (Btree.search t "k");
  checkb "delete gone" false (Btree.delete t ~key:"k" ~value:1);
  checki "count" 1 (Btree.entry_count t)

let test_btree_range_probe () =
  let _, bp = mk_bp () in
  let t = Btree.create bp in
  List.iteri (fun i k -> Btree.insert t ~key:k ~value:i)
    [ "aa"; "ab"; "ba"; "bb"; "bc"; "ca" ];
  (* probe selecting keys starting with 'b' *)
  let probe k = Char.compare k.[0] 'b' in
  let found = List.map fst (Btree.range_probe t ~probe) in
  Alcotest.check Alcotest.(list string) "b-keys" [ "ba"; "bb"; "bc" ] found

(* Every read (search, range, prefix_search, range_probe) against a sorted
   model, through a 4-frame pool so the reads fault leaves in and out.
   Keys repeat, so runs of duplicates span leaves.  [custom] is the
   default order behind a closure: it takes the comparator path, which
   extracts a key per comparison, and must answer exactly as the
   in-place byte comparison does; [reversed] checks that reads follow the
   tree's comparator. *)
let test_btree_read_model () =
  let comparators =
    [
      ("default", None, String.compare);
      ("custom", Some (fun a b -> String.compare a b), String.compare);
      ("reversed", Some (fun a b -> String.compare b a), fun a b -> String.compare b a);
    ]
  in
  List.iter
    (fun (name, cmp_opt, cmp) ->
      for seed = 1 to 6 do
        let rng = Prng.create seed in
        let _, bp = mk_bp ~page_size:256 ~capacity:4 () in
        let t = Btree.create ?cmp:cmp_opt bp in
        let pool =
          Array.init 30 (fun _ ->
              Prng.string rng ~alphabet:"abc" ~len:(1 + Prng.int rng 5))
        in
        let n = 1000 in
        let model = List.init n (fun v -> (Prng.choose rng pool, v)) in
        List.iter (fun (k, v) -> Btree.insert t ~key:k ~value:v) model;
        let ctx what = Printf.sprintf "%s seed %d: %s" name seed what in
        checkb (ctx "height > 2") true (Btree.height t > 2);
        let sorted l = List.sort compare l in
        let in_order l =
          let rec go = function
            | (a, _) :: ((b, _) :: _ as rest) -> cmp a b <= 0 && go rest
            | _ -> true
          in
          go l
        in
        let check_entries what expected got =
          checkb (ctx (what ^ " in key order")) true (in_order got);
          Alcotest.check
            Alcotest.(list (pair string int))
            (ctx what) (sorted expected) (sorted got)
        in
        let probes = Array.to_list pool @ [ ""; "abd"; "ccccccc"; "b" ] in
        List.iter
          (fun probe ->
            checkli (ctx ("search " ^ probe))
              (sorted (List.filter_map (fun (k, v) -> if cmp k probe = 0 then Some v else None) model))
              (sorted (Btree.search t probe)))
          probes;
        List.iter
          (fun (lo, hi) ->
            let lo, hi = if cmp lo hi <= 0 then (lo, hi) else (hi, lo) in
            List.iter
              (fun (li, hi_incl) ->
                let expected =
                  List.filter
                    (fun (k, _) ->
                      let a = cmp k lo and b = cmp k hi in
                      (if li then a >= 0 else a > 0) && if hi_incl then b <= 0 else b < 0)
                    model
                in
                check_entries
                  (Printf.sprintf "range %s%s,%s%s" (if li then "[" else "(") lo hi
                     (if hi_incl then "]" else ")"))
                  expected
                  (Btree.range t ~lo:(lo, li) ~hi:(hi, hi_incl) ()))
              [ (true, true); (false, true); (true, false); (false, false) ];
            check_entries ("range from " ^ lo)
              (List.filter (fun (k, _) -> cmp k lo >= 0) model)
              (Btree.range t ~lo:(lo, true) ());
            check_entries ("range to " ^ hi)
              (List.filter (fun (k, _) -> cmp k hi <= 0) model)
              (Btree.range t ~hi:(hi, true) ());
            let probe k = if cmp k lo < 0 then -1 else if cmp k hi > 0 then 1 else 0 in
            check_entries
              (Printf.sprintf "range_probe %s..%s" lo hi)
              (List.filter (fun (k, _) -> probe k = 0) model)
              (Btree.range_probe t ~probe))
          [ (pool.(0), pool.(1)); (pool.(2), pool.(3)); ("", "b"); ("b", "cccccc") ];
        (* prefix_search is defined over the byte order *)
        if cmp_opt = None || name = "custom" then
          List.iter
            (fun prefix ->
              let starts k =
                String.length k >= String.length prefix
                && String.sub k 0 (String.length prefix) = prefix
              in
              check_entries ("prefix " ^ prefix)
                (List.filter (fun (k, _) -> starts k) model)
                (Btree.prefix_search t prefix))
            [ ""; "a"; "ab"; "c"; "cab"; "bbbbb" ]
      done)
    comparators

(* A probe allocates per node visited and per value returned, never per
   entry in a node: the worst minor words of one [search] on a height-2
   tree stay under one bound whether its leaves hold ~8 entries (256-byte
   pages) or ~290 (8 KiB pages).  A probe that decodes its nodes
   allocates per entry: 375 words already on the small pages. *)
let test_btree_search_words () =
  let words_per_search ~page_size =
    let _, bp = mk_bp ~page_size ~capacity:64 () in
    let t = Btree.create bp in
    let i = ref 0 in
    (* sequential keys, up to three leaves under one root *)
    while Btree.height t < 2 || Btree.node_pages t < 4 do
      Btree.insert t ~key:(Key_codec.of_int !i) ~value:!i;
      incr i
    done;
    checki "height" 2 (Btree.height t);
    let n = !i in
    let worst = ref 0 in
    for k = 0 to n - 1 do
      let key = Key_codec.of_int k in
      let before = Gc.minor_words () in
      let r = Btree.search t key in
      let after = Gc.minor_words () in
      if r <> [ k ] then Alcotest.failf "search %d missed" k;
      worst := max !worst (int_of_float (after -. before))
    done;
    (n, !worst)
  in
  let small_n, small = words_per_search ~page_size:256 in
  let big_n, big = words_per_search ~page_size:8192 in
  checkb "big leaves hold many more entries" true (big_n > 10 * small_n);
  checkb (Printf.sprintf "search allocates %d words on small leaves (<= 160)" small) true
    (small <= 160);
  checkb (Printf.sprintf "search allocates %d words on big leaves (<= 160)" big) true
    (big <= 160)

let btree_qcheck =
  let open QCheck in
  let mixed_ops =
    make
      ~print:(fun l ->
        String.concat ";"
          (List.map
             (function
               | `I (k, v) -> Printf.sprintf "I%d=%d" k v
               | `D (k, v) -> Printf.sprintf "D%d=%d" k v)
             l))
      Gen.(
        list_size (int_bound 200)
          (oneof
             [
               (pair (int_bound 40) (int_bound 50) >|= fun kv -> `I kv);
               (pair (int_bound 40) (int_bound 50) >|= fun kv -> `D kv);
             ]))
  in
  let ops =
    make
      ~print:(fun l ->
        String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) l))
      Gen.(list_size (int_bound 300) (pair (int_bound 80) (int_bound 1000)))
  in
  [
    Test.make ~name:"btree search agrees with model" ~count:60 ops (fun kvs ->
        let _, bp = mk_bp ~page_size:256 ~capacity:256 () in
        let t = Btree.create bp in
        List.iter (fun (k, v) -> Btree.insert t ~key:(Key_codec.of_int k) ~value:v) kvs;
        List.for_all
          (fun probe ->
            let expected =
              List.filter_map (fun (k, v) -> if k = probe then Some v else None) kvs
              |> List.sort compare
            in
            List.sort compare (Btree.search t (Key_codec.of_int probe)) = expected)
          (List.init 81 Fun.id));
    Test.make ~name:"btree range agrees with model" ~count:60
      (pair ops (pair (int_bound 80) (int_bound 80)))
      (fun (kvs, (a, b)) ->
        let lo = min a b and hi = max a b in
        let _, bp = mk_bp ~page_size:256 ~capacity:256 () in
        let t = Btree.create bp in
        List.iter (fun (k, v) -> Btree.insert t ~key:(Key_codec.of_int k) ~value:v) kvs;
        let got =
          Btree.range t ~lo:(Key_codec.of_int lo, true) ~hi:(Key_codec.of_int hi, true) ()
          |> List.map (fun (k, v) -> (Key_codec.to_int k, v))
          |> List.sort compare
        in
        let expected =
          List.filter (fun (k, _) -> k >= lo && k <= hi) kvs |> List.sort compare
        in
        got = expected);
    Test.make ~name:"btree insert/delete model check" ~count:60 mixed_ops (fun ops ->
        let _, bp = mk_bp ~page_size:256 ~capacity:256 () in
        let t = Btree.create bp in
        let model = Hashtbl.create 16 in
        List.iter
          (function
            | `I (k, v) ->
                Btree.insert t ~key:(Key_codec.of_int k) ~value:v;
                Hashtbl.add model k v
            | `D (k, v) ->
                let deleted = Btree.delete t ~key:(Key_codec.of_int k) ~value:v in
                let model_had = List.mem v (Hashtbl.find_all model k) in
                if model_had then begin
                  (* remove one occurrence from the model *)
                  let vs = Hashtbl.find_all model k in
                  let rec remove_one = function
                    | [] -> []
                    | x :: rest -> if x = v then rest else x :: remove_one rest
                  in
                  let vs' = remove_one vs in
                  while Hashtbl.mem model k do
                    Hashtbl.remove model k
                  done;
                  List.iter (Hashtbl.add model k) (List.rev vs')
                end;
                if deleted <> model_had then failwith "delete result mismatch")
          ops;
        List.for_all
          (fun k ->
            List.sort compare (Btree.search t (Key_codec.of_int k))
            = List.sort compare (Hashtbl.find_all model k))
          (List.init 41 Fun.id));
    Test.make ~name:"int key codec is order-preserving" ~count:500
      (pair int int)
      (fun (a, b) ->
        compare (String.compare (Key_codec.of_int a) (Key_codec.of_int b)) 0
        = compare (compare a b) 0);
    Test.make ~name:"pager stays within capacity" ~count:50
      (list_of_size (Gen.int_bound 200) (int_bound 300))
      (fun accesses ->
        let d = Bdbms_storage.Disk.create ~page_size:128 ~pool_pages:8 () in
        let bp = Bdbms_storage.Disk.pager d in
        let pages = Array.init 50 (fun _ -> Bdbms_storage.Pager.alloc_page bp) in
        List.iter
          (fun i ->
            Bdbms_storage.Pager.with_page bp pages.(i mod 50) (fun _ -> ()))
          accesses;
        Bdbms_storage.Pager.resident bp <= 8);
  ]

(* ---------------------------------------------------------------- R-tree *)

let test_rtree_mbr_ops () =
  let a = { Rtree.x_lo = 0.0; x_hi = 2.0; y_lo = 0.0; y_hi = 2.0 } in
  let b = { Rtree.x_lo = 1.0; x_hi = 3.0; y_lo = 1.0; y_hi = 3.0 } in
  checkb "intersects" true (Rtree.mbr_intersects a b);
  checkb "area" true (Rtree.mbr_area a = 4.0);
  let u = Rtree.mbr_union a b in
  checkb "union" true (u.Rtree.x_lo = 0.0 && u.Rtree.x_hi = 3.0);
  checkb "contains" true (Rtree.mbr_contains_point a ~x:1.0 ~y:1.0);
  checkb "min dist inside" true (Rtree.mbr_min_dist a ~x:1.0 ~y:1.0 = 0.0);
  checkb "min dist outside" true (abs_float (Rtree.mbr_min_dist a ~x:5.0 ~y:2.0 -. 3.0) < 1e-9)

let test_rtree_insert_search () =
  let _, bp = mk_bp ~page_size:512 ~capacity:128 () in
  let t = Rtree.create bp in
  let rng = Prng.create 5 in
  let pts =
    Array.init 300 (fun i ->
        let x = Prng.float rng 100.0 and y = Prng.float rng 100.0 in
        (x, y, i))
  in
  Array.iter (fun (x, y, i) -> Rtree.insert t (Rtree.mbr_of_point ~x ~y) i) pts;
  checki "entries" 300 (Rtree.entry_count t);
  checkb "split happened" true (Rtree.node_pages t > 1);
  (* window query agrees with naive filter *)
  let window = { Rtree.x_lo = 20.0; x_hi = 40.0; y_lo = 30.0; y_hi = 70.0 } in
  let got = List.sort compare (List.map snd (Rtree.search t window)) in
  let expected =
    Array.to_list pts
    |> List.filter_map (fun (x, y, i) ->
           if x >= 20.0 && x <= 40.0 && y >= 30.0 && y <= 70.0 then Some i else None)
    |> List.sort compare
  in
  checkli "window matches naive" expected got

let test_rtree_three_sided () =
  let _, bp = mk_bp ~page_size:512 ~capacity:64 () in
  let t = Rtree.create bp in
  for i = 0 to 99 do
    Rtree.insert t (Rtree.mbr_of_point ~x:(float_of_int i) ~y:(float_of_int (i mod 10))) i
  done;
  let got =
    Rtree.three_sided t ~x_lo:10.0 ~x_hi:30.0 ~y_lo:5.0 |> List.map snd |> List.sort compare
  in
  let expected =
    List.init 100 Fun.id
    |> List.filter (fun i -> i >= 10 && i <= 30 && i mod 10 >= 5)
  in
  checkli "three sided" expected got

let test_rtree_knn () =
  let _, bp = mk_bp ~page_size:512 ~capacity:64 () in
  let t = Rtree.create bp in
  let rng = Prng.create 9 in
  let pts =
    Array.init 200 (fun i -> (Prng.float rng 10.0, Prng.float rng 10.0, i))
  in
  Array.iter (fun (x, y, i) -> Rtree.insert t (Rtree.mbr_of_point ~x ~y) i) pts;
  let qx = 5.0 and qy = 5.0 in
  let knn = Rtree.nearest t ~x:qx ~y:qy ~k:5 in
  checki "k results" 5 (List.length knn);
  (* distances are non-decreasing *)
  let dists = List.map (fun (_, _, d) -> d) knn in
  checkb "sorted" true (dists = List.sort compare dists);
  (* agrees with naive k nearest *)
  let naive =
    Array.to_list pts
    |> List.map (fun (x, y, i) ->
           let dx = x -. qx and dy = y -. qy in
           (sqrt ((dx *. dx) +. (dy *. dy)), i))
    |> List.sort compare
    |> List.filteri (fun idx _ -> idx < 5)
    |> List.map snd
  in
  checkli "same points" (List.sort compare naive)
    (List.sort compare (List.map (fun (_, i, _) -> i) knn))

let rtree_qcheck =
  let open QCheck in
  let pts_gen =
    make
      ~print:(fun l ->
        String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "(%.1f,%.1f)" x y) l))
      Gen.(list_size (int_bound 150) (pair (float_bound_inclusive 50.0) (float_bound_inclusive 50.0)))
  in
  [
    Test.make ~name:"rtree window query agrees with naive" ~count:60
      (pair pts_gen (pair (float_bound_inclusive 50.0) (float_bound_inclusive 50.0)))
      (fun (pts, (a, b)) ->
        let _, bp = mk_bp ~page_size:512 ~capacity:256 () in
        let t = Rtree.create bp in
        List.iteri (fun i (x, y) -> Rtree.insert t (Rtree.mbr_of_point ~x ~y) i) pts;
        let x_lo = min a b and x_hi = max a b in
        let w = { Rtree.x_lo; x_hi; y_lo = 10.0; y_hi = 40.0 } in
        let got = List.sort compare (List.map snd (Rtree.search t w)) in
        let expected =
          List.mapi (fun i (x, y) -> (i, x, y)) pts
          |> List.filter_map (fun (i, x, y) ->
                 if x >= x_lo && x <= x_hi && y >= 10.0 && y <= 40.0 then Some i else None)
        in
        got = List.sort compare expected);
    Test.make ~name:"rtree knn matches naive" ~count:40 pts_gen (fun pts ->
        QCheck.assume (pts <> []);
        let _, bp = mk_bp ~page_size:512 ~capacity:256 () in
        let t = Rtree.create bp in
        List.iteri (fun i (x, y) -> Rtree.insert t (Rtree.mbr_of_point ~x ~y) i) pts;
        let k = min 3 (List.length pts) in
        let got = Rtree.nearest t ~x:25.0 ~y:25.0 ~k in
        let naive =
          List.mapi
            (fun i (x, y) ->
              let dx = x -. 25.0 and dy = y -. 25.0 in
              (sqrt ((dx *. dx) +. (dy *. dy)), i))
            pts
          |> List.sort compare
        in
        let naive_k = List.filteri (fun idx _ -> idx < k) naive in
        (* compare distances (points may tie) *)
        List.for_all2
          (fun (_, _, d) (nd, _) -> abs_float (d -. nd) < 1e-9)
          got naive_k);
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "bdbms_index"
    [
      ( "key-codec",
        [
          Alcotest.test_case "int order" `Quick test_key_codec_int_order;
          Alcotest.test_case "float order" `Quick test_key_codec_float_order;
          Alcotest.test_case "pair" `Quick test_key_codec_pair;
          Alcotest.test_case "successor" `Quick test_key_codec_successor;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/search" `Quick test_btree_insert_search;
          Alcotest.test_case "many keys with splits" `Quick test_btree_many_and_splits;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "prefix" `Quick test_btree_prefix;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "range probe" `Quick test_btree_range_probe;
          Alcotest.test_case "reads agree with a sorted model" `Quick test_btree_read_model;
          Alcotest.test_case "search allocates nothing per entry" `Quick
            test_btree_search_words;
        ] );
      ("btree-properties", q btree_qcheck);
      ( "rtree",
        [
          Alcotest.test_case "mbr ops" `Quick test_rtree_mbr_ops;
          Alcotest.test_case "insert/search" `Quick test_rtree_insert_search;
          Alcotest.test_case "three sided" `Quick test_rtree_three_sided;
          Alcotest.test_case "knn" `Quick test_rtree_knn;
        ] );
      ("rtree-properties", q rtree_qcheck);
    ]
